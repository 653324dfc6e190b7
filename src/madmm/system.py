"""Multiaffine constraint systems: blocks, terms, evaluation, and freezing.

A system is a stack of equations, each a signed sum of terms that must equal
zero.  Every term is affine in each variable block with the other blocks held
fixed; products of two or more distinct blocks are allowed (matrix chains,
Hadamard products, 2-D circular convolutions), repeated occurrences of the
same block inside one term are not.

Each term type is one subclass of ``_Term`` owning its blocks, its shape
check, its unsigned value and its frozen pieces; a new type is one new class.
:func:`_eval_term` is the one per-term evaluator; it returns the unsigned
value, which may be an array the term or the caller owns, and ``evaluate``
and the frozen offsets fold each sign into their sums by adding or
subtracting it.

The central operation is :func:`freeze`: fixing all blocks except a chosen
focus turns the system into an affine map of the focus, returned as a
:class:`FrozenLinearForm` with matrix-free ``apply``/``adjoint`` and a dense
``offset`` such that the stacked residual equals ``apply(Y) - offset``.
``freeze`` checks every non-focus value and builds the focus pieces at once;
the offset of an equation is summed from those checked values the first time
it is asked for, so a caller that needs only adjoints, or only the equations
its focus enters, evaluates no other term.

Which terms a focus enters, which only feed offsets and which blocks must be
read depend on the focus alone, not on block values.  The first ``freeze`` of
a focus stores that structure on the system as a plan, read from one walk of
the terms that files each term under every block it holds, and later calls
for the same focus reuse it.  The walk fixes the system: ``add_equation``,
the only way to add an equation, refuses every one after it.

A frozen form is a list of pieces, one per occurrence of a focus block in a
term, and each piece is an instance of one small class per way a block can
enter a term: a scaled identity, a linear operator, a left, right or
two-sided matrix multiply, a Hadamard product with an optional post-map, and
the signal or kernel side of a convolution.  A piece class owns its
``apply`` and ``adjoint``, its gram view (the gram's diagonal, when the
gram is diagonal), and ``dense()``, the matrix it applies to the row-major
flattened block; the block solvers in ``prox`` read these views and never
the piece's type.  :func:`block_adjoints` takes ``C'_b^T W`` for every block
at once by freezing each term with its own blocks as the focus.

Convolutions go through the Fourier domain.  Every zero-padded ``rfft2`` is
taken by :func:`_spectrum`, into one fresh array, and every inverse by
:func:`_irfft2`, which consumes a spectrum its caller owns: it runs ``ifft``
over the rows in place and ``irfft`` over the columns, into ``out`` or one
fresh array.  Inside :func:`spectrum_memo`, which ``solver.step`` opens while
it runs, the spectrum of an array that is a current block value or an old or
new multiplier of that step is computed once per array object and shape,
``circ_conv2`` of a kernel and a signal that are both such arrays once per
pair, and :meth:`FrozenLinearForm.conv_target`, the target a convolution
piece is fitted to together with its spectrum, once per equation, rho and
set of such arrays it is built from, so the kernel and signal updates of a
step build and transform their common target once.  All three kinds live
in one table, keyed by kind, and are reused while the step holds those
arrays; every memoised product is handed out read-only.  An entry is
dropped once the step no longer holds its arrays and the memo keeps
another, and at the latest when the step returns.  The memo holds a
reference to each array it has keyed, so no id is reused.  Outside a step
every call transforms afresh.  Reuse relies on no array of the step being
modified in place while the step runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import BuildError, ShapeMismatchError, require_finite
from .operators import LinearOp

ROLE_X = "x"
ROLE_Z0 = "z0"
ROLE_Z1 = "z1"
ROLE_Z2 = "z2"
_ROLES = (ROLE_X, ROLE_Z0, ROLE_Z1, ROLE_Z2)


@dataclass(frozen=True)
class BlockId:
    """Identity of one variable block.

    ``role`` is "x" for sequentially updated blocks (``index`` gives the
    update position) or one of "z0"/"z1"/"z2" for the jointly updated final
    group; "z1"/"z2" blocks may only appear in plain linear terms.
    """

    name: str
    role: str
    shape: tuple
    index: int = 0

    def __post_init__(self):
        if self.role not in _ROLES:
            raise BuildError(f"unknown role {self.role!r} for block {self.name!r}")
        if len(self.shape) != 2 or any(int(s) < 1 for s in self.shape):
            raise BuildError(f"block {self.name!r} needs a positive (rows, cols) shape")
        object.__setattr__(self, "shape", (int(self.shape[0]), int(self.shape[1])))

    def __hash__(self):
        # Equal blocks share a name, and str caches its hash.
        return hash(self.name)

    @property
    def dim(self) -> int:
        return self.shape[0] * self.shape[1]


class _Term:
    """Base of the term types, dataclasses with a ``sign`` of +1 or -1.

    A type defines ``out_shape(eq_id)``, its shape once its parts are checked,
    and ``unsigned(values)``, its value without the sign; that value may be
    an array the term or the caller owns (a constant's array, a block value),
    so treat it as read-only.  ``blocks()`` (in occurrence order) and
    ``pieces(focus, values, eq_id)`` (a frozen piece per occurrence of a
    block in ``focus``) default to none, as for a constant."""

    def blocks(self) -> tuple:
        return ()

    def pieces(self, focus, values, eq_id) -> list:
        return []


def _product(factors, read):
    """Product of chain factors, None if there are none; blocks go through ``read``."""
    out = None
    for f in factors:
        v = read(f) if isinstance(f, BlockId) else np.asarray(f, dtype=float)
        out = v if out is None else out @ v
    return out


@dataclass
class MatChain(_Term):
    """sign * F1 @ F2 @ ... @ Fk where each factor is a BlockId or a constant."""

    factors: list
    sign: int = 1

    def __post_init__(self):
        for f in self.factors:
            if not isinstance(f, BlockId):
                require_finite(np.asarray(f, dtype=float), "matrix chain factor")

    def blocks(self) -> tuple:
        return tuple(f for f in self.factors if isinstance(f, BlockId))

    def out_shape(self, eq_id: int) -> tuple:
        if not self.factors:
            raise BuildError(f"equation {eq_id}: empty matrix chain")
        shapes = [f.shape if isinstance(f, BlockId) else np.asarray(f).shape
                  for f in self.factors]
        for a, b in zip(shapes, shapes[1:]):
            if a[1] != b[0]:
                raise ShapeMismatchError(
                    f"equation {eq_id}: matrix chain mismatch {a} @ {b}", eq_id=eq_id)
        return (shapes[0][0], shapes[-1][1])

    def unsigned(self, values):
        return _product(self.factors, lambda b: _value_of(values, b))

    def pieces(self, focus, values, eq_id) -> list:
        out = []
        for idx, f in enumerate(self.factors):
            if isinstance(f, BlockId) and f in focus:
                left = _product(self.factors[:idx], values.__getitem__)
                right = _product(self.factors[idx + 1:], values.__getitem__)
                if left is None and right is None:
                    out.append(_IdentityPiece(eq_id, f, self.sign, 1.0))
                else:
                    fixed = sum(isinstance(g, BlockId) for g in self.factors) == 1
                    out.append(_MatMulPiece(eq_id, f, self.sign, left, right, fixed))
        return out


@dataclass
class HadamardPair(_Term):
    """sign * post(left * right) with * elementwise; post defaults to identity."""

    left: BlockId
    right: BlockId
    post: LinearOp | None = None
    sign: int = 1

    def blocks(self) -> tuple:
        return (self.left, self.right)

    def out_shape(self, eq_id: int) -> tuple:
        if self.left.shape != self.right.shape:
            raise ShapeMismatchError(
                f"equation {eq_id}: Hadamard blocks {self.left.name!r} and "
                f"{self.right.name!r} have different shapes",
                block=self.left.name, eq_id=eq_id)
        if self.post is None:
            return self.left.shape
        if self.post.in_shape != self.left.shape:
            raise ShapeMismatchError(
                f"equation {eq_id}: post-map expects {self.post.in_shape}, "
                f"blocks have {self.left.shape}",
                block=self.left.name, eq_id=eq_id)
        return self.post.out_shape

    def unsigned(self, values):
        prod = _value_of(values, self.left) * _value_of(values, self.right)
        return prod if self.post is None else self.post.apply(prod)

    def pieces(self, focus, values, eq_id) -> list:
        return [_HadamardPiece(eq_id, b, self.sign, values[other], self.post)
                for b, other in ((self.left, self.right), (self.right, self.left))
                if b in focus]


@dataclass
class Conv2D(_Term):
    """sign * (kernel conv signal), circular 2-D convolution.

    The kernel block may be smaller than the signal block; it is zero-padded
    to the signal shape with its origin at index (0, 0) before the FFT.
    """

    kernel: BlockId
    signal: BlockId
    sign: int = 1

    def blocks(self) -> tuple:
        return (self.kernel, self.signal)

    def out_shape(self, eq_id: int) -> tuple:
        ks, ss = self.kernel.shape, self.signal.shape
        if ks[0] > ss[0] or ks[1] > ss[1]:
            raise ShapeMismatchError(
                f"equation {eq_id}: kernel {ks} larger than signal {ss}",
                block=self.kernel.name, eq_id=eq_id)
        return ss

    def unsigned(self, values):
        return circ_conv2(_value_of(values, self.kernel),
                          _value_of(values, self.signal))

    def pieces(self, focus, values, eq_id) -> list:
        return [kind(eq_id, b, self.sign, values[other])
                for b, kind, other in ((self.kernel, _ConvKernelPiece, self.signal),
                                       (self.signal, _ConvSignalPiece, self.kernel))
                if b in focus]


@dataclass
class LinearTerm(_Term):
    """sign * op(block)."""

    op: LinearOp
    block: BlockId
    sign: int = 1

    def blocks(self) -> tuple:
        return (self.block,)

    def out_shape(self, eq_id: int) -> tuple:
        if self.op.in_shape != self.block.shape:
            raise ShapeMismatchError(
                f"equation {eq_id}: operator expects {self.op.in_shape}, "
                f"block {self.block.name!r} has {self.block.shape}",
                block=self.block.name, eq_id=eq_id)
        return self.op.out_shape

    def unsigned(self, values):
        value = _value_of(values, self.block)
        return value if self.op.identity_scale == 1.0 else self.op.apply(value)

    def pieces(self, focus, values, eq_id) -> list:
        if self.block not in focus:
            return []
        scale = self.op.identity_scale
        return [_OpPiece(eq_id, self.block, self.sign, self.op) if scale is None
                else _IdentityPiece(eq_id, self.block, self.sign, scale)]


@dataclass
class Constant(_Term):
    """A fixed array added into the equation."""

    value: np.ndarray
    sign: int = 1

    def __post_init__(self):
        self.value = np.asarray(self.value, dtype=float)
        if self.value.ndim != 2:
            self.value = np.atleast_2d(self.value)
        require_finite(self.value, "constant term")

    def out_shape(self, eq_id: int) -> tuple:
        return self.value.shape

    def unsigned(self, values):
        return self.value


# (sources, table) while a step runs: sources are the step's dicts of block
# values and old and new multipliers, and the table maps a key tagged by kind
# to (the arrays it was built from..., value): ("spectrum", id, shape) to a
# spectrum, ("conv", kernel id, signal id) to a convolution and ("target",
# ...) (see FrozenLinearForm.conv_target) to (target, spectrum).
_SPECTRA = ContextVar("madmm_spectra", default=None)


@contextmanager
def spectrum_memo(*sources):
    """Reuse spectra, convolutions and convolution targets of the arrays
    held in ``sources`` until the block exits.

    ``sources`` are dicts whose values are arrays.  An array's spectrum is
    memoised when the array is one of their values at the time the spectrum
    is first taken, ``circ_conv2(kernel, signal)`` when both arguments are,
    and a convolution piece's target with its spectrum
    (:meth:`FrozenLinearForm.conv_target`) when every array it was built
    from is, so the dicts may gain or rebind entries while the memo is open.
    An entry is dropped, when the next entry of any kind is kept, once the
    sources no longer hold its arrays.  Every memoised product is handed out
    read-only.
    """
    token = _SPECTRA.set((sources, {}))
    try:
        yield
    finally:
        _SPECTRA.reset(token)


def _recall(key):
    """The memoised value under ``key``, or None."""
    memo = _SPECTRA.get()
    hit = None if memo is None else memo[1].get(key)
    return None if hit is None else hit[-1]


def _keep(key, arrays, value) -> None:
    """Memoise ``value``, an array or a tuple of arrays, and mark it
    read-only when the open memo's sources hold all ``arrays``; first drop
    the entries whose arrays they no longer hold."""
    memo = _SPECTRA.get()
    if memo is None:
        return
    sources, table = memo
    held = {id(v) for d in sources for v in d.values()}
    if not all(id(a) in held for a in arrays):
        return
    for old in [k for k, entry in table.items()
                if not all(id(a) in held for a in entry[:-1])]:
        del table[old]
    for a in value if isinstance(value, tuple) else (value,):
        a.flags.writeable = False
    table[key] = (*arrays, value)


def _spectrum(a: np.ndarray, shape: tuple) -> np.ndarray:
    """``rfft2`` of ``a`` zero-padded to ``shape``, origin at index (0, 0).

    Inside :func:`spectrum_memo` the result for an array held by its sources
    is kept, read-only, and returned again for the same array object and
    shape while the sources hold it; anything else is transformed on every
    call.
    """
    key = ("spectrum", id(a), shape)
    spec = _recall(key)
    if spec is not None:
        return spec
    if a.shape == shape:
        padded = a
    else:
        padded = np.zeros(shape)
        padded[: a.shape[0], : a.shape[1]] = a
    spec = np.fft.rfft2(padded,
                        out=np.empty((shape[0], shape[1] // 2 + 1), complex))
    _keep(key, (a,), spec)
    return spec


def _irfft2(spec: np.ndarray, shape: tuple, out=None) -> np.ndarray:
    """``irfft2(spec, s=shape)``, overwriting ``spec``, which the caller owns.

    ``ifft`` runs over the rows in place, then ``irfft`` over the columns
    into ``out``, or into one fresh array when ``out`` is None; the steps
    are those of ``irfft2``, so the result is the same to the bit.
    """
    np.fft.ifft(spec, shape[0], axis=0, out=spec)
    return np.fft.irfft(spec, shape[1], axis=1, out=out)


def circ_conv2(kernel: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Circular 2-D convolution of a (possibly smaller) kernel with a signal.

    Inside :func:`spectrum_memo`, when both arrays are held by its sources,
    the result is computed once per pair and handed out read-only.
    """
    kernel = np.asarray(kernel, dtype=float)
    signal = np.asarray(signal, dtype=float)
    key = ("conv", id(kernel), id(signal))
    out = _recall(key)
    if out is not None:
        return out
    out = _irfft2(_spectrum(kernel, signal.shape) * _spectrum(signal, signal.shape),
                  signal.shape)
    _keep(key, (kernel, signal), out)
    return out


def _conv_adjoint_signal(kernel: np.ndarray, w: np.ndarray) -> np.ndarray:
    prod = np.conj(_spectrum(kernel, w.shape))
    prod *= _spectrum(w, w.shape)
    return _irfft2(prod, w.shape)


def _conv_adjoint_kernel(signal: np.ndarray, w_hat: np.ndarray, kernel_shape) -> np.ndarray:
    """The kernel-side adjoint of a convolution with ``signal``, applied to
    the dual whose ``rfft2`` is ``w_hat``."""
    prod = np.conj(_spectrum(signal, signal.shape))
    prod *= w_hat
    full = _irfft2(prod, signal.shape)
    return full[: kernel_shape[0], : kernel_shape[1]].copy()


class MultiaffineSystem:
    """A stack of multiaffine equations ``sum_t sign_t T_t(blocks) = 0``.

    Equations are added only through :meth:`add_equation`, and only until
    the system is first frozen (by :func:`freeze`, or by building a
    ``solver.Problem`` on it).  The system then keeps one walk of its terms
    and one freeze plan per focus that :func:`freeze` has seen, and every
    ``solver.Problem`` built on it keeps its solve plans, all built once.
    """

    def __init__(self):
        self.equations = []  # list of (eq_id, [terms])
        self.blocks = {}     # name -> BlockId
        self._eq_shapes = {}
        self._plans = {}     # focus tuple -> _FreezePlan
        self._terms = None   # the one walk of the terms, see _term_index

    def add_equation(self, terms, eq_id: int | None = None) -> int:
        """Append one equation; every term is checked before any of its
        blocks is registered, so a refused equation changes nothing.  Once
        the system has been frozen every equation is refused."""
        if self._terms is not None:
            raise BuildError("the system is frozen; build a new system")
        if eq_id is None:
            eq_id = len(self.equations)
        if any(e == eq_id for e, _ in self.equations):
            raise BuildError(f"equation id {eq_id} already used")
        terms = list(terms)
        if not terms:
            raise BuildError(f"equation {eq_id}: no terms")
        shape = None
        added = {}
        for term in terms:
            if not isinstance(term, _Term):
                raise BuildError(f"equation {eq_id}: {type(term).__name__} "
                                 "is not a constraint term")
            tshape = term.out_shape(eq_id)
            blocks = term.blocks()
            if shape is None:
                shape = tshape
            elif tshape != shape:
                names = ", ".join(b.name for b in blocks) or "constant"
                raise ShapeMismatchError(
                    f"equation {eq_id}: term on [{names}] has shape {tshape}, "
                    f"expected {shape}", eq_id=eq_id,
                    block=(blocks[0].name if blocks else None))
            seen = set()
            for b in blocks:
                if b.name in seen:
                    raise BuildError(
                        f"equation {eq_id}: block {b.name!r} appears twice in one "
                        "term; terms must be affine in each block")
                seen.add(b.name)
                if b.role in (ROLE_Z1, ROLE_Z2) and not isinstance(term, LinearTerm):
                    raise BuildError(
                        f"equation {eq_id}: block {b.name!r} has role {b.role!r} "
                        "and may only appear in linear terms")
                existing = added.get(b.name, self.blocks.get(b.name))
                if existing is not None and existing != b:
                    raise BuildError(f"conflicting definitions of block {b.name!r}")
                added[b.name] = b
            if not (isinstance(term.sign, Real) and term.sign in (1, -1)):
                raise BuildError(f"equation {eq_id}: sign must be +1 or -1, got {term.sign!r}")
        self.blocks.update(added)
        self.equations.append((eq_id, terms))
        self.equations.sort(key=lambda pair: pair[0])
        self._eq_shapes[eq_id] = shape
        return eq_id

    def eq_shape(self, eq_id: int) -> tuple:
        return self._eq_shapes[eq_id]

    @property
    def eq_ids(self):
        return [e for e, _ in self.equations]

    def blocks_with_role(self, *roles):
        return [b for b in self.blocks.values() if b.role in roles]

    @property
    def out_dim(self) -> int:
        return sum(s[0] * s[1] for s in
                   (self._eq_shapes[e] for e in self.eq_ids))

    def constraint_dims(self):
        """(eq_id, shape) pairs in stacking order."""
        return [(e, self._eq_shapes[e]) for e in self.eq_ids]


def _value_of(assignment, block: BlockId):
    try:
        v = assignment[block]
    except KeyError:
        raise KeyError(f"assignment missing block {block.name!r}") from None
    v = np.asarray(v, dtype=float)
    if v.shape != block.shape:
        raise ShapeMismatchError(
            f"value for block {block.name!r} has shape {v.shape}, "
            f"declared {block.shape}", block=block.name)
    return v


def _eval_term(term, values):
    """The unsigned value of one term, for ``evaluate`` and frozen offsets,
    which apply its sign.  It may be an array the term or the caller owns;
    treat it as read-only."""
    return term.unsigned(values)


def _accumulate(total, sign, value):
    """total + sign * value for a sign of +1 or -1, added or subtracted in
    place into ``total``.  When ``total`` is None the sum starts as one
    fresh float array, 0.0 + sign * value, which has the bits of adding the
    term into zeros without writing the zeros first."""
    if total is None:
        return (np.subtract if sign < 0 else np.add)(0.0, value, dtype=float)
    if sign < 0:
        total -= value
    else:
        total += value
    return total


def _add_adjoint(total, piece, w):
    """``_accumulate(total, 1, piece.adjoint(w))``, except that an identity
    piece of scale +1 or -1 adds or subtracts ``w`` itself."""
    if piece.identity in (1.0, -1.0):
        return _accumulate(total, piece.identity, w)
    return _accumulate(total, 1, piece.adjoint(w))


def evaluate(system: MultiaffineSystem, assignment) -> list:
    """Residual arrays of every equation, ascending eq_id."""
    out = []
    for _, terms in system.equations:
        total = None  # add_equation refuses an equation without terms
        for term in terms:
            total = _accumulate(total, term.sign, _eval_term(term, assignment))
        out.append(total)
    return out


def stack_residual(residuals) -> np.ndarray:
    """Row-major flatten within each equation, concatenated ascending eq_id."""
    return np.concatenate([np.ravel(r) for r in residuals]) if residuals else np.zeros(0)


class _Piece:
    """One frozen linear contribution of a focus block to one equation.

    Each subclass is one way a block enters a term, holds what the other
    blocks of the term contribute, and owns ``apply`` and ``adjoint``.  The
    views the block solvers read:

    * ``identity`` -- t when the piece is t * I, else None;
    * ``gram_diag()`` -- diagonal of the piece's gram A^T A (row-major
      flattened) when that matrix is diagonal, else None; the one gram
      view, from which ``operators.uniform_scale`` reads c when the gram
      is c * I;
    * ``factors`` -- (left, right) of a matrix multiply, either may be None;
    * ``fourier`` -- set on the convolution pieces, which are diagonal under
      ``rfft2`` and stay off the dense solve path;
    * ``dense()`` -- the matrix the piece applies to the row-major flattened
      block;
    * ``fixed`` -- the piece reads no other block's value, so ``dense()``
      and the gram view are the same at every point.  A piece that is not
      fixed has a gram view that changes only its value, never whether it
      exists, so a solve plan fixes its path from the view at one point.
    """

    identity = None
    factors = None
    fourier = False
    fixed = False

    def __init__(self, eq_id, block, sign):
        self.eq_id = eq_id
        self.block = block
        self.sign = float(sign)

    def gram_diag(self):
        return None


class _IdentityPiece(_Piece):
    """sign * alpha * Y."""

    fixed = True

    def __init__(self, eq_id, block, sign, alpha):
        super().__init__(eq_id, block, sign)
        self.identity = self.sign * alpha

    def apply(self, y):
        return self.identity * y

    def adjoint(self, w):
        return self.identity * w

    def dense(self):
        return self.identity * np.eye(self.block.dim)


class _OpPiece(_Piece):
    """sign * op(Y) for a LinearOp that is not a scaled identity."""

    fixed = True

    def __init__(self, eq_id, block, sign, op):
        super().__init__(eq_id, block, sign)
        self.op = op

    def apply(self, y):
        return self.sign * self.op.apply(y)

    def adjoint(self, w):
        return self.sign * self.op.adjoint(w)

    def gram_diag(self):
        return self.op.gram_diag()

    def dense(self):
        return self.sign * self.op.to_dense()


class _MatMulPiece(_Piece):
    """sign * left @ Y @ right, with a missing factor left out; ``fixed``
    when both factors are constants of the term."""

    def __init__(self, eq_id, block, sign, left, right, fixed=False):
        super().__init__(eq_id, block, sign)
        self.factors = (left, right)
        self.fixed = fixed

    def apply(self, y):
        left, right = self.factors
        if left is not None:
            y = left @ y
        if right is not None:
            y = y @ right
        return self.sign * y

    def adjoint(self, w):
        left, right = self.factors
        if left is not None:
            w = left.T @ w
        if right is not None:
            w = w @ right.T
        return self.sign * w

    def dense(self):
        # kron(left, right.T), with an identity for a missing factor.
        left, right = self.factors
        rows, cols = self.block.shape
        a = np.eye(rows) if left is None else left
        b = np.eye(cols) if right is None else right.T
        prod = a[:, None, :, None] * b[None, :, None, :]
        return self.sign * prod.reshape(a.shape[0] * b.shape[0], rows * cols)


class _HadamardPiece(_Piece):
    """sign * post(Y * other); post may be None for the identity."""

    def __init__(self, eq_id, block, sign, other, post):
        super().__init__(eq_id, block, sign)
        self.other = other
        self.post = post

    def apply(self, y):
        prod = y * self.other
        return self.sign * (self.post.apply(prod) if self.post is not None else prod)

    def adjoint(self, w):
        back = self.post.adjoint(w) if self.post is not None else w
        return self.sign * (back * self.other)

    def gram_diag(self):
        sq = np.ravel(self.other) ** 2
        if self.post is None:
            return sq
        pg = self.post.gram_diag()
        return None if pg is None else sq * pg

    def dense(self):
        other = np.ravel(self.other)
        if self.post is None:
            return np.diag(self.sign * other)
        return self.sign * (self.post.to_dense() * other)


def _circulant(fixed, out_shape, in_shape):
    """Matrix of y -> circ_conv2(y, fixed) for y of ``in_shape``, whose
    entry ((i, j), (k, l)) is fixed[(i - k) mod n1, (j - l) mod n2]."""
    n1, n2 = out_shape
    p, q = in_shape
    d1 = (np.arange(n1)[:, None] - np.arange(p)[None, :]) % n1
    d2 = (np.arange(n2)[:, None] - np.arange(q)[None, :]) % n2
    return fixed[d1[:, None, :, None], d2[None, :, None, :]].reshape(n1 * n2, p * q)


class _ConvSignalPiece(_Piece):
    """sign * (kernel conv Y) for a signal block Y."""

    fourier = True

    def __init__(self, eq_id, block, sign, kernel):
        super().__init__(eq_id, block, sign)
        self.kernel = kernel

    def apply(self, y):
        return self.sign * circ_conv2(self.kernel, y)

    def adjoint(self, w):
        return self.sign * _conv_adjoint_signal(self.kernel, w)

    def dense(self):
        padded = np.zeros(self.block.shape)
        padded[: self.kernel.shape[0], : self.kernel.shape[1]] = self.kernel
        return self.sign * _circulant(padded, self.block.shape, self.block.shape)


class _ConvKernelPiece(_Piece):
    """sign * (Y conv signal) for a kernel block Y."""

    fourier = True

    def __init__(self, eq_id, block, sign, signal):
        super().__init__(eq_id, block, sign)
        self.signal = signal

    def apply(self, y):
        return self.sign * circ_conv2(y, self.signal)

    def adjoint(self, w):
        return self.sign * _conv_adjoint_kernel(self.signal, _spectrum(w, w.shape),
                                                self.block.shape)

    def dense(self):
        return self.sign * _circulant(self.signal, self.signal.shape, self.block.shape)


class FrozenLinearForm:
    """The system as an affine map of one focus block (or a block group).

    For every admissible value ``Y`` of the focus, the stacked constraint
    residual equals ``apply(Y) - offset``; equivalently the frozen constraint
    reads ``apply(Y) = offset``.  ``apply``/``adjoint`` take and return plain
    arrays for a single focus block and name-keyed dicts for a group.  The
    offset of each equation is summed on first use from the non-focus values
    checked when the form was frozen, then kept; reassigning a block in the
    caller's assignment afterwards does not change the form.
    """

    def __init__(self, plan, pieces, values, single):
        self.focus = plan.focus
        self.pieces = pieces              # list of _Piece
        self._frozen_terms = plan.frozen_terms  # eq_id -> non-focus terms
        self._values = values             # non-focus BlockId -> checked array
        self._offsets = {}                # eq_id -> array, filled on first use
        self.eq_dims = plan.eq_dims       # list of (eq_id, shape)
        self.eq_shapes = plan.eq_shapes   # eq_id -> shape
        self._single = single
        self.by_eq = {}                   # eq_id -> pieces, equations entered
        for p in pieces:
            self.by_eq.setdefault(p.eq_id, []).append(p)

    @property
    def out_dim(self) -> int:
        return sum(s[0] * s[1] for _, s in self.eq_dims)

    @property
    def in_dim(self) -> int:
        return sum(b.dim for b in self.focus)

    @property
    def offset(self) -> np.ndarray:
        """Stacked offset b_U (row-major within equations, ascending eq_id)."""
        return np.concatenate([np.ravel(self.offset_for(e))
                               for e, _ in self.eq_dims])

    def offset_for(self, eq_id: int) -> np.ndarray:
        """Offset of one equation: minus the sum of its non-focus terms."""
        off = self._offsets.get(eq_id)
        if off is None:
            for term in self._frozen_terms[eq_id]:
                off = _accumulate(off, -term.sign, _eval_term(term, self._values))
            if off is None:
                off = np.zeros(self.eq_shapes[eq_id])
            self._offsets[eq_id] = off
        return off

    def conv_target(self, piece, multipliers, rho):
        """``(target, its rfft2)`` for a convolution piece, where target =
        sign * (offset_for(eq) - W / rho) is what the piece's image is
        fitted to in the block's subproblem.

        Inside :func:`spectrum_memo` the pair is kept, and handed out
        read-only, when the memo's sources hold W and every value the
        equation's other terms read; it is keyed by the equation, rho, the
        sign and those arrays, so another focus of the same equation,
        frozen at the same values, reads it instead of building and
        transforming it again.  Every other call builds and transforms
        afresh.
        """
        eq_id = piece.eq_id
        w = multipliers[eq_id]
        reads = {b: self._values[b] for t in self._frozen_terms[eq_id]
                 for b in t.blocks()}
        key = ("target", eq_id, rho, piece.sign, id(w),
               *((b.name, id(v)) for b, v in reads.items()))
        pair = _recall(key)
        if pair is None:
            target = piece.sign * (self.offset_for(eq_id) - w / rho)
            pair = (target, _spectrum(target, target.shape))
            _keep(key, (w, *reads.values()), pair)
        return pair

    def _as_values(self, y):
        """Focus block -> checked value; ``y`` is keyed by name for a group."""
        if self._single:
            y = {self.focus[0].name: y}
        elif not isinstance(y, dict):
            raise ShapeMismatchError(
                f"focus {[b.name for b in self.focus]} takes a dict of values "
                f"by block name, got {type(y).__name__}")
        out = {}
        for b in self.focus:
            if b.name not in y:
                raise ShapeMismatchError(f"no focus value for block {b.name!r}",
                                         block=b.name)
            v = out[b] = np.asarray(y[b.name], dtype=float)
            if v.shape != b.shape:
                raise ShapeMismatchError(
                    f"focus value has shape {v.shape}, block {b.name!r} "
                    f"declared {b.shape}", block=b.name)
        return out

    def apply_eqs(self, y) -> dict:
        """eq_id -> linear part of the residual at focus value(s) y."""
        values = self._as_values(y)
        out = {}
        for eq_id, shape in self.eq_dims:
            total = np.zeros(shape)
            for p in self.by_eq.get(eq_id, ()):
                total += p.apply(values[p.block])
            out[eq_id] = total
        return out

    def apply(self, y) -> np.ndarray:
        """Stacked linear map C_U(Y)."""
        per_eq = self.apply_eqs(y)
        return np.concatenate([np.ravel(per_eq[e]) for e, _ in self.eq_dims])

    def adjoint_eqs(self, w_by_eq: dict):
        """Adjoint of apply on per-equation dual arrays."""
        grads = dict.fromkeys(self.focus)
        for p in self.pieces:
            w = w_by_eq.get(p.eq_id)
            if w is not None:
                grads[p.block] = _add_adjoint(grads[p.block], p,
                                              np.asarray(w, dtype=float))
        grads = _zeros_where_none(grads)
        if self._single:
            return grads[self.focus[0]]
        return {b.name: g for b, g in grads.items()}

    def adjoint(self, w: np.ndarray):
        """Adjoint of the stacked map; w is a stacked vector."""
        return self.adjoint_eqs(self.split_dual(w))

    def split_dual(self, w: np.ndarray) -> dict:
        w = np.ravel(w)
        out, pos = {}, 0
        for eq_id, shape in self.eq_dims:
            n = shape[0] * shape[1]
            out[eq_id] = w[pos:pos + n].reshape(shape)
            pos += n
        if pos != w.size:
            raise ShapeMismatchError(
                f"dual vector has length {w.size}, expected {pos}")
        return out

    def stack_values(self, y) -> np.ndarray:
        values = self._as_values(y)
        return np.concatenate([np.ravel(values[b]) for b in self.focus])

    def unstack_values(self, v: np.ndarray):
        v = np.ravel(v)
        out, pos = {}, 0
        for b in self.focus:
            out[b.name] = v[pos:pos + b.dim].reshape(b.shape)
            pos += b.dim
        if self._single:
            return out[self.focus[0].name]
        return out

    def apply_vec(self, v: np.ndarray) -> np.ndarray:
        return self.apply(self.unstack_values(v))

    def adjoint_vec(self, w: np.ndarray) -> np.ndarray:
        y = self.adjoint(w)
        if self._single:
            return np.ravel(y)
        return np.concatenate([np.ravel(y[b.name]) for b in self.focus])


class _FreezePlan:
    """What freezing one focus needs that does not depend on block values."""

    def __init__(self, focus, focus_set, reads, hits, frozen_terms, eq_dims):
        self.focus = focus                # tuple of focus BlockIds
        self.focus_set = focus_set
        self.reads = reads                # non-focus blocks, first-use order
        self.hits = hits                  # (eq_id, term) with a focus block
        self.frozen_terms = frozen_terms  # eq_id -> non-focus terms
        self.eq_dims = eq_dims            # list of (eq_id, shape)
        self.eq_shapes = dict(eq_dims)


def _term_index(system: MultiaffineSystem):
    """One walk of every term, kept on the system, which it fixes (see
    ``MultiaffineSystem.add_equation``): the (eq_id, term) pairs in equation
    and term order, and per block name the block and the positions of the
    terms holding it, blocks in first-use order."""
    if system._terms is None:
        terms, where = [], {}
        for eq_id, eq_terms in system.equations:
            for term in eq_terms:
                for b in term.blocks():
                    where.setdefault(b.name, (b, []))[1].append(len(terms))
                terms.append((eq_id, term))
        system._terms = (terms, where)
    return system._terms


def _plan_freeze(system: MultiaffineSystem, focus: tuple) -> _FreezePlan:
    """The plan of `focus`, read from :func:`_term_index`, which is kept
    even when the focus is refused."""
    terms, where = _term_index(system)
    if not focus:
        raise BuildError("freeze needs at least one focus block")
    for i, b in enumerate(focus):
        if system.blocks.get(b.name) != b:
            raise BuildError(f"focus block {b.name!r} is not part of the system")
        if b in focus[:i]:
            raise BuildError(f"focus names block {b.name!r} twice")
    focus_set = frozenset(focus)
    names = dict.fromkeys(b.name for b in focus)
    hit = sorted(i for name in names for i in where[name][1])
    for i, j in zip(hit, hit[1:]):
        if i == j:  # the first term, in walk order, holding two focus blocks
            eq_id, term = terms[i]
            coupled = [b.name for b in term.blocks() if b in focus_set]
            raise BuildError(
                f"equation {eq_id}: term couples focus blocks "
                f"{coupled}; the frozen map would not be affine")
    frozen_terms = {eq_id: [] for eq_id, _ in system.equations}
    skip = set(hit)
    for i, (eq_id, term) in enumerate(terms):
        if i not in skip:
            frozen_terms[eq_id].append(term)
    reads = tuple(b for name, (b, _) in where.items() if name not in names)
    return _FreezePlan(focus, focus_set, reads, tuple(terms[i] for i in hit),
                       frozen_terms, system.constraint_dims())


def freeze(system: MultiaffineSystem, focus, assignment) -> FrozenLinearForm:
    """Freeze all blocks except `focus` (a BlockId or a sequence of them).

    The assignment must supply values for every non-focus block that appears
    in the system; values for focus blocks are ignored.  Every non-focus
    value is checked here, for presence and shape, and the form keeps the
    checked arrays: the focus pieces are built from them at once, and each
    equation's offset on its first use.  Terms containing two focus blocks
    are rejected: the frozen map must be affine; so is a focus that names a
    block twice.

    The first call for a focus checks it against the system, reads the
    system's one walk of its terms and keeps the result on the system as
    that focus's plan: the blocks to read, the terms the focus enters and
    each equation's other terms.  A focus that fails those checks is not
    kept, so it fails on every call.  Later calls for the same focus read
    the plan's blocks in the same order and build pieces from its terms.
    The first call, refused or not, fixes the system (see ``add_equation``).
    """
    focus_blocks = (focus,) if isinstance(focus, BlockId) else tuple(focus)
    plan = system._plans.get(focus_blocks)
    if plan is None:
        plan = system._plans[focus_blocks] = _plan_freeze(system, focus_blocks)
    values = {b: _value_of(assignment, b) for b in plan.reads}
    pieces = []
    for eq_id, term in plan.hits:
        pieces.extend(term.pieces(plan.focus_set, values, eq_id))
    return FrozenLinearForm(plan, pieces, values,
                            single=isinstance(focus, BlockId))


def block_adjoints(system: MultiaffineSystem, assignment, w_by_eq) -> dict:
    """BlockId -> C'_b^T W for every block b of the system, in one pass.

    Each term is frozen once, with its own blocks as the focus, instead of
    freezing the system once per block.  A block's sum runs over its pieces
    in equation and term order, as ``freeze(system, b, assignment)
    .adjoint_eqs(w_by_eq)`` sums them, so the two agree bit for bit.
    Equations missing from ``w_by_eq`` contribute nothing.
    """
    values = {b: _value_of(assignment, b) for b in system.blocks.values()}
    grads = dict.fromkeys(system.blocks.values())
    for eq_id, terms in system.equations:
        w = w_by_eq.get(eq_id)
        if w is None:
            continue
        w = np.asarray(w, dtype=float)
        for term in terms:
            for p in term.pieces(frozenset(term.blocks()), values, eq_id):
                grads[p.block] = _add_adjoint(grads[p.block], p, w)
    return _zeros_where_none(grads)


def _zeros_where_none(sums: dict) -> dict:
    """BlockId -> sum, a block that received no term reading zeros."""
    return {b: np.zeros(b.shape) if g is None else g for b, g in sums.items()}


def jacobian_image_basis(system: MultiaffineSystem, assignment, samples: int = 8,
                         seed: int = 0) -> np.ndarray:
    """Sampled image of the nonlinear constraint part.

    Columns are stacked residuals with every "z1"/"z2" block forced to zero
    (their linear contributions vanish there, leaving only the coupled part
    and constants), evaluated at the given assignment and at ``samples``
    Gaussian redraws of the remaining blocks.
    """
    rng = np.random.default_rng(seed)
    z_linear = [b for b in system.blocks.values() if b.role in (ROLE_Z1, ROLE_Z2)]
    others = [b for b in system.blocks.values() if b.role not in (ROLE_Z1, ROLE_Z2)]

    def column(point):
        point = dict(point)
        for b in z_linear:
            point[b] = np.zeros(b.shape)
        return stack_residual(evaluate(system, point))

    cols = [column(assignment)]
    for _ in range(samples):
        cols.append(column({b: rng.standard_normal(b.shape) for b in others}))
    return np.column_stack(cols)
