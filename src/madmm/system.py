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

Block ids are hash-consed (see :class:`BlockId`): equal ids are one
object, so a dict keyed by blocks compares and hashes them by identity, in
C.  Each block value is checked once per public entry, for presence and
shape (:func:`_checked_values`): ``evaluate`` checks every block of the
system first, ``solver.step`` every block of its state at its start, and
``freeze`` the values it keeps.  Past that check, the
term types and the step read the checked values as they are.

The central operation is :func:`freeze`: fixing all blocks except a chosen
focus turns the system into an affine map of the focus, returned as a
:class:`FrozenLinearForm` with matrix-free ``apply``/``adjoint`` and a dense
``offset`` such that the stacked residual equals ``apply(y) - offset``.
Both sides are flat vectors in one layout: a focus vector holds the focus
blocks, each flattened row-major, in focus order, and a residual or dual
vector the equations' arrays, flattened row-major, in ascending eq_id.  The
freeze plan of a focus fixes each block's columns and each equation's rows
once, and every form and solve plan of the focus reads them there.
``freeze`` checks every non-focus value and builds the focus pieces at once;
the offset of an equation is summed from those checked values each time it
is asked for, so a caller that needs only adjoints, or only the equations
its focus enters, evaluates no other term.

Which terms a focus enters, which only feed offsets and which blocks must be
read depend on the focus alone, not on block values.  The first ``freeze`` of
a focus stores that structure on the system as a plan, read from one walk of
the terms that files each term under every block it holds, and later calls
for the same focus reuse it.  The walk also builds the piece of every term
of one block once, as it reads no value; every plan and
:func:`_block_adjoints` share it, so a freeze builds only the pieces that
read values.  The walk fixes the system: ``add_equation``, the only way to
add an equation, refuses every one after it.

A frozen form is a list of pieces, one per occurrence of a focus block in a
term, and each piece is an instance of one small class per way a block can
enter a term: a scaled identity, a linear operator, a left, right or
two-sided matrix multiply, a Hadamard product with an optional post-map, and
the signal or kernel side of a convolution.  A piece class owns its
``apply`` and ``adjoint``, its gram view (the gram's diagonal, when the
gram is diagonal), and ``dense()``, the matrix it applies to the row-major
flattened block; the block solvers in ``prox`` read these views and never
the piece's type.  :func:`_block_adjoints` takes ``C'_b^T W`` for every block
at once by freezing each term with its own blocks as the focus.

Convolutions go through the Fourier domain.  Every zero-padded ``rfft2`` is
taken by :func:`_spectrum` and every inverse by :func:`_irfft2`, which
consumes a spectrum its caller owns: it runs ``ifft`` over the rows in place
and ``irfft`` over the columns, into ``out`` or one fresh array.

Inside :func:`step_memo`, which ``solver.step`` opens while it runs, each
product of the step's values that the step reads more than once is formed
once: the spectrum of an array, ``circ_conv2`` of a kernel and a signal, an
equation's target rho * offset - W (:meth:`FrozenLinearForm.target`, and
``conv_target`` with its spectrum, which the kernel and signal updates
share), and a product term that an offset and ``evaluate`` both read.  All
live in one table under one keying rule: the kind, its parameters and the
identities of the arrays read, which must all be held by the step (a block
value, an old or new multiplier, or a read-only view of one handed to a
custom updater).  Every kept product is read-only.  The step rebinds a
value only through the memo, so nothing read from the old value is handed
out again; such an entry is dropped when the next product is kept, and
every entry when the step returns.  The memo holds a reference to each
array it has keyed, so no id is reused.  Targets and product terms are
consulted only where the ``solver.Problem`` found, when it was built, that
they recur within a sweep and have ``solver._KEEP_MIN`` entries or more,
and are dropped at their last read; they are written into arrays the
``Problem`` owns, outside :class:`_Scratch` and up to two per shape (see
:func:`_output`), so a steady step allocates none for them (nmf3 keeps one
at a time).  The Fourier kinds live in new arrays until the step no longer
holds what they read.  A step whose ``Problem`` keeps no target or term
and has no convolution opens no memo; outside a step every call forms
afresh.  Reuse relies on no held array being written in place while the
step runs.

A step allocates no array that dies inside it.  It passes ``out`` to
``evaluate``, ``FrozenLinearForm.offset_for`` and ``_block_adjoints``, and
the solve plans to the sums they call, with arrays of a :class:`_Scratch`
that its ``solver.Problem`` reuses at every step, and it takes the arrays
it returns from :func:`_output`.  Called without ``out``, each returns
arrays the caller owns.  Reads of structure alone (which pieces a focus
has, what the constraints give where some blocks are zero) use read-only
``np.broadcast_to`` constants as block values, not filled arrays.
"""

from __future__ import annotations

import math
import sys
import threading
import weakref
from contextvars import ContextVar
from dataclasses import dataclass
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import BuildError, ShapeMismatchError, require_finite
from .operators import LinearOp

ROLE_X = "x"
ROLE_Z0 = "z0"
ROLE_Z1 = "z1"
ROLE_Z2 = "z2"
_ROLES = (ROLE_X, ROLE_Z0, ROLE_Z1, ROLE_Z2)


# The live BlockIds by field tuple (see BlockId); only BlockId.__new__
# touches them.
_BLOCK_IDS = weakref.WeakValueDictionary()
_BLOCK_IDS_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False, init=False)
class BlockId:
    """Identity of one variable block.

    ``role`` is "x" for sequentially updated blocks (``index`` gives the
    update position) or one of "z0"/"z1"/"z2" for the jointly updated final
    group; "z1"/"z2" blocks may only appear in plain linear terms.

    Block ids are hash-consed: construction checks the fields (BuildError
    for an unknown role or a shape that is not a positive (rows, cols)
    pair), then returns the one live object with those fields, so equal
    ids are one object, and ``==`` and ``hash`` are the identity's, taken
    in C.  A refused id is never stored.  Copies, deep copies, pickles and
    ``dataclasses.replace`` return that object too.
    """

    name: str
    role: str
    shape: tuple
    index: int = 0

    def __new__(cls, name, role, shape, index=0):
        if role not in _ROLES:
            raise BuildError(f"unknown role {role!r} for block {name!r}")
        if len(shape) != 2 or any(int(s) < 1 for s in shape):
            raise BuildError(f"block {name!r} needs a positive (rows, cols) shape")
        fields = (name, role, (int(shape[0]), int(shape[1])), index)
        with _BLOCK_IDS_LOCK:
            block = _BLOCK_IDS.get(fields)
            if block is None:
                block = object.__new__(cls)
                for attr, value in zip(("name", "role", "shape", "index"), fields):
                    object.__setattr__(block, attr, value)
                _BLOCK_IDS[fields] = block
        return block

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor.
        return BlockId, (self.name, self.role, self.shape, self.index)

    @property
    def dim(self) -> int:
        return self.shape[0] * self.shape[1]


class _Term:
    """Base of the term types, dataclasses with a ``sign`` of +1 or -1.

    A type defines ``out_shape(eq_id)``, its shape once its parts are checked,
    and ``unsigned(values, out=None)``, its value without the sign at
    ``values``, already checked (see :func:`_checked_values`); that
    value may be an array the term or the caller owns (a constant's array, a
    block value), so treat it as read-only.  A type whose value is a product
    writes it into ``out``, an array of its shape that the caller may
    overwrite, when one is given; the others leave ``out`` alone.
    ``product`` tells whether the value is a product of block values that
    ``unsigned`` writes into ``out``, which the step memo may keep.
    ``blocks()`` (in occurrence order) and
    ``pieces(focus, values, eq_id)`` (a frozen piece per occurrence of a
    block in ``focus``) default to none, as for a constant.  ``values`` is
    None for a term of one block: its pieces read no value, are ``fixed``,
    and are built once per system (see :func:`_term_index`)."""

    product = False

    def blocks(self) -> tuple:
        return ()

    def pieces(self, focus, values, eq_id) -> list:
        return []


def _product(factors, read, out=None):
    """Product of chain factors, None if there are none; blocks go through
    ``read``, and the last multiply writes into ``out`` when it is given."""
    prod = None
    for i, f in enumerate(factors, 1):
        v = read(f) if isinstance(f, BlockId) else np.asarray(f, dtype=float)
        prod = v if prod is None else np.matmul(
            prod, v, out=out if i == len(factors) else None)
    return prod


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

    @property
    def product(self) -> bool:
        return len(self.factors) > 1 and bool(self.blocks())

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

    def unsigned(self, values, out=None):
        return _product(self.factors, values.__getitem__, out)

    def pieces(self, focus, values, eq_id) -> list:
        read = None if values is None else values.__getitem__
        out = []
        for idx, f in enumerate(self.factors):
            if isinstance(f, BlockId) and f in focus:
                left = _product(self.factors[:idx], read)
                right = _product(self.factors[idx + 1:], read)
                if left is None and right is None:
                    out.append(_IdentityPiece(eq_id, f, self.sign, 1.0))
                else:
                    out.append(_MatMulPiece(eq_id, f, self.sign, left, right,
                                            fixed=values is None))
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

    @property
    def product(self) -> bool:
        return self.post is None

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

    def unsigned(self, values, out=None):
        # With a post-map the product has the blocks' shape, not out's.
        prod = np.multiply(values[self.left], values[self.right],
                           out=out if self.post is None else None)
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

    def unsigned(self, values, out=None):
        return circ_conv2(values[self.kernel], values[self.signal])

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

    def unsigned(self, values, out=None):
        value = values[self.block]
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

    def unsigned(self, values, out=None):
        return self.value


# The memo that step_memo opens, or None.
_MEMO = ContextVar("madmm_memo", default=None)


class _StepMemo:
    """The products of one step's values, each formed once (see
    :func:`step_memo`).

    ``held`` maps the id of every array the step holds, and of every
    read-only view of one that :func:`_read_only` made, to (that object,
    which it keeps alive so that no other object takes its id, the array);
    it is read from ``sources`` when the memo is made, and then kept by
    ``rebind``.  ``table`` maps a key (see
    :meth:`product`) to [the held arrays read, the product, the reads
    left or None].  ``kept`` holds the arrays the products with a count of
    reads are written into, by shape, and ``terms`` maps the id of each
    product term to keep to (its shape, its reads)."""

    def __init__(self, sources, kept, terms):
        self.kept = kept
        self.terms = terms
        self.held = {id(v): (v, v) for d in sources for v in d.values()}
        self.table = {}

    def __enter__(self) -> "_StepMemo":
        self._token = _MEMO.set(self)
        return self

    def __exit__(self, *exc) -> None:
        _MEMO.reset(self._token)
        self.table.clear()

    def rebind(self, source, key, value) -> None:
        """``source[key] = value`` for one of the sources: the old value is
        no longer held, so no product read from it is handed out again."""
        old = source.get(key)
        if old is not None:
            self.held.pop(id(old), None)
        self.held[id(value)] = (value, value)
        source[key] = value

    def alias(self, view, array) -> None:
        """Hold ``view`` as ``array`` when ``array`` is held."""
        held = self.held
        if id(array) in held:
            held[id(view)] = (view, held[id(array)][1])

    def product(self, key, arrays, build, reads=None, out=None, shape=None):
        """``build(into)``, kept under ``key`` and the ids of the held
        arrays ``arrays`` are, or stand for, when every one is held; else
        ``build(out)``.  A product whose ``reads`` are given is dropped at
        its last read, and ``into`` is then an array of ``shape`` from
        ``kept`` (see :func:`_output`), free again once that reader lets go
        of it; any other (the Fourier kinds, kept while their arrays are
        held) is built with ``into`` None, into new arrays.  When a product
        is kept, the entries read from arrays no longer held are
        dropped."""
        held = self.held
        bases = []
        for a in arrays:
            entry = held.get(id(a))
            if entry is None:
                return build(out)
            bases.append(entry[1])
        key = (*key, *map(id, bases))
        hit = self.table.get(key)
        if hit is not None:
            if hit[2] is not None:
                hit[2] -= 1
                if not hit[2]:
                    del self.table[key]
            return hit[1]
        value = build(None if reads is None
                      else _output(self.kept.setdefault(shape, []), shape).view())
        for a in value if isinstance(value, tuple) else (value,):
            a.flags.writeable = False
        for stale in [k for k, (read, *_) in self.table.items()
                      if not all(id(b) in held for b in read)]:
            del self.table[stale]
        self.table[key] = [bases, value, None if reads is None else reads - 1]
        return value


def step_memo(*sources, kept=None, terms=None) -> "_StepMemo":
    """Form each product of the arrays held in ``sources`` once while the
    returned memo is open as a context manager (``with step_memo(...) as
    memo``).

    ``sources`` are dicts whose values are arrays: a step's block values
    and its old and new multipliers.  A product is kept under its kind, its
    parameters and the identities of the held arrays it reads, when every
    one of those is held, and handed out read-only; anything else is formed
    afresh at every call.  The kinds: the spectrum of an array
    (:func:`_spectrum`), ``circ_conv2`` of two, an equation's target
    (:meth:`FrozenLinearForm.target` and ``conv_target``), and a product
    term whose id ``terms`` maps to its shape and reads.  A value rebound
    through the memo's ``rebind`` is no longer held, so what was read from
    it is never handed out again; such entries are dropped when the next
    product is kept, and all when the memo closes.  Targets and terms are
    written into arrays of ``kept``, a dict a ``solver.Problem`` owns and
    passes at every step, so a steady step allocates none for them; without
    it, the memo's own.  Reuse relies on no held array being written in
    place while the memo is open.
    """
    return _StepMemo(sources, {} if kept is None else kept, terms or {})


def _kept(key, arrays, build, reads=None, out=None, shape=None):
    """:meth:`_StepMemo.product` in the open memo; outside one,
    ``build(out)``."""
    memo = _MEMO.get()
    if memo is None:
        return build(out)
    return memo.product(key, arrays, build, reads, out, shape)


def _read_only(source: dict) -> dict:
    """A new dict of read-only views of ``source``'s arrays, each held by
    the open memo as its array."""
    memo = _MEMO.get()
    views = {}
    for key, value in source.items():
        view = np.asarray(value).view()
        view.flags.writeable = False
        if memo is not None:
            memo.alias(view, value)
        views[key] = view
    return views


def _spectrum(a: np.ndarray, shape: tuple) -> np.ndarray:
    """``rfft2`` of ``a`` zero-padded to ``shape``, origin at index (0, 0);
    kept by the open memo (see :func:`step_memo`)."""

    def build(_):
        if a.shape == shape:
            padded = a
        else:
            padded = np.zeros(shape)
            padded[: a.shape[0], : a.shape[1]] = a
        return np.fft.rfft2(padded,
                            out=np.empty((shape[0], shape[1] // 2 + 1), complex))

    return _kept(("spectrum", shape), [a], build)


def _irfft2(spec: np.ndarray, shape: tuple, out=None) -> np.ndarray:
    """``irfft2(spec, s=shape)``, overwriting ``spec``, which the caller owns.

    ``ifft`` runs over the rows in place, then ``irfft`` over the columns
    into ``out``, or into one fresh array when ``out`` is None; the steps
    are those of ``irfft2``, so the result is the same to the bit.
    """
    np.fft.ifft(spec, shape[0], axis=0, out=spec)
    return np.fft.irfft(spec, shape[1], axis=1, out=out)


def circ_conv2(kernel: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Circular 2-D convolution of a (possibly smaller) kernel with a signal;
    kept by the open memo (see :func:`step_memo`)."""
    kernel = np.asarray(kernel, dtype=float)
    signal = np.asarray(signal, dtype=float)
    shape = signal.shape
    return _kept(("conv",), [kernel, signal],
                 lambda _: _irfft2(_spectrum(kernel, shape) * _spectrum(signal, shape),
                                   shape))


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

    An equation's id is its position in the stack, 0, 1, ... in the order
    added.  Equations are added only through :meth:`add_equation`, and only
    until the system is first frozen (by :func:`freeze` or
    :func:`_block_adjoints`, or by building a ``solver.Problem`` on it).  The
    system then keeps one walk of its terms and one freeze plan per focus
    that :func:`freeze` has seen, and every
    ``solver.Problem`` built on it keeps its solve plans, all built once.
    """

    def __init__(self):
        self.equations = []  # list of (eq_id, [terms])
        self.blocks = {}     # name -> BlockId
        self._eq_shapes = {}
        self._plans = {}     # focus tuple -> _FreezePlan
        self._terms = None   # the one walk of the terms, see _term_index

    def add_equation(self, terms) -> int:
        """Append one equation and return its id, its position in the
        stack; every term is checked before any of its blocks is
        registered, so a refused equation changes nothing.  Once the system
        has been frozen every equation is refused."""
        if self._terms is not None:
            raise BuildError("the system is frozen; build a new system")
        eq_id = len(self.equations)
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
        self._eq_shapes[eq_id] = shape
        return eq_id

    def eq_shape(self, eq_id: int) -> tuple:
        return self._eq_shapes[eq_id]

    @property
    def eq_ids(self):
        return [e for e, _ in self.equations]

    def blocks_with_role(self, *roles):
        return [b for b in self.blocks.values() if b.role in roles]

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


def _checked_values(system: MultiaffineSystem, assignment) -> dict:
    """BlockId -> the value of every block of the system, each checked once
    and read as a float array: KeyError names a missing block, and
    ShapeMismatchError one whose value has another shape.  The public
    entries check here, once, and read only the dict it returns."""
    return {b: _value_of(assignment, b) for b in system.blocks.values()}


def _eval_term(term, values, out=None):
    """The unsigned value of one term, for ``evaluate`` and frozen offsets,
    which apply its sign.  It may be an array the term or the caller owns;
    treat it as read-only.  A product is written into ``out`` when it is
    given (see ``_Term``)."""
    return term.unsigned(values, out)


def _accumulate(total, sign, value, out=None):
    """total + sign * value for a sign of +1 or -1, added or subtracted in
    place into ``total``.  When ``total`` is None the sum starts as 0.0 +
    sign * value, which has the bits of adding the term into zeros without
    writing the zeros first, written into ``out`` (which may be ``value``)
    or, without it, into one fresh float array."""
    if total is None:
        return (np.subtract if sign < 0 else np.add)(0.0, value, out=out, dtype=float)
    if sign < 0:
        total -= value
    else:
        total += value
    return total


def _add_adjoint(total, piece, w, out=None):
    """``_accumulate(total, 1, piece.adjoint(w), out)``, except that an
    identity piece of scale +1 or -1 adds or subtracts ``w`` itself."""
    if piece.identity in (1.0, -1.0):
        return _accumulate(total, piece.identity, w, out)
    return _accumulate(total, 1, piece.adjoint(w), out)


def _sum_terms(terms, values, flip, out):
    """flip times the signed sum of ``terms`` at ``values``, None for no
    terms.  ``out`` is None, or a pair (sum, term) of arrays of the sum's
    shape that the call overwrites: the sum is written into the first, and
    each product after the first (see ``_Term``) into the second, but for
    the products of the terms the open step memo keeps, which are its."""
    total, scratch = (None, None) if out is None else out
    memo = _MEMO.get()
    kept = None if memo is None else memo.terms
    acc = None
    for term in terms:
        into = total if acc is None else scratch
        if kept and id(term) in kept:
            shape, reads = kept[id(term)]
            value = memo.product(
                ("term", id(term)), [values[b] for b in term.blocks()],
                lambda out: _eval_term(term, values, out), reads, into, shape)
        else:
            value = _eval_term(term, values, into)
        acc = _accumulate(acc, flip * term.sign, value, total)
    return acc


def evaluate(system: MultiaffineSystem, assignment, out=None) -> list:
    """Residual arrays of every equation, ascending eq_id.

    ``out``, for a caller that reuses its arrays, gives each equation a
    (sum, term) pair of arrays of its shape, which the call overwrites; the
    residuals returned are then the sums (see ``_sum_terms``).  Each
    block's value is checked once, first (see :func:`_checked_values`)."""
    return _evaluate(system, _checked_values(system, assignment), out)


def _evaluate(system: MultiaffineSystem, values, out=None) -> list:
    """:func:`evaluate` at ``values`` that the caller has checked, as
    ``_checked_values`` returns them (a step's own block values)."""
    # add_equation refuses an equation without terms, so no sum is None.
    return [_sum_terms(terms, values, 1, None if out is None else out[i])
            for i, (_, terms) in enumerate(system.equations)]


def _constant_part(system: MultiaffineSystem) -> list:
    """C(0), the residual of every equation where every block is zero,
    ascending eq_id: the signed sum of its terms that hold no block (a
    ``Constant``, or a ``MatChain`` of constant factors, read with no
    values), zeros where it has none.  Every other term is linear in each
    of its blocks, so it vanishes there.  A sum starts as 0.0 + value (see
    ``_accumulate``) and so never holds a negative zero; adding a vanished
    term then changes no bit, and the result has the bits of ``evaluate``
    at zeros."""
    out = []
    for eq_id, terms in system.equations:
        total = _sum_terms([t for t in terms if not t.blocks()], {}, 1, None)
        out.append(_zeros(system.eq_shape(eq_id)) if total is None else total)
    return out


def stack_residual(residuals) -> np.ndarray:
    """Row-major flatten within each equation, concatenated ascending eq_id."""
    return (np.concatenate([np.ravel(r) for r in residuals])
            if residuals else np.zeros(0))


class _Scratch:
    """Float arrays that a ``solver.Problem`` and its solve plans reuse at
    every step, so that a step's temporaries cost no allocation.

    Each :meth:`take` is one phase of a step: the arrays one call returns
    are distinct, but the k-th array of n entries that one call returns is
    the k-th of every call, so the arrays of two calls must never be in use
    at the same time.  Nothing a step returns may be such an array."""

    def __init__(self):
        self._flat = {}  # entry count -> flat arrays, in first-take order

    def take(self, shapes) -> list:
        """One array of each shape in ``shapes``, in order; None for None."""
        seen, out = {}, []
        for shape in shapes:
            if shape is None:
                out.append(None)
                continue
            n = math.prod(shape)
            k = seen[n] = seen.get(n, -1) + 1
            flat = self._flat.setdefault(n, [])
            if k == len(flat):
                flat.append(np.empty(n))
            out.append(flat[k].reshape(shape))
        return out


def _first_count(arrays) -> int:
    for a in arrays:
        return sys.getrefcount(a)


# The count _output reads, in the same kind of loop, for an array that only
# its list holds; read here, so that it does not hang on how the
# interpreter counts its own references.
_ALONE = _first_count([np.empty(0)])


def _output(kept: list, shape) -> np.ndarray:
    """A float array of ``shape`` for a value that a step returns or keeps:
    the first of ``kept`` that nothing but ``kept`` holds, else a new one,
    which ``kept`` takes while it holds fewer than two.

    Whatever holds an array, a state, a view of it or a memoryview, keeps it
    from being handed out again, so a kept state never changes; once a
    caller drops an old state, a later step writes into its arrays instead
    of allocating, and glibc has no freed array to hand back to the kernel
    and fault in again."""
    for a in kept:
        if sys.getrefcount(a) == _ALONE:
            return a
    a = np.empty(shape)
    if len(kept) < 2:
        kept.append(a)
    return a


class _Piece:
    """One frozen linear contribution of a focus block to one equation.

    Each subclass is one way a block enters a term, holds what the other
    blocks of the term contribute, and owns ``apply`` and ``adjoint``.  The
    views the block solvers read:

    * ``identity`` -- t when the piece is t * I, else None;
    * ``gram_diag()`` -- diagonal of the piece's gram A^T A (row-major
      flattened) when that matrix is diagonal, else None; the one gram
      view, from which ``prox._uniform_or_diag`` reads c when the gram is
      c * I;
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

    def __init__(self, eq_id, block, sign, left, right, fixed):
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

    For every focus vector ``y`` (in the layout of ``plan``, the focus's
    freeze plan), the stacked constraint residual equals ``apply(y) -
    offset``; equivalently the frozen constraint reads ``apply(y) =
    offset``.  ``apply``, ``adjoint`` and ``split_dual`` take any array of
    their vector's length, read row-major, so a single block's value is its
    own focus vector, and refuse another length with ShapeMismatchError
    naming the focus blocks.  The offset of each equation is summed at each
    call from the non-focus values checked when the form was frozen;
    reassigning a block in the caller's assignment afterwards does not
    change the form.
    """

    def __init__(self, plan, pieces, values):
        self.plan = plan          # the focus's _FreezePlan
        self.pieces = pieces      # list of _Piece
        self._values = values     # non-focus BlockId -> checked array

    @property
    def focus(self) -> tuple:
        return self.plan.focus

    @property
    def in_dim(self) -> int:
        return self.plan.in_dim

    @property
    def out_dim(self) -> int:
        return self.plan.out_dim

    @property
    def offset(self) -> np.ndarray:
        """Stacked offset b_U (row-major within equations, ascending eq_id)."""
        return np.concatenate([np.ravel(self.offset_for(e)) for e in self.plan.rows])

    def offset_for(self, eq_id: int, out=None) -> np.ndarray:
        """Offset of one equation: minus the sum of its non-focus terms.

        ``out``, for a caller that reuses its arrays, is a (sum, term) pair
        as for ``evaluate``, and the offset is written into its sum;
        without it the offset is a fresh array.  Either way the caller may
        overwrite it."""
        off = _sum_terms(self.plan.frozen_terms[eq_id], self._values, -1, out)
        if off is None:
            off = _zeros(self.plan.eq_shapes[eq_id], None if out is None else out[0])
        return off

    def target(self, eq_id, multipliers, rho, reads, out=None):
        """rho * offset_for(eq_id) - W, W the equation's multiplier: what
        the image of the focus is fitted to in its subproblem, scaled by
        rho, for an equation whose target ``reads`` foci read at the same
        values.  ``out`` is a (sum, term) pair for the offset, as for
        ``offset_for``.

        Inside :func:`step_memo` the target is kept, handed out read-only
        and dropped at its last read, when the memo holds W and every value
        the equation's other terms read: another focus of the equation,
        frozen at the same values, reads it instead of building it again
        (the other terms are the same, as different ones would read
        different blocks).  Every other call builds it into ``out``'s sum
        array, or a new one without ``out``.
        """

        def build(into):
            target = np.multiply(self.offset_for(eq_id, out=out), rho, out=into)
            target -= multipliers[eq_id]
            return target

        return _kept(self._target_key(eq_id, rho, None),
                     [multipliers[eq_id], *self._offset_values(eq_id)], build, reads,
                     None if out is None else out[0], self.plan.eq_shapes[eq_id])

    def conv_target(self, piece, multipliers, rho):
        """``(target, its rfft2)`` for a convolution piece, where target =
        sign * (offset_for(eq) - W / rho) is what the piece's image is
        fitted to in the block's subproblem.  Kept, keyed by the sign too,
        as :meth:`target` keeps its target, so the kernel and the signal
        focus of one equation build and transform it once."""
        eq_id = piece.eq_id
        w = multipliers[eq_id]

        def build(_):
            target = piece.sign * (self.offset_for(eq_id) - w / rho)
            return target, _spectrum(target, target.shape)

        return _kept(self._target_key(eq_id, rho, piece.sign),
                     [w, *self._offset_values(eq_id)], build)

    def _target_key(self, eq_id, rho, sign) -> tuple:
        """A target's key in the memo: the blocks its terms read name those
        terms, whatever arrays the blocks hold."""
        return ("target", eq_id, rho, sign, self.plan.eq_reads[eq_id])

    def _offset_values(self, eq_id) -> list:
        """The values the equation's terms outside the focus read."""
        return [self._values[b] for b in self.plan.eq_reads[eq_id]]

    def _vector(self, v, n: int, what: str) -> np.ndarray:
        """``v`` read row-major as a flat float vector of length ``n``."""
        v = np.ravel(np.asarray(v, dtype=float))
        if v.size != n:
            raise ShapeMismatchError(
                f"{what} for focus {[b.name for b in self.plan.focus]} has "
                f"length {v.size}, expected {n}")
        return v

    def apply(self, y) -> np.ndarray:
        """The stacked linear map C_U(y) at the focus vector ``y``."""
        plan = self.plan
        y = self._vector(y, plan.in_dim, "focus vector")
        values = [y[sl].reshape(b.shape) for sl, b in zip(plan.cols, plan.focus)]
        out = np.zeros(plan.out_dim)
        for p in self.pieces:
            out[plan.rows[p.eq_id]] += np.ravel(p.apply(values[plan.pos[p.block.name]]))
        return out

    def adjoint(self, w) -> np.ndarray:
        """C_U^T w for the stacked dual vector ``w``, as a focus vector.  Each
        block's part is summed over its pieces in order, starting from the
        first (see ``_accumulate``), as :func:`_block_adjoints` sums it."""
        plan = self.plan
        duals = self.split_dual(w)
        out = np.empty(plan.in_dim)
        parts = [out[sl].reshape(b.shape) for sl, b in zip(plan.cols, plan.focus)]
        sums = [None] * len(parts)
        for p in self.pieces:
            i = plan.pos[p.block.name]
            sums[i] = _add_adjoint(sums[i], p, duals[p.eq_id], parts[i])
        for total, part in zip(sums, parts):
            if total is None:
                part.fill(0.0)
        return out

    def split_dual(self, w) -> dict:
        """eq_id -> that equation's part of the stacked dual vector ``w``, a
        view of it in the equation's shape."""
        plan = self.plan
        w = self._vector(w, plan.out_dim, "dual vector")
        return {e: w[sl].reshape(plan.eq_shapes[e]) for e, sl in plan.rows.items()}


class _FreezePlan:
    """What freezing one focus needs that does not depend on block values,
    and the one flat layout of its forms.

    Each term the focus enters gives the form one piece, in walk order.
    ``pieces`` holds the shared piece of each such term of one block (see
    :func:`_term_index`), and None where ``varying`` names the term, by
    (index, eq_id, term), whose piece each freeze builds from values.

    The layout: focus block ``focus[i]`` (``pos`` maps its name to i) sits
    at columns ``cols[i]`` of a focus vector of length ``in_dim``, and
    equation e at rows ``rows[e]`` of a residual or dual vector of length
    ``out_dim``.  A dense map stacks only the equations the focus enters:
    ``entered[e]`` are their rows there, ``entered_dim`` their count."""

    def __init__(self, focus, focus_set, reads, hits, pieces, frozen_terms,
                 eq_reads, eq_dims):
        # hits: (eq_id, term) of each term the focus enters, in walk order
        self.focus = focus                # tuple of focus BlockIds
        self.focus_set = focus_set
        self.reads = reads                # non-focus blocks, first-use order
        self.pieces = pieces              # per hit, its shared piece or None
        self.varying = tuple((k, eq_id, term) for k, ((eq_id, term), p)
                             in enumerate(zip(hits, pieces)) if p is None)
        self.eq_pieces = {}               # eq_id -> piece indices, in order
        for k, (eq_id, _) in enumerate(hits):
            self.eq_pieces.setdefault(eq_id, []).append(k)
        self.frozen_terms = frozen_terms  # eq_id -> non-focus terms
        self.eq_reads = eq_reads          # eq_id -> their blocks, first-use order
        self.eq_shapes = dict(eq_dims)    # eq_id -> shape, ascending eq_id
        self.pos = {b.name: i for i, b in enumerate(focus)}
        self.cols, self.in_dim = _consecutive(b.dim for b in focus)
        size = {e: s[0] * s[1] for e, s in eq_dims}
        rows, self.out_dim = _consecutive(size.values())
        self.rows = dict(zip(size, rows))
        entered, self.entered_dim = _consecutive(size[e] for e in self.eq_pieces)
        self.entered = dict(zip(self.eq_pieces, entered))


def _consecutive(sizes):
    """(consecutive slices of ``sizes``, from 0, and their total)."""
    out, top = [], 0
    for n in sizes:
        out.append(slice(top, top + n))
        top += n
    return out, top


class _Walk(NamedTuple):
    terms: list     # (eq_id, term) in equation and term order
    blocks: list    # per position, the term's blocks()
    where: dict     # block name -> (block, positions of the terms holding it)
    shared: list    # per position, the piece of a term of one block, or None
    adjoints: list  # (eq_id, term, its block set, its shared piece or None)


def _term_index(system: MultiaffineSystem) -> _Walk:
    """One walk of every term, kept on the system, which it fixes (see
    ``MultiaffineSystem.add_equation``); ``where`` lists blocks in first-use
    order, and ``adjoints`` the terms holding a block, in walk order.  The
    piece of a term of one block reads no value, so it is built here once;
    freeze plans and :func:`_block_adjoints` share it and never write it."""
    if system._terms is None:
        terms, term_blocks, where, shared, adjoints = [], [], {}, [], []
        for eq_id, eq_terms in system.equations:
            for term in eq_terms:
                blocks = term.blocks()
                for b in blocks:
                    where.setdefault(b.name, (b, []))[1].append(len(terms))
                piece = None
                if len(blocks) == 1:
                    (piece,) = term.pieces(blocks, None, eq_id)
                if blocks:
                    adjoints.append((eq_id, term, frozenset(blocks), piece))
                terms.append((eq_id, term))
                term_blocks.append(blocks)
                shared.append(piece)
        system._terms = _Walk(terms, term_blocks, where, shared, adjoints)
    return system._terms


def _unfreeze(system: MultiaffineSystem) -> None:
    """Drop the walk and every freeze plan, so the system takes equations
    again; for a caller that fixed an open system and then failed."""
    system._terms, system._plans = None, {}


def _plan_freeze(system: MultiaffineSystem, focus: tuple) -> _FreezePlan:
    """The plan of `focus`, read from :func:`_term_index`, which is kept
    even when the focus is refused."""
    terms, term_blocks, where, shared, _ = _term_index(system)
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
    eq_reads = {eq_id: {} for eq_id in frozen_terms}
    skip = set(hit)
    for i, (eq_id, term) in enumerate(terms):
        if i not in skip:
            frozen_terms[eq_id].append(term)
            eq_reads[eq_id].update(dict.fromkeys(term_blocks[i]))
    reads = tuple(b for name, (b, _) in where.items() if name not in names)
    return _FreezePlan(focus, focus_set, reads, tuple(terms[i] for i in hit),
                       [shared[i] for i in hit], frozen_terms,
                       {e: tuple(bs) for e, bs in eq_reads.items()},
                       system.constraint_dims())


def freeze(system: MultiaffineSystem, focus, assignment) -> FrozenLinearForm:
    """Freeze all blocks except `focus` (a BlockId or a sequence of them).

    The assignment must supply values for every non-focus block that appears
    in the system; values for focus blocks are ignored.  Every non-focus
    value is checked here, for presence and shape, and the form keeps the
    checked arrays: the focus pieces that read values are built from them at
    once, and each equation's offset at each call of ``offset_for``.  Terms
    containing two focus blocks are rejected: the frozen map must be affine;
    so is a focus that names a block twice.

    The first call for a focus checks it against the system, reads the
    system's one walk of its terms and keeps the result on the system as
    that focus's plan: the blocks to read, the terms the focus enters with
    the shared pieces of those that read no value, and each equation's
    other terms.  A focus that fails those checks is not kept, so it fails
    on every call.  Later calls for the same focus read the plan's blocks in
    the same order and build only the pieces that read values; every form
    of a focus shares its ``fixed`` pieces.  The first call, refused or not,
    fixes the system (see ``add_equation``).
    """
    focus_blocks = (focus,) if isinstance(focus, BlockId) else tuple(focus)
    plan = system._plans.get(focus_blocks)
    if plan is None:
        plan = system._plans[focus_blocks] = _plan_freeze(system, focus_blocks)
    values = {b: _value_of(assignment, b) for b in plan.reads}
    pieces = list(plan.pieces)
    for k, eq_id, term in plan.varying:
        (pieces[k],) = term.pieces(plan.focus_set, values, eq_id)
    return FrozenLinearForm(plan, pieces, values)


def _block_adjoints(system: MultiaffineSystem, values, w_by_eq, out=None) -> dict:
    """BlockId -> C'_b^T W for every block b of the system, in one pass, at
    ``values`` that the caller has checked, as :func:`_checked_values`
    returns them (a step's own block values).

    Each term is frozen once, with its own blocks as the focus, instead of
    freezing the system once per block; a term of one block gives its
    shared piece (see :func:`_term_index`), and only the terms that read
    values build pieces.  A block's sum runs over its pieces in equation
    and term order, as ``freeze(system, b, values).adjoint(w)`` sums them
    for ``w`` the stacked ``w_by_eq``, so the two agree bit for bit.
    Equations missing from ``w_by_eq`` contribute nothing.  Like
    ``freeze``, it fixes the system.
    ``out``, for a caller that reuses its arrays, maps each block's name to
    an array of its shape that the call overwrites with the block's sum.
    """
    grads = dict.fromkeys(system.blocks.values())
    for eq_id, term, blocks, piece in _term_index(system).adjoints:
        w = w_by_eq.get(eq_id)
        if w is None:
            continue
        w = np.asarray(w, dtype=float)
        for p in (piece,) if piece is not None else term.pieces(blocks, values, eq_id):
            grads[p.block] = _add_adjoint(grads[p.block], p, w,
                                          None if out is None else out[p.block.name])
    # A block that received no term reads zeros.
    return {b: _zeros(b.shape, None if out is None else out[b.name])
            if g is None else g for b, g in grads.items()}


def _zeros(shape, out=None) -> np.ndarray:
    """Zeros of ``shape``, written into ``out`` when it is given."""
    if out is None:
        return np.zeros(shape)
    out.fill(0.0)
    return out


def jacobian_image_basis(system: MultiaffineSystem, assignment, samples: int = 8,
                         seed: int = 0) -> np.ndarray:
    """Sampled image of the nonlinear constraint part.

    Columns are stacked residuals with every "z1"/"z2" block forced to zero
    (their linear contributions vanish there, leaving only the coupled part
    and constants), evaluated at the given assignment and at ``samples``
    Gaussian redraws of the remaining blocks.  The zeros are read-only
    views of one scalar.  A negative ``samples`` raises ValueError.
    """
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples!r}")
    rng = np.random.default_rng(seed)
    z_linear = [b for b in system.blocks.values() if b.role in (ROLE_Z1, ROLE_Z2)]
    others = [b for b in system.blocks.values() if b.role not in (ROLE_Z1, ROLE_Z2)]
    zeros = {b: np.broadcast_to(0.0, b.shape) for b in z_linear}

    def column(point):
        return stack_residual(evaluate(system, {**point, **zeros}))

    cols = [column(assignment)]
    for _ in range(samples):
        cols.append(column({b: rng.standard_normal(b.shape) for b in others}))
    return np.column_stack(cols)
