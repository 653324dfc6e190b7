"""Objective terms, proximal maps, and the block subproblem solvers.

Objective terms attach to individual variable blocks.  Smooth terms expose a
gradient; the nonsmooth ones (elementwise L1 and the three indicators) expose
an exact proximal map instead, and ``stat_residual(x, g)``: the distance of a
gradient ``g`` at ``x`` to the term's negative subdifferential there.

Every block subproblem is one solve plan, ``_SolvePlan``, read once from a
frozen form of the focus: the focus's column slices, read from its freeze
plan (every vector here is in the form's one flat layout), the quadratic
extras, the constant right-hand side terms, taken once, the nonsmooth
term, and the outcome of the one curvature rule, run once per plan: N's
diagonal per block, a float kappa where the block's N is kappa * I, but
for the matrix-chain pieces the rule leaves out and records.  From that
one outcome the plan fixes its one solve path when it is built.  A
``Problem`` builds one plan per update unit when it is built;
``quad_block_solve`` and ``prox_block_step`` build a one-off plan and run
it on the same form, after refusing a dual that misses or misfits an
equation the focus enters (ShapeMismatchError naming it) and a rho that is
not positive and finite (ValueError), as ``solver.step`` refuses a state;
the plan's own sums check nothing, so a step pays for no second check.
Only a Hadamard piece's gram varies with values, and then only in value,
never in whether its view exists: the plan reads it at each call, and a
curvature that is not positive there raises SubproblemError.  The paths
are an elementwise diagonal solve, a two-sided eigendecomposition solve
for one matrix chain (the rest of N scalar), a dense least-squares solve,
conjugate gradients on the normal equations, and for one block with a
nonsmooth term the diagonal solve's divide by kappa followed by the
term's prox with step 1 / kappa.  Each asks the frozen pieces for a view
(identity scale, gram diagonal, matrix factors, dense block), never for
their type.  The dense path assembles N from the pieces' dense blocks, the
plan keeping those of pieces that read no other block's value, and takes
forms without convolution pieces, of at most ``_DENSE_LIMIT`` (1,024)
columns, whose stacked map over the equations the focus enters has at
most ``_DENSE_LIMIT ** 2`` entries; larger forms go to conjugate
gradients.  The diagnostics' least-squares distance reads the same dense
map within those bounds.  ``conjugate_gradients`` is the one CG loop: the
solver and, above the bounds, that distance both run it.  A plan sums its
right-hand side, and the offsets and targets it is built from, into
arrays it takes once from the scratch its ``Problem`` shares among its
plans (see ``system._Scratch``).
"""

from __future__ import annotations

import numpy as np

from .errors import BuildError, ShapeMismatchError, SubproblemError, require_finite
from .operators import LinearOp
from .system import FrozenLinearForm, _Scratch, _accumulate, _add_adjoint

_FEAS_TOL = 1e-8
_DENSE_LIMIT = 1024
# Why a forced solve method of quad_block_solve does not apply.
_DECLINED = {"diag": "normal operator is not diagonal",
             "sylvester": "subproblem does not match the matrix-chain pattern",
             "dense": "block too large or not densifiable"}


def soft_threshold(v, tau, out=None):
    """Elementwise shrinkage, the prox of tau * |.|_1:
    copysign(max(|v| - tau, 0), v), into ``out`` when given (which may be
    any array but ``v``)."""
    v = np.asarray(v, dtype=float)
    if out is None:
        out = np.empty_like(v)
    np.abs(v, out=out)
    out -= tau
    np.maximum(out, 0.0, out=out)
    return np.copysign(out, v, out=out)


def project_nonneg(v):
    return np.maximum(np.asarray(v, dtype=float), 0.0)


def project_box(v, lo, hi):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("box is empty: lo > hi somewhere")
    return np.clip(np.asarray(v, dtype=float), lo, hi)


def project_unit_columns(m):
    """Normalize each column to unit norm; exactly-zero columns map to e1."""
    m = np.asarray(m, dtype=float)
    norms = np.linalg.norm(m, axis=0)
    zero = norms == 0.0
    out = m / np.where(zero, 1.0, norms)
    out[:, zero] = 0.0
    out[0, zero] = 1.0
    return out


class ObjectiveTerm:
    """Base class for per-block objective terms.

    A nonsmooth term must also define ``stat_residual(x, g)``, which the
    stationarity estimate reads; a ``Problem`` rejects one that does not.
    """

    smooth = False

    def value(self, x) -> float:
        raise NotImplementedError

    def grad(self, x):
        raise BuildError(f"{type(self).__name__} has no gradient")

    def prox(self, point, step):
        raise BuildError(f"{type(self).__name__} has no proximal map")

    def shape_error(self, shape):
        """Why the term does not fit a block of ``shape``, or None."""
        return None

    def scratch_shape(self, shape):
        """For a block of ``shape``, the shape of an array that ``value``
        and ``grad`` take as the keyword ``out`` and may overwrite, so that
        a caller that reuses it spares them a temporary; None when they
        take none."""
        return None


class Quadratic(ObjectiveTerm):
    """(weight / 2) * ||L(x) - center||^2; L defaults to the identity.

    ``value`` and ``grad`` take ``out``, an array of L's output shape (see
    ``scratch_shape``) into which they write L(x) - center, or, for
    ``grad`` where there is no center, L(x) scaled; ``grad`` may return
    it.  Where there is a center, ``grad(x, out, formed=True)`` reads the
    residual that ``value(x, out)`` left in ``out`` instead of forming it
    again, so a step forms it once for L and the stationarity estimate."""

    smooth = True

    def __init__(self, weight: float, center=None, linear_map: LinearOp | None = None):
        require_finite(weight, "Quadratic weight")
        if weight < 0:
            raise BuildError("Quadratic weight must be nonnegative")
        self.weight = float(weight)
        self.linear_map = linear_map
        self.center = None if center is None else np.asarray(center, dtype=float)
        if self.center is not None:
            require_finite(self.center, "Quadratic center")

    def _residual(self, x, out):
        y = self.linear_map.apply(x) if self.linear_map is not None else np.asarray(x, dtype=float)
        return np.subtract(y, self.center, out=out) if self.center is not None else y

    def value(self, x, out=None) -> float:
        r = self._residual(x, out)
        return 0.5 * self.weight * float(np.vdot(r, r))

    def grad(self, x, out=None, formed=False):
        r = out if formed else self._residual(x, out)
        if self.linear_map is not None:
            return self.weight * self.linear_map.adjoint(r)
        if self.center is not None and self.weight == 1.0:
            return r  # x - center, ``out`` or a fresh array
        return np.multiply(r, self.weight, out=r if self.center is not None else out)

    def scratch_shape(self, shape):
        return shape if self.linear_map is None else self.linear_map.out_shape

    def shape_error(self, shape):
        out = shape
        if self.linear_map is not None:
            if self.linear_map.in_shape != shape:
                return f"its map takes shape {self.linear_map.in_shape}"
            out = self.linear_map.out_shape
        if self.center is not None and self.center.shape != out:
            return f"its center has shape {self.center.shape}, expected {out}"
        return None


class L1(ObjectiveTerm):
    """weight * sum |x_ij|.

    ``value`` takes ``out``, an array of x's shape (see ``scratch_shape``)
    into which it writes |x|."""

    def __init__(self, weight: float = 1.0):
        require_finite(weight, "L1 weight")
        if weight < 0:
            raise BuildError("L1 weight must be nonnegative")
        self.weight = float(weight)

    def value(self, x, out=None) -> float:
        return self.weight * float(np.sum(np.abs(x, out=out)))

    def scratch_shape(self, shape):
        return shape

    def prox(self, point, step):
        return soft_threshold(point, self.weight * step)

    def stat_residual(self, x, g) -> float:
        x = np.asarray(x, dtype=float)
        lam = self.weight
        # |g + lam sign(x)| on the support, max(|g| - lam, 0) off it, kept to
        # two full-size arrays: on a 256^2 sbd1 signal this call sits at the
        # step's allocation peak.
        on = np.abs(x) > 1e-12
        r = np.abs(np.asarray(g, dtype=float))
        r -= lam
        np.maximum(r, 0.0, out=r)
        at_support = np.sign(x)
        at_support *= lam
        at_support += g
        np.copyto(r, np.abs(at_support, out=at_support), where=on)
        return float(np.linalg.norm(r))


class IndicatorNonneg(ObjectiveTerm):
    def value(self, x) -> float:
        return 0.0 if np.min(x) >= -_FEAS_TOL else np.inf

    def prox(self, point, step):
        return project_nonneg(point)

    def stat_residual(self, x, g) -> float:
        x = np.asarray(x, dtype=float)
        r = np.where(x <= 1e-9, np.maximum(-g, 0.0), np.abs(g))
        return float(np.linalg.norm(r))


class IndicatorBox(ObjectiveTerm):
    """Indicator of lo <= x <= hi, elementwise; a bound of -inf or +inf
    leaves that side open."""

    def __init__(self, lo, hi):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if np.any(np.isnan(self.lo)) or np.any(np.isnan(self.hi)):
            raise BuildError("box bounds must not be NaN; use +-inf for no bound")
        if np.any(self.lo > self.hi):
            raise BuildError("box is empty: lo > hi somewhere")

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        ok = np.all(x >= self.lo - _FEAS_TOL) and np.all(x <= self.hi + _FEAS_TOL)
        return 0.0 if ok else np.inf

    def prox(self, point, step):
        # The constructor refused lo > hi, so the box needs no check here.
        return np.clip(np.asarray(point, dtype=float), self.lo, self.hi)

    def shape_error(self, shape):
        try:
            if np.broadcast_shapes(self.lo.shape, self.hi.shape, shape) == shape:
                return None
        except ValueError:
            pass
        return (f"its bounds of shapes {self.lo.shape} and {self.hi.shape} "
                "do not broadcast to it")

    def stat_residual(self, x, g) -> float:
        x = np.asarray(x, dtype=float)
        lo = np.broadcast_to(self.lo, x.shape)
        hi = np.broadcast_to(self.hi, x.shape)
        # The band is 1e-9 * (1 + |hi - lo|) where both bounds are finite
        # and 1e-9 where one is not; hi - lo is taken only where it is
        # finite, so no infinity meets another.
        width = np.subtract(hi, lo, out=np.zeros(x.shape),
                            where=np.isfinite(lo) & np.isfinite(hi))
        span = 1e-9 * (1.0 + np.abs(width))
        at_lo = x <= lo + span
        at_hi = x >= hi - span
        r = np.where(at_lo & at_hi, 0.0,
                     np.where(at_lo, np.maximum(-g, 0.0),
                              np.where(at_hi, np.maximum(g, 0.0), np.abs(g))))
        return float(np.linalg.norm(r))


class IndicatorUnitColumns(ObjectiveTerm):
    """Indicator of matrices whose columns have unit Euclidean norm."""

    def value(self, x) -> float:
        norms = np.linalg.norm(np.asarray(x, dtype=float), axis=0)
        return 0.0 if np.all(np.abs(norms - 1.0) <= _FEAS_TOL) else np.inf

    def prox(self, point, step):
        return project_unit_columns(point)

    def stat_residual(self, x, g) -> float:
        x = np.asarray(x, dtype=float)
        norms = np.linalg.norm(x, axis=0, keepdims=True)
        xn = x / np.where(norms > 0, norms, 1.0)
        tangent = g - xn * np.sum(xn * g, axis=0, keepdims=True)
        return float(np.linalg.norm(tangent))


class SmoothCustom(ObjectiveTerm):
    """User-supplied smooth term with a declared gradient Lipschitz constant.

    ``lipschitz == 0`` marks the term as affine, which the quadratic solver
    relies on (the gradient is then constant and folds into the linear part).
    """

    smooth = True

    def __init__(self, fn, grad_fn, lipschitz: float):
        self.fn = fn
        self.grad_fn = grad_fn
        self.lipschitz = float(lipschitz)

    def value(self, x) -> float:
        return float(self.fn(x))

    def grad(self, x):
        return np.asarray(self.grad_fn(x), dtype=float)


def _normalize_extras(form: FrozenLinearForm, extras):
    """Extras as (block_name, item); bare items attach to a single focus."""
    out = []
    names = [b.name for b in form.focus]
    for entry in extras or ():
        if isinstance(entry, tuple) and len(entry) == 2 and isinstance(entry[0], str):
            name, item = entry
            if name not in names:
                raise BuildError(f"extra term targets unknown block {name!r}")
        else:
            if len(names) != 1:
                raise BuildError("bare extra terms require a single-block form")
            name, item = names[0], entry
        out.append((name, item))
    return out


def _uniform_or_diag(diag, varies=False):
    """A gram diagonal ``diag`` (or None) as the float c when it is that of
    c * I, else as is.  A diagonal that varies with values is uniform only
    with one entry: the entries of a longer one agree only by chance."""
    if diag is None or diag.size == 0 or (varies and diag.size > 1):
        return diag
    return float(diag[0]) if np.all(diag == diag[0]) else diag


def _positive(diags):
    """Whether every entry of the per-block diagonals (floats or arrays) is
    positive; a NaN is not."""
    return all(d > 0 if isinstance(d, float) else d.min() > 0 for d in diags)


def _curvature_rule(form, pos, quads):
    """The curvature rule: N's diagonal as parts (focus position, scaled by
    rho, gram, piece), and the indices in ``form.pieces`` of the matrix-chain
    pieces it leaves out; None when N is not of that form.

    Scaled identities alone in an equation add rho * (sum of scales)**2,
    a lone piece adds rho times its gram diagonal, and a quadratic its
    weight times its map's, a gram of c * I as the float c.  A lone
    matrix-chain piece, whose gram is not diagonal, is left out and
    returned.  Any other equation, or one that two blocks enter,
    cross-couples entries.  The gram of a piece that is not ``fixed``
    varies with values and is read here only to learn whether the view
    exists, which does not depend on values; its part keeps the piece's
    index in ``form.pieces`` in place of the gram, for
    ``_SolvePlan._block_diagonals`` to read at each call.
    """
    out, chains = [], []
    for ks in form.plan.eq_pieces.values():
        plist = [form.pieces[k] for k in ks]
        p = plist[0]
        if len(plist) > 1 or p.identity is not None:
            if any(q.block.name != p.block.name or q.identity is None
                   for q in plist):
                return None
            alpha = sum(q.identity for q in plist)
            out.append((pos[p.block.name], True, alpha ** 2, None))
            continue
        gram = p.gram_diag()
        if gram is None and p.factors is not None:
            chains.append(ks[0])
        elif gram is None:
            return None
        elif not p.fixed:
            out.append((pos[p.block.name], True, None, ks[0]))
        else:
            out.append((pos[p.block.name], True, _uniform_or_diag(gram), None))
    for i, q in quads:
        gram = (1.0 if q.linear_map is None
                else _uniform_or_diag(q.linear_map.gram_diag()))
        if gram is None:
            return None
        out.append((i, False, q.weight * gram, None))
    return out, chains


class _SolvePlan:
    """One block's (or block group's) smooth subproblem, min over y of
    y^T N y / 2 - rhs^T y, or its prox step, read once from a frozen form
    of its focus.  N is rho * A^T A plus the Hessians of the quadratic
    extras, A the stacked map of the equations the focus enters.

    The plan keeps what does not depend on values; its methods take a form
    frozen over the same focus of the same system, and rho, and read only
    offsets, multipliers and Hadamard partners.  Its vectors are in the
    layout of the focus's freeze plan, whose column slices it reads.
    ``extras`` are (block name, item) pairs, items being Quadratic terms or
    affine SmoothCustom terms; the constant each adds to the right-hand side
    is taken here, once.  ``term`` is the nonsmooth term of a prox step, and
    ``method`` forces one path of :func:`quad_block_solve`.  ``path`` is the
    one solve path, fixed here.
    The arrays :meth:`rhs` writes are taken from ``scratch``, which a
    ``solver.Problem`` shares among its plans, or else from the plan's own.
    ``shared`` maps each equation whose target :meth:`rhs` keeps in the
    step memo to (its reads, its ``system._Slot``).
    """

    def __init__(self, form, extras=(), term=None, method=None, scratch=None,
                 shared=None):
        layout = form.plan
        self.focus, self.slices, self.dim = layout.focus, layout.cols, layout.in_dim
        pos = layout.pos
        # (eq_id, [(index in form.pieces, focus position)]) per equation
        # entered.
        self.eqs = [(e, [(k, pos[form.pieces[k].block.name]) for k in ks])
                    for e, ks in layout.eq_pieces.items()]
        self._eq_shapes = [layout.eq_shapes[e] for e, _ in self.eqs]
        self._scratch, self._sums = scratch, None  # see _take_scratch
        self.shared = shared or {}
        self.quads = []    # (focus position, Quadratic) with a positive weight
        self.consts = []   # (focus position, sign, array of the block's shape)
        for name, item in extras:
            i = pos[name]
            if isinstance(item, Quadratic):
                if item.weight > 0:
                    self.quads.append((i, item))
                    if item.center is not None:  # weight * L^T center
                        self._add_const(i, 1, item.weight * (
                            item.center if item.linear_map is None
                            else item.linear_map.adjoint(item.center)), item)
            elif isinstance(item, SmoothCustom):
                if item.lipschitz != 0.0:
                    raise BuildError(
                        f"block {name!r} has a smooth term with curvature (a "
                        "SmoothCustom with lipschitz != 0) and no closed-form "
                        "update; register a custom updater")
                self._add_const(i, -1, item.grad(np.zeros(form.focus[i].shape)),
                                item)
            else:
                raise BuildError(
                    f"term {type(item).__name__} cannot enter a quadratic solve")
        self.term = term
        self.densify_ok = (self.dim <= _DENSE_LIMIT
                           and layout.entered_dim * self.dim <= _DENSE_LIMIT ** 2
                           and not any(p.fourier for p in form.pieces))
        self._dense = None
        rule = _curvature_rule(form, pos, self.quads)
        self.curvature, self.chains = rule or (None, [])
        # At the form's values, rho 1: the signs do not depend on rho.
        diags = None if rule is None else self._block_diagonals(form, 1.0)
        positive = diags is not None and _positive(diags)
        # N, but for at most one chain's gram, is kappa * I.
        scalar = diags is not None and len(diags) == 1 and isinstance(diags[0], float)
        if term is not None:
            name = form.focus[0].name
            if len(form.focus) > 1:
                raise BuildError(
                    f"nonsmooth block {name!r} has no exact proximal step in "
                    "a subproblem over several blocks")
            if self.chains or not (scalar and positive):
                raise BuildError(
                    f"nonsmooth block {name!r} has no exact proximal step: "
                    "its subproblem needs a positive scalar gram; register "
                    "a custom updater")
            self.path = "prox"
            return
        # The first path that applies, in this order, unless ``method``
        # forces one.  Sylvester: N is one chain's gram plus kappa * I.
        ok = {"diag": positive and not self.chains,
              "sylvester": scalar and len(self.chains) == 1,
              "dense": self.densify_ok, "cg": True}
        self.path = method or next(path for path, good in ok.items() if good)
        if not ok[self.path]:
            raise BuildError(_DECLINED[self.path])
        if self.path == "dense":
            self.dense_map(form)

    def _take_scratch(self):
        """rhs's arrays, one scratch phase taken on its first call: per
        equation entered, the (sum, term) pair its offset is summed into,
        the sum then turned into the target in place; and the stacked
        right-hand side, each focus block's part a view of it.  A plan that
        only reads curvature takes none."""
        shapes, n = self._eq_shapes, len(self._eq_shapes)
        *sums, self._rhs = (self._scratch or _Scratch()).take(
            [*shapes, *shapes, (self.dim,)])
        self._sums = list(zip(sums[:n], sums[n:]))
        self._parts = [self._rhs[sl].reshape(b.shape)
                       for sl, b in zip(self.slices, self.focus)]

    def _add_const(self, i, sign, value, item):
        """Keep ``sign * value`` as a constant addend of focus block i's
        part; ShapeMismatchError names the block when the array's size is
        not the block's."""
        block = self.focus[i]
        value = np.asarray(value, dtype=float)
        if value.size != block.dim:
            raise ShapeMismatchError(
                f"the constant gradient of {type(item).__name__} on block "
                f"{block.name!r} has {value.size} entries; the block has "
                f"{block.dim}", block=block.name)
        self.consts.append((i, sign, value.reshape(block.shape)))

    def _block_diagonals(self, form, rho):
        """N's diagonal per focus block, but for the chains' grams, summed
        from the curvature parts in order: a float while every part of the
        block is a scalar, else an array of the block's size.  A part that
        names a piece reads the piece's gram here, at this call."""
        acc = [0.0] * len(self.slices)
        for i, scaled, gram, piece in self.curvature:
            if piece is not None:
                gram = _uniform_or_diag(form.pieces[piece].gram_diag(), varies=True)
            acc[i] = acc[i] + (rho * gram if scaled else gram)
        return acc

    def normal_diag(self, form, rho):
        """N's diagonal as one array, or None when N is not diagonal."""
        if self.curvature is None or self.chains:
            return None
        diag = np.empty(self.dim)
        for sl, d in zip(self.slices, self._block_diagonals(form, rho)):
            diag[sl] = d
        return diag

    def rhs(self, form, w, rho):
        """A^T (rho * offset - w) plus the constant items, with ``w`` keyed
        by eq_id; only the equations the focus enters reach it, so only
        their offsets are evaluated.

        Each focus block's part is summed on its own, in equation and
        piece order and then the constant items', starting from its first
        addend (see ``system._accumulate``), so no zeros are written first.
        The offsets, the targets (rho times the offset, minus the
        multiplier) but those of the ``shared`` equations, and the parts
        are written into the plan's scratch; its next call overwrites the
        returned array.  The multipliers and constant items are only read.
        """
        if self._sums is None:
            self._take_scratch()
        parts = [None] * len(self.slices)
        pieces = form.pieces
        for (e, members), sums in zip(self.eqs, self._sums):
            keep = self.shared.get(e)
            if keep is None:
                target = np.multiply(form.offset_for(e, out=sums), rho, out=sums[0])
                target -= w[e]
            else:
                target = form.target(e, w, rho, keep, out=sums)
            for k, i in members:
                p = pieces[k]
                if len(members) == 1 and p.identity not in (None, 1.0, -1.0):
                    parts[i] = _accumulate(
                        parts[i], 1, np.multiply(target, p.identity, out=sums[0]),
                        self._parts[i])
                else:
                    parts[i] = _add_adjoint(parts[i], p, target, self._parts[i])
        for i, sign, c in self.consts:
            parts[i] = _accumulate(parts[i], sign, c, self._parts[i])
        for a, out in zip(parts, self._parts):
            if a is None:
                out.fill(0.0)
        return self._rhs

    def normal_apply(self, form, rho, y_vec):
        """N @ y_vec, through the pieces' apply and adjoint."""
        out = rho * form.adjoint(form.apply(y_vec))
        for i, q in self.quads:
            sl = self.slices[i]
            if q.linear_map is None:
                out[sl] += q.weight * y_vec[sl]
            else:
                x = y_vec[sl].reshape(self.focus[i].shape)
                out[sl] += q.weight * np.ravel(q.linear_map.adjoint(q.linear_map.apply(x)))
        return out

    def dense_map(self, form):
        """A as a matrix: each piece's ``dense()`` block at its equation's
        rows among the equations the focus enters (``entered`` of the freeze
        plan) and its block's columns.  The blocks of the pieces that read
        no other block's value are summed once, in piece order, and kept."""
        if self._dense is None:
            layout = form.plan
            a, varying = np.zeros((layout.entered_dim, self.dim)), []
            for e, members in self.eqs:
                rows = layout.entered[e]
                for k, i in members:
                    p, sl = form.pieces[k], self.slices[i]
                    if p.fixed:
                        a[rows, sl] += p.dense()
                    else:
                        varying.append((rows, sl, k))
            self._dense = (a, varying)
        fixed, varying = self._dense
        a = fixed.copy()
        for rows, sl, k in varying:
            a[rows, sl] += form.pieces[k].dense()
        return a

    def dense_normal(self, form, rho):
        """The normal matrix N: rho * A^T A from :meth:`dense_map`, plus
        each quadratic's weight times the gram of its map."""
        a = self.dense_map(form)
        normal = rho * (a.T @ a)
        for i, q in self.quads:
            sl = self.slices[i]
            if q.linear_map is None:
                idx = np.arange(sl.start, sl.stop)
                normal[idx, idx] += q.weight
            else:
                m = q.linear_map.to_dense()
                normal[sl, sl] += q.weight * (m.T @ m)
        return normal

    def solve(self, form, w, rho, y0=None, cg_tol=None, cg_maxit=None,
              out=None):
        """The stacked minimizer over the focus of ``form`` by :attr:`path`.

        ``w`` is keyed by eq_id; ``y0``, a focus vector, starts conjugate
        gradients.  The diagonal path divides :meth:`rhs` into ``out``, a
        contiguous float array of the focus's size that the caller gives
        up, if given; every other result is a new array.  The prox path
        divides by kappa into a new one, as the term's prox, with step
        1 / kappa, may return its argument."""
        rho = float(rho)
        rhs = self.rhs(form, w, rho)
        name = self.focus[0].name
        if self.path in ("diag", "prox"):
            diags = self._block_diagonals(form, rho)
            if not _positive(diags):
                raise SubproblemError(
                    f"the subproblem of block {name!r} has a curvature that "
                    "is not positive at this point", block=name)
            y = np.empty(self.dim) if out is None or self.term is not None else out.ravel()
            for sl, d in zip(self.slices, diags):
                np.divide(rhs[sl], d, out=y[sl])
            if self.term is None:
                return y
            point = y.reshape(self.focus[0].shape)
            return np.ravel(np.asarray(self.term.prox(point, 1.0 / diags[0]),
                                       dtype=float))
        if self.path == "sylvester":
            return self._solve_sylvester(form, rhs, rho)
        tol_abs = ((1e-10 if cg_tol is None else float(cg_tol))
                   * (1.0 + float(np.linalg.norm(rhs))))
        if self.path == "dense":
            normal = self.dense_normal(form, rho)
            y, *_ = np.linalg.lstsq(normal, rhs, rcond=None)
            residual = float(np.linalg.norm(normal @ y - rhs))
            reason = (f"dense block solve residual {residual:.3e} exceeds "
                      "tolerance" if residual > tol_abs else None)
        else:
            y = np.zeros(self.dim) if y0 is None else np.ravel(y0).astype(float)
            y, residual, reason = conjugate_gradients(
                lambda v: self.normal_apply(form, rho, v), rhs, y, tol_abs,
                10 * self.dim if cg_maxit is None else int(cg_maxit))
        if reason is not None:
            raise SubproblemError(reason, block=name, residual=residual)
        return y

    def _solve_sylvester(self, form, rhs, rho):
        """N = rho * (chain's gram) + kappa * I, solved in the
        eigenbases of the chain's factors."""
        block = self.focus[0]
        rhs = rhs.reshape(block.shape)
        (curvature,) = self._block_diagonals(form, rho)
        left, right = form.pieces[self.chains[0]].factors
        lam_l = lam_r = None
        u = v = None
        if left is not None:
            lam_l, u = np.linalg.eigh(left.T @ left)
            rhs = u.T @ rhs
        if right is not None:
            lam_r, v = np.linalg.eigh(right @ right.T)
            rhs = rhs @ v
        if left is not None and right is not None:
            denom = rho * np.outer(lam_l, lam_r) + curvature
        elif left is not None:
            denom = rho * lam_l[:, None] + curvature
        else:
            denom = rho * lam_r[None, :] + curvature
        if np.min(denom) <= 0:
            raise SubproblemError("block subproblem has no curvature",
                                  block=block.name)
        y = rhs / denom
        if left is not None:
            y = u @ y
        if right is not None:
            y = y @ v.T
        return np.ravel(y)


def conjugate_gradients(apply, rhs, y, tol_abs, maxit):
    """Conjugate gradients on apply(y) = rhs for a symmetric PSD ``apply``.

    Starts from ``y``, which it updates in place, and stops once the
    residual norm is at most ``tol_abs``.  Returns (y, residual norm,
    reason): reason is None on convergence, else why the iteration stopped
    (the curvature of a search direction was not positive, or ``maxit``
    steps ran out).
    """
    r = rhs - apply(y)
    p = r.copy()
    rs = float(r @ r)
    if np.sqrt(rs) <= tol_abs:
        return y, float(np.sqrt(rs)), None
    for _ in range(maxit):
        ap = apply(p)
        denom = float(p @ ap)
        if denom <= 0:
            return y, float(np.sqrt(rs)), "normal operator lost positive definiteness"
        alpha = rs / denom
        y += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol_abs:
            return y, float(np.sqrt(rs_new)), None
        p = r + (rs_new / rs) * p
        rs = rs_new
    return (y, float(np.sqrt(rs)),
            f"conjugate gradients stalled at residual {np.sqrt(rs):.3e}")


def _check_duals(dims, w, rho) -> None:
    """Refuse duals ``w``, keyed by eq_id, that miss one of ``dims``, its
    (eq_id, shape) pairs, or have another shape there (ShapeMismatchError
    naming the equation), and a rho that is not positive and finite
    (ValueError)."""
    for eq_id, shape in dims:
        if eq_id not in w:
            raise ShapeMismatchError(f"no multiplier for equation {eq_id}",
                                     eq_id=eq_id)
        if np.shape(w[eq_id]) != shape:
            raise ShapeMismatchError(
                f"multiplier for equation {eq_id} has shape {np.shape(w[eq_id])}, "
                f"expected {shape}", eq_id=eq_id)
    if not 0.0 < rho < np.inf:
        raise ValueError(f"rho must be positive and finite, got {rho!r}")


def _duals(form: FrozenLinearForm, w, rho) -> dict:
    """``w``, a stacked dual vector or an eq_id-keyed dict, as a dict,
    checked by :func:`_check_duals` on the equations the focus enters."""
    if not isinstance(w, dict):
        w = form.split_dual(w)
    plan = form.plan
    _check_duals([(e, plan.eq_shapes[e]) for e in plan.eq_pieces], w, rho)
    return w


def prox_block_step(form: FrozenLinearForm, w, rho: float, term, extras=()):
    """Exact minimizer over one block of the smooth subproblem of
    :func:`quad_block_solve` plus a nonsmooth ``term``: when N is kappa * I,
    ``term.prox(rhs / kappa, 1 / kappa)``.  ``w`` and ``rho`` are read and
    refused as there.  Runs the step of a one-off solve plan, which raises
    BuildError when N is not a positive multiple of the identity at the
    form's values."""
    w = _duals(form, w, rho)
    plan = _SolvePlan(form, _normalize_extras(form, extras), term=term)
    return plan.solve(form, w, rho).reshape(form.focus[0].shape)


def quad_block_solve(form: FrozenLinearForm, w, rho: float, extras=(),
                     cg_tol: float | None = None, cg_maxit: int | None = None,
                     y0=None, method: str | None = None):
    """Exact minimizer of the smooth block subproblem.

    Minimizes ``<w, C(y)> + rho/2 ||C(y)||^2 + extras`` where
    ``C(y) = form.apply(y) - form.offset``.  ``w`` is a stacked dual vector or
    an eq_id-keyed dict; only the equations the focus enters are read, and
    only their offsets are computed (``form.offset_for``), so that part of
    freezing is paid inside this call.  A dual of the wrong length, or a
    dict that misses or misfits one of those equations, raises
    ShapeMismatchError, and a rho that is not positive and finite
    ValueError.  Extras are Quadratic terms or affine SmoothCustom terms;
    for block groups they are (block_name, term) pairs.  ``y0`` is a focus
    vector (see ``FrozenLinearForm``).  The minimizer comes back as the
    block's array for a focus of one block, else as a dict of arrays by
    block name.  It satisfies the normal equations to
    ``cg_tol * (1 + ||rhs||)`` (default cg_tol 1e-10, so roughly 1e-10 *
    ||rhs||); conjugate-gradient failure raises SubproblemError carrying the
    final residual.  Runs a one-off solve plan (see :class:`_SolvePlan`),
    whose ``path`` ``method`` may force; a forced path that does not apply
    raises BuildError.
    """
    if method not in (None, "diag", "sylvester", "dense", "cg"):
        raise BuildError(f"unknown solve method {method!r}")
    w = _duals(form, w, rho)
    if y0 is not None:
        y0 = form._vector(y0, form.in_dim, "start vector")
    plan = _SolvePlan(form, _normalize_extras(form, extras), method=method)
    y = plan.solve(form, w, rho, y0=y0, cg_tol=cg_tol, cg_maxit=cg_maxit)
    if len(form.focus) == 1:
        return y.reshape(form.focus[0].shape)
    return {b.name: y[sl].reshape(b.shape) for b, sl in zip(form.focus, plan.slices)}
