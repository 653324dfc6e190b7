"""Objective terms, proximal maps, and the block subproblem solvers.

Objective terms attach to individual variable blocks.  Smooth terms expose a
gradient; the nonsmooth ones (elementwise L1 and the three indicators) expose
an exact proximal map instead, and ``stat_residual(x, g)``: the distance of a
gradient ``g`` at ``x`` to the term's negative subdifferential there.

Every block subproblem is one solve plan, ``_SolvePlan``, read once from a
frozen form of the focus: the focus slices, the quadratic extras, how to
form the constant right-hand side, the nonsmooth and coupling terms, and
the outcome of the one curvature rule, run once per plan: N's diagonal
per block, a float kappa where the block's N is kappa * I, but for the
matrix-chain pieces the rule leaves out and records.  From that one
outcome the plan fixes its one solve path when it is built.  A
``Problem`` builds one plan per update unit when it is built;
``quad_block_solve`` and ``prox_block_step`` build a one-off plan and run
it on the same form.  Only a Hadamard piece's gram varies with values, and
then only in value, never in whether its view exists: the plan reads it
at each call, and a curvature that is not positive there raises
SubproblemError.  The paths are an elementwise diagonal solve, a two-sided
eigendecomposition solve for one matrix chain (the rest of N scalar), a
dense least-squares solve, conjugate gradients on the normal equations,
and for one block with a nonsmooth term the diagonal solve's divide by
kappa followed by the term's prox with step 1 / kappa.  Each asks the
frozen pieces for a view (identity scale, gram diagonal, matrix factors,
dense block), never for their type.  The dense path assembles N from the
pieces' dense blocks, the plan keeping those of pieces that read no other
block's value, and takes forms without convolution pieces, of at most
``_DENSE_LIMIT`` (1,024) columns, whose stacked map over the equations the
focus enters has at most ``_DENSE_LIMIT ** 2`` entries; larger forms go to
conjugate gradients.  The diagnostics' least-squares distance reads the
same dense map within those bounds.  ``conjugate_gradients`` is the one CG
loop: the solver and, above the bounds, that distance both run it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BuildError, SubproblemError, require_finite
from .operators import LinearOp, uniform_scale
from .system import FrozenLinearForm, _accumulate, _add_adjoint

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
    m = np.asarray(m, dtype=float).copy()
    norms = np.linalg.norm(m, axis=0)
    for j in range(m.shape[1]):
        if norms[j] == 0.0:
            m[:, j] = 0.0
            m[0, j] = 1.0
        else:
            m[:, j] /= norms[j]
    return m


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


class Quadratic(ObjectiveTerm):
    """(weight / 2) * ||L(x) - center||^2; L defaults to the identity."""

    smooth = True

    def __init__(self, weight: float, center=None, linear_map: LinearOp | None = None):
        if weight < 0:
            raise BuildError("Quadratic weight must be nonnegative")
        self.weight = float(weight)
        self.linear_map = linear_map
        self.center = None if center is None else np.asarray(center, dtype=float)
        if self.center is not None:
            require_finite(self.center, "Quadratic center")

    def _residual(self, x):
        y = self.linear_map.apply(x) if self.linear_map is not None else np.asarray(x, dtype=float)
        return y - self.center if self.center is not None else y

    def value(self, x) -> float:
        r = self._residual(x)
        # L(x) - center is a fresh array; without a center r may be x itself.
        own = r if self.center is not None else None
        return 0.5 * self.weight * float(np.sum(np.multiply(r, r, out=own)))

    def grad(self, x):
        r = self._residual(x)
        if self.linear_map is not None:
            return self.weight * self.linear_map.adjoint(r)
        if self.center is not None and self.weight == 1.0:
            return r  # x - center, a fresh array
        return np.multiply(r, self.weight, out=r if self.center is not None else None)

    @property
    def identity_curvature(self):
        """weight when the Hessian is weight * I, else None."""
        if self.linear_map is None:
            return self.weight
        c = self.linear_map.gram_scalar()
        return None if c is None else self.weight * c


class L1(ObjectiveTerm):
    """weight * sum |x_ij|."""

    def __init__(self, weight: float = 1.0):
        if weight < 0:
            raise BuildError("L1 weight must be nonnegative")
        self.weight = float(weight)

    def value(self, x) -> float:
        return self.weight * float(np.sum(np.abs(x)))

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
        return project_box(point, self.lo, self.hi)

    def stat_residual(self, x, g) -> float:
        x = np.asarray(x, dtype=float)
        lo = np.broadcast_to(self.lo, x.shape)
        hi = np.broadcast_to(self.hi, x.shape)
        span = 1e-9 * (1.0 + np.abs(hi - lo))
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


class CouplingTerm:
    """Smooth objective coupling several blocks.

    ``fn`` maps a name-keyed value dict to a float; ``grad_fn(values, name)``
    returns the partial gradient.  ``affine_per_block`` declares that each
    partial gradient does not depend on the block it differentiates (true for
    multilinear couplings); the solver verifies this numerically at build time
    before using the gradient as a constant in exact block updates.
    """

    def __init__(self, blocks, fn, grad_fn, affine_per_block: bool = True):
        self.blocks = tuple(blocks)
        self.fn = fn
        self.grad_fn = grad_fn
        self.affine_per_block = bool(affine_per_block)

    def value(self, values) -> float:
        return float(self.fn(values))

    def grad_block(self, values, name: str):
        return np.asarray(self.grad_fn(values, name), dtype=float)


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
    """A gram diagonal as the float c when the gram is c * I, else as is."""
    c = uniform_scale(diag, varies)
    return diag if c is None else c


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
    :func:`_read_curvature` to read at each call.
    """
    out, chains = [], []
    for plist in form.by_eq.values():
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
            chains.append(form.pieces.index(p))
        elif gram is None:
            return None
        elif not p.fixed:
            out.append((pos[p.block.name], True, None, form.pieces.index(p)))
        else:
            out.append((pos[p.block.name], True, _uniform_or_diag(gram), None))
    for i, q in quads:
        gram = (1.0 if q.linear_map is None
                else _uniform_or_diag(q.linear_map.gram_diag()))
        if gram is None:
            return None
        out.append((i, False, q.weight * gram, None))
    return out, chains


def _read_curvature(parts, form, rho):
    """(focus position, curvature) per part of :func:`_curvature_rule` at
    one call."""
    out = []
    for i, scaled, gram, piece in parts:
        if piece is not None:
            gram = _uniform_or_diag(form.pieces[piece].gram_diag(), varies=True)
        out.append((i, rho * gram if scaled else gram))
    return out


class _SolvePlan:
    """One block's (or block group's) smooth subproblem, min over y of
    y^T N y / 2 - rhs^T y, or its prox step, read once from a frozen form
    of its focus.  N is rho * A^T A plus the Hessians of the quadratic
    extras, A the stacked map of the equations the focus enters.

    The plan keeps what does not depend on values; its methods take a form
    frozen over the same focus of the same system, and rho, and read only
    offsets, multipliers and Hadamard partners.  ``extras`` are (block
    name, item) pairs, items being Quadratic terms, affine SmoothCustom
    terms, raw gradient arrays of affine addends, or CouplingTerms, whose
    gradients are taken at each call from the name-keyed ``values`` given
    to :meth:`solve`.  ``term`` is the nonsmooth term of a prox step, and
    ``method`` forces one path of :func:`quad_block_solve`.  ``path`` is
    the one solve path, fixed here.
    """

    def __init__(self, form, extras=(), term=None, method=None):
        self.focus = form.focus
        pos, self.slices, start = {}, [], 0
        for i, b in enumerate(form.focus):
            pos[b.name] = i
            self.slices.append(slice(start, start + b.dim))
            start += b.dim
        self.dim = start
        # (eq_id, [(index in form.pieces, focus position)]) per equation
        # entered.
        self.eqs = [(e, [(form.pieces.index(p), pos[p.block.name]) for p in plist])
                    for e, plist in form.by_eq.items()]
        self.rows = sum(form.eq_shapes[e][0] * form.eq_shapes[e][1]
                        for e in form.by_eq)
        self.quads = []    # (focus position, Quadratic) with a positive weight
        self.consts = []   # (focus position, sign, make): adds sign * make(values)
        self.coupled = False
        for name, item in extras:
            i = pos[name]
            shape = form.focus[i].shape
            if isinstance(item, Quadratic):
                if item.weight > 0:
                    self.quads.append((i, item))
                    if item.center is not None:
                        # weight * L^T center, taken at the first call and kept.
                        center = functools.cache(lambda q=item: q.weight * np.ravel(
                            q.center if q.linear_map is None
                            else q.linear_map.adjoint(q.center)))
                        self.consts.append((i, 1, lambda v, c=center: c()))
            elif isinstance(item, SmoothCustom):
                if item.lipschitz != 0.0:
                    raise BuildError(
                        f"block {name!r} has a smooth term with curvature (a "
                        "SmoothCustom with lipschitz != 0) and no closed-form "
                        "update; register a custom updater")
                self.consts.append((i, -1, lambda v, t=item, shape=shape:
                                    np.ravel(t.grad(np.zeros(shape)))))
            elif isinstance(item, np.ndarray):
                self.consts.append((i, -1, lambda v, a=item: np.ravel(a)))
            elif isinstance(item, CouplingTerm):
                # Affine per block, so the gradient is a constant linear term.
                self.coupled = True
                self.consts.append((i, -1, lambda v, c=item, name=name:
                                    np.ravel(c.grad_block(v, name))))
            else:
                raise BuildError(
                    f"term {type(item).__name__} cannot enter a quadratic solve")
        self.term = term
        self.densify_ok = (self.dim <= _DENSE_LIMIT
                           and self.rows * self.dim <= _DENSE_LIMIT ** 2
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

    def _block_diagonals(self, form, rho):
        """N's diagonal per focus block, but for the chains' grams, summed
        from the curvature parts in order: a float while every part of the
        block is a scalar, else an array of the block's size."""
        acc = [0.0] * len(self.slices)
        for i, c in _read_curvature(self.curvature, form, rho):
            acc[i] = acc[i] + c
        return acc

    def normal_diag(self, form, rho):
        """N's diagonal as one array, or None when N is not diagonal."""
        if self.curvature is None or self.chains:
            return None
        diag = np.empty(self.dim)
        for sl, d in zip(self.slices, self._block_diagonals(form, rho)):
            diag[sl] = d
        return diag

    def rhs(self, form, w, rho, values=None):
        """A^T (rho * offset - w) plus the constant items, with ``w`` keyed
        by eq_id; only the equations the focus enters reach it, so only
        their offsets are evaluated.

        Each focus block's part is summed on its own, in equation and
        piece order and then the constant items', starting from its first
        addend (see ``system._accumulate``), so no zeros are written first.
        The call owns, and may overwrite, the returned array and each
        equation's target (rho times the offset, minus the multiplier).
        The form's cached offsets, the multipliers, the block values and
        the kept center terms are only read.
        """
        parts = [None] * len(self.slices)
        pieces = form.pieces
        for e, members in self.eqs:
            off = form.offset_for(e)
            w_e = np.asarray(w[e], dtype=float).reshape(off.shape)
            target = np.multiply(off, rho)
            target -= w_e
            for k, i in members:
                p = pieces[k]
                if len(members) == 1 and p.identity not in (None, 1.0, -1.0):
                    parts[i] = _accumulate(
                        parts[i], 1, np.multiply(target, p.identity, out=target))
                else:
                    parts[i] = _add_adjoint(parts[i], p, target)
        for i, sign, make in self.consts:
            parts[i] = _accumulate(parts[i], sign,
                                   np.reshape(make(values), self.focus[i].shape))
        parts = [np.ravel(np.zeros(b.dim) if a is None else a)
                 for a, b in zip(parts, self.focus)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def normal_apply(self, form, rho, y_vec):
        """N @ y_vec, through the pieces' apply and adjoint."""
        out = rho * form.adjoint_vec(form.apply_vec(y_vec))
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
        rows and its block's columns, the rows of the equations the focus
        enters stacked in ``form.by_eq`` order.  The blocks of the pieces
        that read no other block's value are summed once, in piece order,
        and kept."""
        if self._dense is None:
            a, varying, top = np.zeros((self.rows, self.dim)), [], 0
            for e, members in self.eqs:
                shape = form.eq_shapes[e]
                rows = slice(top, top + shape[0] * shape[1])
                for k, i in members:
                    p, sl = form.pieces[k], self.slices[i]
                    if p.fixed:
                        a[rows, sl] += p.dense()
                    else:
                        varying.append((rows, sl, k))
                top = rows.stop
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

    def solve(self, form, w, rho, values=None, y0=None, cg_tol=None,
              cg_maxit=None):
        """The stacked minimizer over the focus of ``form`` by :attr:`path`.

        ``w`` is keyed by eq_id; ``values`` maps block names to values for
        the coupling gradients; ``y0`` starts conjugate gradients.  The
        diagonal and prox paths divide the call's :meth:`rhs` in place, so
        the returned array may be that array, and the block values sliced
        from it views of it.  The prox path is the diagonal divide, by
        kappa, followed by the term's prox with step 1 / kappa."""
        rho = float(rho)
        rhs = self.rhs(form, w, rho, values)
        name = self.focus[0].name
        if self.path in ("diag", "prox"):
            diags = self._block_diagonals(form, rho)
            if not _positive(diags):
                raise SubproblemError(
                    f"the subproblem of block {name!r} has a curvature that "
                    "is not positive at this point", block=name)
            for sl, d in zip(self.slices, diags):
                rhs[sl] /= d
            if self.term is None:
                return rhs
            point = rhs.reshape(self.focus[0].shape)
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
            if y0 is not None and not isinstance(y0, np.ndarray):
                y0 = form.stack_values(y0)
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


def prox_block_step(form: FrozenLinearForm, w, rho: float, term, extras=()):
    """Exact minimizer over one block of the smooth subproblem of
    :func:`quad_block_solve` plus a nonsmooth ``term``: when N is kappa * I,
    ``term.prox(rhs / kappa, 1 / kappa)``.  ``w`` is keyed by eq_id.  Runs
    the step of a one-off solve plan, which raises BuildError when N is not
    a positive multiple of the identity at the form's values."""
    plan = _SolvePlan(form, _normalize_extras(form, extras), term=term)
    return plan.solve(form, w, rho).reshape(form.focus[0].shape)


def quad_block_solve(form: FrozenLinearForm, w, rho: float, extras=(),
                     cg_tol: float | None = None, cg_maxit: int | None = None,
                     y0=None, method: str | None = None):
    """Exact minimizer of the smooth block subproblem.

    Minimizes ``<w, C(Y)> + rho/2 ||C(Y)||^2 + extras`` where
    ``C(Y) = form.apply(Y) - form.offset``.  ``w`` is a stacked dual vector or
    an eq_id-keyed dict; only the equations the focus enters are read, and
    only their offsets are computed (``form.offset_for``), so that part of
    freezing is paid inside this call.  Extras are Quadratic terms, affine
    SmoothCustom terms, or raw gradient arrays of affine addends; for block
    groups they are (block_name, term) pairs.  The returned value satisfies
    the normal equations to ``cg_tol * (1 + ||rhs||)`` (default cg_tol 1e-10,
    so roughly 1e-10 * ||rhs||); conjugate-gradient failure raises
    SubproblemError carrying the final residual.  Runs a one-off solve plan
    (see :class:`_SolvePlan`), whose ``path`` ``method`` may force; a
    forced path that does not apply raises BuildError.
    """
    if method not in (None, "diag", "sylvester", "dense", "cg"):
        raise BuildError(f"unknown solve method {method!r}")
    if not isinstance(w, dict):
        w = form.split_dual(np.asarray(w, dtype=float))
    plan = _SolvePlan(form, _normalize_extras(form, extras), method=method)
    return form.unstack_values(plan.solve(form, w, rho, y0=y0, cg_tol=cg_tol,
                                          cg_maxit=cg_maxit))
