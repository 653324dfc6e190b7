"""Objective terms, proximal maps, and the block subproblem solvers.

Objective terms attach to individual variable blocks.  Smooth terms expose a
gradient; the nonsmooth ones (elementwise L1 and the three indicators) expose
an exact proximal map instead, and ``stat_residual(x, g)``: the distance of a
gradient ``g`` at ``x`` to the term's negative subdifferential there.

Both block solvers assemble the smooth augmented-Lagrangian restriction to a
frozen block in one place, ``_QuadPieces``: the normal operator N and the
right-hand side, with one rule for the curvature the pieces add, read as N's
diagonal or as its scalar kappa when N = kappa * I.  ``quad_block_solve``
minimizes over one block (or block group), picking among an
elementwise-diagonal solve, a two-sided eigendecomposition solve for one
matrix chain (the rest of N scalar), a dense least-squares solve, and
conjugate gradients on the normal equations.  ``prox_block_step`` adds one
nonsmooth term: with N = kappa * I the minimizer is the term's prox at rhs /
kappa with step 1 / kappa.  Each path asks the frozen pieces for a view
(their identity scale, gram diagonal or scalar, matrix factors, or dense
block), never for their type.  The dense path assembles N from the pieces'
dense blocks and takes forms without convolution pieces, of at most
``_DENSE_LIMIT`` (1,024) columns, whose stacked map over the equations the
focus enters has at most ``_DENSE_LIMIT ** 2`` entries; larger forms go to
conjugate gradients.  The diagnostics' least-squares distance reads the same
dense map within those bounds.  ``conjugate_gradients`` is the one CG loop:
the solver and, above the bounds, that distance both run it.
"""

from __future__ import annotations

import numpy as np

from .errors import BuildError, SubproblemError, require_finite
from .operators import LinearOp
from .system import FrozenLinearForm

_FEAS_TOL = 1e-8
_DENSE_LIMIT = 1024


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
        return 0.5 * self.weight * float(np.sum(r * r))

    def grad(self, x):
        r = self._residual(x)
        if self.linear_map is not None:
            return self.weight * self.linear_map.adjoint(r)
        return self.weight * r

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


class _QuadPieces:
    """Assembled smooth subproblem: min over y of y^T N y / 2 - rhs^T y.

    N is rho * A^T A plus the Hessians of the quadratic extras, A the stacked
    map of the equations the focus enters.  With ``w_by_eq`` None only N is
    assembled: no offset is evaluated, and ``rhs`` is None.
    """

    def __init__(self, form, w_by_eq, rho, extras=()):
        self.form = form
        self.rho = float(rho)
        self.slices, self.blocks, pos = {}, {}, 0
        for b in form.focus:
            self.slices[b.name] = slice(pos, pos + b.dim)
            self.blocks[b.name] = b
            pos += b.dim
        self.quads = [(name, item) for name, item in extras
                      if isinstance(item, Quadratic) and item.weight > 0]
        self.rhs = None
        if w_by_eq is None:
            return
        # rhs = A^T (rho * offset - w): only the equations the focus enters
        # reach it, so only their offsets are needed.
        self.rhs = np.zeros(form.in_dim)
        for e, plist in form.by_eq.items():
            off = form.offset_for(e)
            w_e = np.asarray(w_by_eq[e], dtype=float).reshape(off.shape)
            target = rho * off - w_e
            for p in plist:
                self.rhs[self.slices[p.block.name]] += np.ravel(p.adjoint(target))
        for name, item in extras:
            sl = self.slices[name]
            if isinstance(item, Quadratic):
                if item.weight > 0 and item.center is not None:
                    back = (item.linear_map.adjoint(item.center)
                            if item.linear_map is not None else item.center)
                    self.rhs[sl] += item.weight * np.ravel(back)
            elif isinstance(item, SmoothCustom):
                if item.lipschitz != 0.0:
                    raise BuildError(
                        "only affine SmoothCustom terms (lipschitz == 0) have a "
                        "closed-form block update")
                self.rhs[sl] -= np.ravel(item.grad(np.zeros(self.blocks[name].shape)))
            elif isinstance(item, np.ndarray):
                self.rhs[sl] -= np.ravel(item)
            else:
                raise BuildError(
                    f"term {type(item).__name__} cannot enter a quadratic solve")

    def normal_apply(self, y_vec):
        out = self.rho * self.form.adjoint_vec(self.form.apply_vec(y_vec))
        for name, q in self.quads:
            sl = self.slices[name]
            if q.linear_map is None:
                out[sl] += q.weight * y_vec[sl]
            else:
                x = y_vec[sl].reshape(self.blocks[name].shape)
                out[sl] += q.weight * np.ravel(q.linear_map.adjoint(q.linear_map.apply(x)))
        return out

    def _rows(self):
        """Rows of A: the sizes of the equations the focus enters."""
        return sum(self.form.eq_shapes[e][0] * self.form.eq_shapes[e][1]
                   for e in self.form.by_eq)

    def dense_map(self):
        """A as a matrix: each piece adds its ``dense()`` block at its
        equation's rows and its block's columns, the rows of the equations
        the focus enters stacked in ``form.by_eq`` order."""
        a = np.zeros((self._rows(), self.form.in_dim))
        pos = 0
        for eq_id, plist in self.form.by_eq.items():
            shape = self.form.eq_shapes[eq_id]
            rows = slice(pos, pos + shape[0] * shape[1])
            for p in plist:
                a[rows, self.slices[p.block.name]] += p.dense()
            pos = rows.stop
        return a

    def dense_normal(self):
        """The normal matrix N: rho * A^T A from :meth:`dense_map`, plus
        each quadratic's weight times the gram of its map."""
        a = self.dense_map()
        normal = self.rho * (a.T @ a)
        for name, q in self.quads:
            sl = self.slices[name]
            if q.linear_map is None:
                idx = np.arange(sl.start, sl.stop)
                normal[idx, idx] += q.weight
            else:
                m = q.linear_map.to_dense()
                normal[sl, sl] += q.weight * (m.T @ m)
        return normal

    def _curvature(self, view, leave_out=None):
        """(block name, curvature) per equation the focus enters and per
        quadratic, each gram read through ``view`` ("gram_diag" or
        "gram_scalar"); None when N is not of that form.

        Scaled identities alone in an equation add rho * (sum of scales)**2,
        a lone piece adds rho times its gram, and a quadratic its weight
        times its map's gram.  Any other equation, or one that two blocks
        enter, cross-couples entries.  ``leave_out`` names a piece, alone in
        its equation, whose term is left out.
        """
        out = []
        for plist in self.form.by_eq.values():
            p = plist[0]
            if len(plist) > 1 or p.identity is not None:
                if any(q.block.name != p.block.name or q.identity is None
                       for q in plist):
                    return None
                alpha = sum(q.identity for q in plist)
                out.append((p.block.name, self.rho * alpha ** 2))
            elif p is not leave_out:
                gram = getattr(p, view)()
                if gram is None:
                    return None
                out.append((p.block.name, self.rho * gram))
        for name, q in self.quads:
            gram = 1.0 if q.linear_map is None else getattr(q.linear_map, view)()
            if gram is None:
                return None
            out.append((name, q.weight * gram))
        return out

    def normal_diag(self):
        """Diagonal of N, or None when it is not diagonal."""
        parts = self._curvature("gram_diag")
        if parts is None:
            return None
        diag = np.zeros(self.form.in_dim)
        for name, c in parts:
            diag[self.slices[name]] += c
        return diag

    def scalar_curvature(self, leave_out=None):
        """kappa when N of a single-block form is kappa * I, else None."""
        parts = self._curvature("gram_scalar", leave_out)
        return None if parts is None else sum(c for _, c in parts)

    def sylvester(self):
        """(chain_piece, scalar_curvature) when the one-chain pattern applies.

        Requires a single focus block entering exactly one equation through a
        frozen matrix chain, alone in that equation, with everything else
        adding a scalar multiple of the identity to N.
        """
        if len(self.form.focus) != 1:
            return None
        chains = [p for p in self.form.pieces if p.factors is not None]
        if len(chains) != 1:
            return None
        curvature = self.scalar_curvature(leave_out=chains[0])
        return None if curvature is None else (chains[0], curvature)

    def densify_ok(self):
        """Whether the dense path applies: no Fourier piece, at most
        ``_DENSE_LIMIT`` columns and a stacked map of at most
        ``_DENSE_LIMIT ** 2`` entries."""
        n = self.form.in_dim
        if n > _DENSE_LIMIT or self._rows() * n > _DENSE_LIMIT ** 2:
            return False
        return not any(p.fourier for p in self.form.pieces)


def _solve_sylvester(pieces: _QuadPieces, chain, curvature):
    block = pieces.form.focus[0]
    rhs = pieces.rhs.reshape(block.shape)
    rho = pieces.rho
    left, right = chain.factors
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


def _solve_dense(pieces: _QuadPieces, tol_abs):
    normal = pieces.dense_normal()
    y, *_ = np.linalg.lstsq(normal, pieces.rhs, rcond=None)
    residual = float(np.linalg.norm(normal @ y - pieces.rhs))
    if residual > tol_abs:
        raise SubproblemError(
            f"dense block solve residual {residual:.3e} exceeds tolerance",
            block=pieces.form.focus[0].name, residual=residual)
    return y


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


def _solve_cg(pieces: _QuadPieces, tol_abs, maxit, y0):
    y = np.zeros(pieces.form.in_dim) if y0 is None else np.ravel(y0).astype(float).copy()
    y, residual, reason = conjugate_gradients(pieces.normal_apply, pieces.rhs,
                                              y, tol_abs, maxit)
    if reason is not None:
        raise SubproblemError(reason, block=pieces.form.focus[0].name,
                              residual=residual)
    return y


def prox_block_step(form: FrozenLinearForm, w, rho: float, term, extras=()):
    """Exact minimizer over one block of the smooth subproblem of
    :func:`quad_block_solve` plus a nonsmooth ``term``: when N is kappa * I,
    ``term.prox(rhs / kappa, 1 / kappa)``.  ``w`` is keyed by eq_id."""
    block = form.focus[0]
    pieces = _QuadPieces(form, w, rho, _normalize_extras(form, extras))
    kappa = pieces.scalar_curvature()
    if kappa is None or kappa <= 0.0:
        raise BuildError(
            f"the subproblem of nonsmooth block {block.name!r} has no positive "
            "scalar curvature; cannot take a proximal step")
    point = (pieces.rhs / kappa).reshape(block.shape)
    return np.asarray(term.prox(point, 1.0 / kappa), dtype=float)


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
    SubproblemError carrying the final residual.
    """
    if method not in (None, "diag", "sylvester", "dense", "cg"):
        raise BuildError(f"unknown solve method {method!r}")
    if not isinstance(w, dict):
        w = form.split_dual(np.asarray(w, dtype=float))
    pieces = _QuadPieces(form, w, float(rho), _normalize_extras(form, extras))
    cg_tol = 1e-10 if cg_tol is None else float(cg_tol)
    tol_abs = cg_tol * (1.0 + float(np.linalg.norm(pieces.rhs)))
    cg_maxit = 10 * form.in_dim if cg_maxit is None else int(cg_maxit)

    if method in (None, "diag"):
        diag = pieces.normal_diag()
        if diag is not None and np.min(diag) > 0:
            return form.unstack_values(pieces.rhs / diag)
        if method == "diag":
            raise BuildError("normal operator is not diagonal")
    if method in (None, "sylvester"):
        syl = pieces.sylvester()
        if syl is not None:
            return form.unstack_values(_solve_sylvester(pieces, *syl))
        if method == "sylvester":
            raise BuildError("subproblem does not match the matrix-chain pattern")
    if method in (None, "dense") and pieces.densify_ok():
        return form.unstack_values(_solve_dense(pieces, tol_abs))
    if method == "dense":
        raise BuildError("block too large or not densifiable")
    if y0 is not None and not isinstance(y0, np.ndarray):
        y0 = form.stack_values(y0)
    return form.unstack_values(_solve_cg(pieces, tol_abs, cg_maxit, y0))
