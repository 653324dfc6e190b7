"""Objective terms, proximal maps, and the quadratic block solver.

Objective terms attach to individual variable blocks.  Smooth terms expose a
gradient; the nonsmooth ones (elementwise L1 and the three indicators) expose
an exact proximal map instead, and ``stat_residual(x, g)``: the distance of a
gradient ``g`` at ``x`` to the term's negative subdifferential there.
``quad_block_solve`` minimizes the smooth augmented-Lagrangian restriction to
one frozen block (or block group), picking among an elementwise-diagonal
solve, a two-sided eigendecomposition solve for matrix-chain structure, a
dense least-squares solve, and conjugate gradients on the normal equations.
Each path asks the frozen pieces for a view (their identity scale, gram
diagonal or scalar, matrix factors, or dense block), never for their type.
The dense path assembles the normal matrix from the pieces' dense blocks and
takes forms without convolution pieces, of at most ``_DENSE_LIMIT`` (1,024)
columns, whose stacked map over the equations the focus enters has at most
``_DENSE_LIMIT ** 2`` entries; larger forms go to conjugate gradients.
"""

from __future__ import annotations

import numpy as np

from .errors import BuildError, SubproblemError, require_finite
from .operators import LinearOp
from .system import FrozenLinearForm

_FEAS_TOL = 1e-8
_DENSE_LIMIT = 1024


def soft_threshold(v, tau):
    """Elementwise shrinkage: prox of tau * |.|_1."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


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

    def hessian_diag(self, dim):
        if self.linear_map is None:
            return np.full(dim, self.weight)
        gd = self.linear_map.gram_diag()
        return None if gd is None else self.weight * gd


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
        on = np.abs(x) > 1e-12
        r = np.where(on, np.abs(g + lam * np.sign(x)),
                     np.maximum(np.abs(g) - lam, 0.0))
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

    def __init__(self, blocks, fn, grad_fn, lipschitz: float = 0.0,
                 affine_per_block: bool = True):
        self.blocks = tuple(blocks)
        self.fn = fn
        self.grad_fn = grad_fn
        self.lipschitz = float(lipschitz)
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


def _block_slices(form: FrozenLinearForm):
    slices, pos = {}, 0
    for b in form.focus:
        slices[b.name] = slice(pos, pos + b.dim)
        pos += b.dim
    return slices


class _QuadPieces:
    """Assembled smooth subproblem: min over y of y^T N y / 2 - rhs^T y."""

    def __init__(self, form, w_by_eq, rho, extras):
        self.form = form
        self.rho = float(rho)
        self.slices = _block_slices(form)
        self.blocks = {b.name: b for b in form.focus}
        self.eq_shapes = dict(form.eq_dims)
        self.by_eq = {}    # eq_id -> pieces, for the equations the focus enters
        for p in form.pieces:
            self.by_eq.setdefault(p.eq_id, []).append(p)
        # Rows of the stacked map A of those equations.
        self.rows = sum(self.eq_shapes[e][0] * self.eq_shapes[e][1]
                        for e in self.by_eq)
        # Only the equations the focus enters reach the adjoint, so only
        # their offsets are needed.
        targets = {}
        for e in self.by_eq:
            off = form.offset_for(e)
            w_e = np.reshape(np.asarray(w_by_eq[e], dtype=float), off.shape)
            targets[e] = rho * off - w_e
        self.rhs = form.stack_values(form.adjoint_eqs(targets))
        self.quads = []    # (block_name, Quadratic)
        for name, item in extras:
            sl = self.slices[name]
            if isinstance(item, Quadratic):
                if item.weight > 0:
                    self.quads.append((name, item))
                    if item.center is not None:
                        back = (item.linear_map.adjoint(item.center)
                                if item.linear_map is not None else item.center)
                        self.rhs[sl] += item.weight * np.ravel(back)
            elif isinstance(item, SmoothCustom):
                if item.lipschitz != 0.0:
                    raise BuildError(
                        "only affine SmoothCustom terms (lipschitz == 0) have a "
                        "closed-form block update")
                block = next(b for b in form.focus if b.name == name)
                self.rhs[sl] -= np.ravel(item.grad(np.zeros(block.shape)))
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

    def dense_normal(self):
        """The normal matrix rho * A^T A + H, assembled from dense blocks.

        A stacks the rows of the equations the focus enters; each piece
        adds its ``dense()`` block at its equation's rows and its block's
        columns.  H adds each quadratic's weight times the gram of its map.
        """
        a = np.zeros((self.rows, self.form.in_dim))
        pos = 0
        for eq_id, plist in self.by_eq.items():
            shape = self.eq_shapes[eq_id]
            rows = slice(pos, pos + shape[0] * shape[1])
            for p in plist:
                a[rows, self.slices[p.block.name]] += p.dense()
            pos = rows.stop
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

    def normal_diag(self):
        """Diagonal of the normal operator, or None when it is not diagonal."""
        by_eq_block = {}
        for p in self.form.pieces:
            by_eq_block.setdefault((p.eq_id, p.block.name), []).append(p)
        eq_blocks = {}
        for (eq_id, name), _ in by_eq_block.items():
            eq_blocks.setdefault(eq_id, set()).add(name)
        if any(len(names) > 1 for names in eq_blocks.values()):
            return None
        diag = np.zeros(self.form.in_dim)
        for (eq_id, name), plist in by_eq_block.items():
            sl = self.slices[name]
            if all(p.identity is not None for p in plist):
                alpha = sum(p.identity for p in plist)
                diag[sl] += self.rho * alpha ** 2
                continue
            if len(plist) > 1:
                return None
            gd = plist[0].gram_diag()
            if gd is None:
                return None
            diag[sl] += self.rho * gd
        for name, q in self.quads:
            sl = self.slices[name]
            hd = q.hessian_diag(sl.stop - sl.start)
            if hd is None:
                return None
            diag[sl] += hd
        return diag

    def sylvester(self):
        """(chain_piece, scalar_curvature) when the one-chain pattern applies.

        Requires a single focus block entering exactly one equation through a
        frozen matrix chain, with every other equation contributing a scalar
        multiple of the identity to the normal operator.  Pieces sharing an
        equation would cross-couple, so the chain must be alone in its
        equation and gram-scalar pieces alone in theirs.
        """
        if len(self.form.focus) != 1:
            return None
        chains = [p for p in self.form.pieces if p.factors is not None]
        if len(chains) != 1:
            return None
        chain, ident = chains[0], 0.0
        for plist in self.by_eq.values():
            if all(p.identity is not None for p in plist):
                alpha = sum(p.identity for p in plist)
                ident += self.rho * alpha ** 2
                continue
            if len(plist) != 1:
                return None
            if plist[0] is chain:
                continue
            c = plist[0].gram_scalar()
            if c is None:
                return None
            ident += self.rho * c
        for _, q in self.quads:
            if q.linear_map is not None:
                return None
            ident += q.weight
        return chain, ident

    def densify_ok(self):
        """Whether the dense path applies: no Fourier piece, at most
        ``_DENSE_LIMIT`` columns and a stacked map of at most
        ``_DENSE_LIMIT ** 2`` entries."""
        n = self.form.in_dim
        if n > _DENSE_LIMIT or self.rows * n > _DENSE_LIMIT ** 2:
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


def _solve_cg(pieces: _QuadPieces, tol_abs, maxit, y0):
    y = np.zeros(pieces.form.in_dim) if y0 is None else np.ravel(y0).astype(float).copy()
    r = pieces.rhs - pieces.normal_apply(y)
    p = r.copy()
    rs = float(r @ r)
    if np.sqrt(rs) <= tol_abs:
        return y
    for _ in range(maxit):
        ap = pieces.normal_apply(p)
        denom = float(p @ ap)
        if denom <= 0:
            raise SubproblemError("normal operator lost positive definiteness",
                                  block=pieces.form.focus[0].name,
                                  residual=float(np.sqrt(rs)))
        alpha = rs / denom
        y += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= tol_abs:
            return y
        p = r + (rs_new / rs) * p
        rs = rs_new
    raise SubproblemError(
        f"conjugate gradients stalled at residual {np.sqrt(rs):.3e}",
        block=pieces.form.focus[0].name, residual=float(np.sqrt(rs)))


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
