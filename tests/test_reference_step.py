"""A dense reference step, checked against ``solver.step`` on random problems.

The reference reads each update unit's affine map by probing ``evaluate``
with unit vectors, never through ``freeze`` or a solve plan.  It solves a
unit by dense least squares, or, for a block with a nonsmooth term, whose
normal matrix is then kappa * I, by that term's prox with step 1 / kappa.
It takes the units in ``Problem``'s order, ascends every multiplier,
computes L by its formula, and the stationarity estimate from central
differences of L's smooth part (the subdifferential distance for a
nonsmooth block).  The objective terms are drawn with a description, which
the reference reads in place of the terms' own methods.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from madmm import (BuildError, DenseOp, IndicatorBox, IndicatorNonneg, L1,
                   Problem, Quadratic, ShapeMismatchError, SolverState,
                   evaluate, stack_residual, step)

from test_system import _random_system

STEPS = 3
# Iterates, multipliers and trace values agree to this, relative to 1 plus
# the reference's magnitude.  A draw is dropped when a unit's least-squares
# matrix has a singular value under SMALLEST or a condition number over
# COND: its minimizer is then set by rounding, not by the problem.
TOL = 1e-7
SMALLEST = 1e-3
COND = 1e4


def _draw_term(data, rng, n):
    """(term, description) of one objective term on an n x n block."""
    kind = data.draw(st.sampled_from(
        ["quad", "quad-scalar", "quad-dense", "l1", "nonneg", "box"]))
    if kind == "l1":
        weight = data.draw(st.floats(0.1, 2.0))
        return L1(weight), ("l1", weight)
    if kind == "nonneg":
        return IndicatorNonneg(), ("box", 0.0, np.inf)
    if kind == "box":
        lo = data.draw(st.sampled_from([-np.inf, -0.5, 0.0]))
        hi = data.draw(st.sampled_from([np.inf, 0.5, 1.5]))
        return IndicatorBox(lo, hi), ("box", lo, hi)
    weight = data.draw(st.floats(0.1, 2.0))
    mat = None
    if kind == "quad-scalar":  # alpha times a signed permutation
        mat = np.zeros((n * n, n * n))
        mat[np.arange(n * n), rng.permutation(n * n)] = (
            data.draw(st.floats(0.5, 2.0)) * rng.choice([-1.0, 1.0], n * n))
    elif kind == "quad-dense":
        mat = rng.standard_normal((data.draw(st.integers(1, n * n + 1)), n * n))
    op = None if mat is None else DenseOp(mat, (n, n), (mat.shape[0], 1))
    out = (n, n) if op is None else op.out_shape
    center = rng.standard_normal(out) if data.draw(st.booleans()) else None
    return Quadratic(weight, center, op), ("quad", weight, mat, center)


def _value(desc, x):
    x = np.ravel(x)
    if desc[0] == "quad":
        _, weight, mat, center = desc
        r = (x if mat is None else mat @ x) - (0.0 if center is None else np.ravel(center))
        return 0.5 * weight * float(r @ r)
    if desc[0] == "l1":
        return desc[1] * float(np.sum(np.abs(x)))
    ok = np.all(x >= desc[1] - 1e-8) and np.all(x <= desc[2] + 1e-8)
    return 0.0 if ok else np.inf


def _prox(desc, v, t):
    if desc[0] == "l1":
        return np.sign(v) * np.maximum(np.abs(v) - desc[1] * t, 0.0)
    return np.clip(v, desc[1], desc[2])


def _distance(desc, x, g):
    """Distance of -g to the term's subdifferential at x."""
    if desc[0] == "l1":
        lam = desc[1]
        r = np.where(np.abs(x) > 1e-12, np.abs(g + lam * np.sign(x)),
                     np.maximum(np.abs(g) - lam, 0.0))
        return float(np.linalg.norm(r))
    lo, hi = desc[1], desc[2]
    band = 1e-9 * (1.0 + (hi - lo if np.isfinite(hi - lo) else 0.0))
    at_lo, at_hi = x - lo <= band, hi - x <= band
    r = np.where(at_lo & at_hi, 0.0, np.where(at_lo, np.maximum(-g, 0.0),
                                              np.where(at_hi, np.maximum(g, 0.0), np.abs(g))))
    return float(np.linalg.norm(r))


def _residual(system, point):
    return stack_residual(evaluate(system, point))


def _unit_map(system, point, focus):
    """(A, c) with the stacked residual A y + c at the focus vector y."""
    point = {**point, **{b: np.zeros(b.shape) for b in focus}}
    c = _residual(system, point)
    cols = []
    for b in focus:
        for j in range(b.dim):
            point[b] = np.eye(1, b.dim, j).reshape(b.shape)
            cols.append(_residual(system, point) - c)
        point[b] = np.zeros(b.shape)
    return np.column_stack(cols), c


def _solve_unit(system, descs, point, w, rho, focus):
    """The focus vector minimizing L over ``focus``, others at ``point``."""
    a, c = _unit_map(system, point, focus)
    rows, target, nonsmooth = [np.sqrt(rho) * a], [-(w + rho * c) / np.sqrt(rho)], None
    start = 0
    for b in focus:
        for desc in descs.get(b.name, ()):
            if desc[0] != "quad":
                nonsmooth = desc
                continue
            _, weight, mat, center = desc
            mat = np.eye(b.dim) if mat is None else mat
            part = np.zeros((mat.shape[0], a.shape[1]))
            part[:, start:start + b.dim] = mat
            rows.append(np.sqrt(weight) * part)
            target.append(np.sqrt(weight) * (np.zeros(mat.shape[0]) if center is None
                                             else np.ravel(center)))
        start += b.dim
    s, t = np.vstack(rows), np.concatenate(target)
    sv = np.linalg.svd(s, compute_uv=False)
    assume(len(sv) == s.shape[1] and sv[-1] > SMALLEST and sv[0] < COND * sv[-1])
    if nonsmooth is None:
        return np.linalg.lstsq(s, t, rcond=None)[0]
    normal = s.T @ s
    kappa = normal[0, 0]
    np.testing.assert_allclose(normal, kappa * np.eye(len(normal)), rtol=0, atol=TOL * kappa)
    return _prox(nonsmooth, s.T @ t / kappa, 1.0 / kappa)


def _reference_step(problem, descs, state):
    """(assignment, multipliers, L, primal_res, stat_est, block_steps)."""
    system, rho = problem.system, state.rho
    point = dict(state.assignment)
    w = np.concatenate([np.ravel(state.multipliers[e]) for e in system.eq_ids])
    steps = {}
    for focus in [(b,) for b in problem.update_order] + list(problem.z_components()):
        y = _solve_unit(system, descs, point, w, rho, focus)
        for b, part in zip(focus, np.split(y, np.cumsum([b.dim for b in focus])[:-1])):
            steps[b.name] = float(np.linalg.norm(np.ravel(point[b]) - part))
            point[b] = part.reshape(b.shape)
    r = _residual(system, point)
    w = w + rho * r
    L = sum(_value(d, point[system.blocks[name]]) for name, ds in descs.items() for d in ds)
    L += float(w @ r) + 0.5 * rho * float(r @ r)
    stat = 0.0
    for b in system.blocks.values():
        smooth = [d for d in descs.get(b.name, ()) if d[0] == "quad"]

        def part(x):  # L's smooth part as a function of b alone
            return (sum(_value(d, x) for d in smooth)
                    + float(w @ _residual(system, {**point, b: x.reshape(b.shape)})))

        # That part is quadratic in b, so central differences are exact at
        # any width; a unit width keeps the rounding smallest.
        x = np.ravel(point[b])
        g = np.array([(part(x + e) - part(x - e)) / 2.0 for e in np.eye(b.dim)])
        rest = [d for d in descs.get(b.name, ()) if d[0] != "quad"]
        stat = max(stat, _distance(rest[0], x, g) if rest else float(np.linalg.norm(g)))
    shapes = [system.eq_shape(e) for e in system.eq_ids]
    cuts = np.cumsum([np.prod(s) for s in shapes])[:-1]
    mults = {e: v.reshape(s) for e, v, s in zip(system.eq_ids, np.split(w, cuts), shapes)}
    return point, mults, L, float(np.linalg.norm(r)), stat, steps


def _close(got, want, what):
    gap = np.linalg.norm(np.ravel(got) - np.ravel(want))
    assert gap <= TOL * (1.0 + np.linalg.norm(np.ravel(want))), f"{what}: {got} != {want}"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_step_matches_a_dense_reference_step(n, data):
    system, rng = _random_system(data, n, roles=("x", "z0"))
    objective, descs = {}, {}
    for b in system.blocks.values():
        for _ in range(data.draw(st.integers(0, 2))):
            term, desc = _draw_term(data, rng, n)
            objective.setdefault(b, []).append(term)
            descs.setdefault(b.name, []).append(desc)
    try:
        problem = Problem(system, objective)
    except (BuildError, ShapeMismatchError):
        assume(False)
    state = SolverState({b: rng.standard_normal(b.shape) for b in system.blocks.values()},
                        {e: rng.standard_normal(system.eq_shape(e)) for e in system.eq_ids},
                        data.draw(st.floats(0.5, 4.0)))
    for _ in range(STEPS):
        point, mults, L, primal, stat, steps = _reference_step(problem, descs, state)
        state, trace = step(problem, state)
        for b, v in point.items():
            _close(state.assignment[b], v, f"block {b.name}")
        for e, v in mults.items():
            _close(state.multipliers[e], v, f"multiplier {e}")
        for label, got, want in (("L", trace.L, L), ("primal_res", trace.primal_res, primal),
                                 ("stat_est", trace.stat_est, stat)):
            _close(got, want, label)
        assert trace.block_steps.keys() == steps.keys()
        for name, v in steps.items():
            _close(trace.block_steps[name], v, f"step of {name}")
