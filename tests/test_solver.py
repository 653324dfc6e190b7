"""Solver tests: hand-computed single iterations, Lagrangian bookkeeping,
penalty selection, and the proximal-tie transform."""

import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from madmm import zoo
from madmm.errors import BuildError, ShapeMismatchError, SubproblemError
from madmm.operators import DenseOp, DiagExtract, ScaledIdentity
from madmm.prox import (IndicatorBox, IndicatorNonneg, L1, ObjectiveTerm,
                        Quadratic, SmoothCustom, _uniform_or_diag)
from madmm.solver import (Problem, SolverState, STATUS_CONVERGED,
                          STATUS_DIVERGED, STATUS_MAXITER,
                          add_prox_constraint, augmented_lagrangian,
                          lambda_min_pos, rho_lower_bound, solve, step)
from madmm.system import (BlockId, Constant, Conv2D, HadamardPair,
                          LinearTerm, MatChain, MultiaffineSystem, evaluate,
                          freeze)


# ---------------------------------------------------------------------------
# Oracles and builders (independent of solver internals).

def _bilinear_toy():
    """min (1/2) x^2 + (1/2) z^2  s.t.  x z = 1, scalar blocks."""
    x = BlockId("x", "x", (1, 1))
    z = BlockId("z", "z0", (1, 1))
    system = MultiaffineSystem()
    system.add_equation([MatChain([x, z]), Constant([[1.0]], sign=-1)])
    problem = Problem(system, {x: [Quadratic(1.0)], z: [Quadratic(1.0)]})
    return problem, x, z


def _bilinear_sweep_oracle(x0, z0, w0, rho):
    """Exact x-then-z-then-w iteration of the toy, by the closed formulas."""
    x1 = (rho - w0) * z0 / (1.0 + rho * z0 * z0)
    z1 = (rho - w0) * x1 / (1.0 + rho * x1 * x1)
    w1 = w0 + rho * (x1 * z1 - 1.0)
    return x1, z1, w1


def _mini_nmf(m=4, n=4, r=2, mu=1.0, seed=3):
    """Nonnegative factorization toy with split-variable constraints.

    Blocks: Y, Y+ (nonneg), X, X+ (nonneg) swept in that order, then the
    shadow group Z, X'', Y''.  Equations: Z = X Y, X = X+ + X'',
    Y = Y+ + Y''.
    """
    rng = np.random.default_rng(seed)
    B = np.abs(rng.standard_normal((m, n)))
    Y = BlockId("Y", "x", (r, n), index=0)
    Yp = BlockId("Y_pos", "x", (r, n), index=1)
    X = BlockId("X", "x", (m, r), index=2)
    Xp = BlockId("X_pos", "x", (m, r), index=3)
    Z = BlockId("Z", "z1", (m, n))
    Xs = BlockId("X_small", "z1", (m, r))
    Ys = BlockId("Y_small", "z1", (r, n))
    system = MultiaffineSystem()
    system.add_equation([LinearTerm(ScaledIdentity(1.0, (m, n)), Z),
                         MatChain([X, Y], sign=-1)])
    system.add_equation([MatChain([X]), MatChain([Xp], sign=-1),
                         LinearTerm(ScaledIdentity(1.0, (m, r)), Xs, sign=-1)])
    system.add_equation([MatChain([Y]), MatChain([Yp], sign=-1),
                         LinearTerm(ScaledIdentity(1.0, (r, n)), Ys, sign=-1)])
    objective = {Z: [Quadratic(1.0, center=B)],
                 Xs: [Quadratic(mu)], Ys: [Quadratic(mu)],
                 Xp: [IndicatorNonneg()], Yp: [IndicatorNonneg()]}
    metadata = {"m1": min(1.0, mu), "M1": max(1.0, mu), "M2": 0.0, "M_F": 0.0}
    problem = Problem(system, objective, metadata=metadata)
    return problem, B


def _mini_nmf_lagrangian(B, mu, values, mults, rho):
    """Augmented Lagrangian of the mini factorization toy, from scratch."""
    Z, Xs, Ys = values["Z"], values["X_small"], values["Y_small"]
    X, Xp, Y, Yp = values["X"], values["X_pos"], values["Y"], values["Y_pos"]
    if min(np.min(Xp), np.min(Yp)) < -1e-8:
        return math.inf
    phi = 0.5 * np.sum((Z - B) ** 2) + 0.5 * mu * np.sum(Xs ** 2) \
        + 0.5 * mu * np.sum(Ys ** 2)
    residuals = [Z - X @ Y, X - Xp - Xs, Y - Yp - Ys]
    total = phi
    for w, res in zip(mults, residuals):
        total += np.sum(w * res) + 0.5 * rho * np.sum(res * res)
    return float(total)


def _grid_rho_oracle(threshold, m2=0.0, sigma=1.0):
    """Smallest 1e-3 * 1.05**k exceeding `threshold` and the slack condition."""
    rho = 1e-3
    while True:
        extra_ok = True
        if m2 > 0.0:
            extra_ok = sigma * rho / 2 - m2 ** 2 / (sigma * rho) > m2 / 2
        if rho > threshold and extra_ok:
            return rho
        rho *= 1.05


# ---------------------------------------------------------------------------
# Single iterations against hand values.

def test_one_step_bilinear_hand_values():
    problem, x, z = _bilinear_toy()
    state = SolverState({x: np.array([[1.0]]), z: np.array([[1.0]])},
                        {0: np.zeros((1, 1))}, 2.0, 0)
    new, trace = step(problem, state)
    assert new.assignment[x][0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert new.assignment[z][0, 0] == pytest.approx(12.0 / 17.0, abs=1e-15)
    assert new.multipliers[0][0, 0] == pytest.approx(-18.0 / 17.0, abs=1e-14)
    residual = (2.0 / 3.0) * (12.0 / 17.0) - 1.0
    assert trace.primal_res == pytest.approx(abs(residual), abs=1e-14)
    assert trace.dual_step == pytest.approx(2.0 * abs(residual), abs=1e-14)
    assert trace.k == 1 and new.k == 1


@settings(max_examples=60, deadline=None)
@given(x0=st.floats(-2, 2), z0=st.floats(-2, 2),
       w0=st.floats(-3, 3), rho=st.floats(0.5, 4.0))
def test_sweep_matches_closed_formulas(x0, z0, w0, rho):
    problem, x, z = _bilinear_toy()
    state = SolverState({x: np.array([[x0]]), z: np.array([[z0]])},
                        {0: np.array([[w0]])}, rho, 0)
    new, _ = step(problem, state)
    ex, ez, ew = _bilinear_sweep_oracle(x0, z0, w0, rho)
    assert new.assignment[x][0, 0] == pytest.approx(ex, abs=1e-12)
    assert new.assignment[z][0, 0] == pytest.approx(ez, abs=1e-12)
    assert new.multipliers[0][0, 0] == pytest.approx(ew, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(x0=st.floats(-2, 2), z0=st.floats(-2, 2),
       w0=st.floats(-3, 3), rho=st.floats(0.5, 4.0))
def test_dual_ascent_identity(x0, z0, w0, rho):
    """L(U+, W+) - L(U+, W) equals rho ||C(U+)||^2 equals ||dW||^2 / rho."""
    problem, x, z = _bilinear_toy()
    state = SolverState({x: np.array([[x0]]), z: np.array([[z0]])},
                        {0: np.array([[w0]])}, rho, 0)
    new, trace = step(problem, state)
    c_sq = trace.primal_res ** 2
    assert trace.dual_step ** 2 == pytest.approx(rho ** 2 * c_sq, rel=1e-12)
    before = augmented_lagrangian(
        problem, SolverState(new.assignment, state.multipliers, rho, 0))
    after = augmented_lagrangian(problem, new)
    assert after - before == pytest.approx(rho * c_sq,
                                           abs=1e-9 * (1 + abs(after)))


def test_augmented_lagrangian_matches_hand_computation():
    mu = 2.5
    problem, B = _mini_nmf(mu=mu)
    rng = np.random.default_rng(11)
    values = {b.name: rng.standard_normal(b.shape)
              for b in problem.system.blocks.values()}
    values["X_pos"] = np.abs(values["X_pos"])
    values["Y_pos"] = np.abs(values["Y_pos"])
    assignment = {b: values[b.name] for b in problem.system.blocks.values()}
    mults = [rng.standard_normal(problem.system.eq_shape(e))
             for e in problem.system.eq_ids]
    rho = 3.7
    state = SolverState(assignment, dict(zip(problem.system.eq_ids, mults)),
                        rho, 0)
    expected = _mini_nmf_lagrangian(B, mu, values, mults, rho)
    got = augmented_lagrangian(problem, state)
    assert got == pytest.approx(expected, rel=1e-12)

    # An infeasible nonnegative split sends L to +inf.
    bad = dict(assignment)
    bad[problem.system.blocks["X_pos"]] = values["X_pos"] - 10.0
    assert augmented_lagrangian(
        problem, SolverState(bad, state.multipliers, rho, 0)) == math.inf


def test_feasible_point_lagrangian_is_plain_objective():
    mu = 1.0
    problem, B = _mini_nmf(mu=mu)
    rng = np.random.default_rng(7)
    blocks = problem.system.blocks
    X = rng.standard_normal(blocks["X"].shape)
    Y = rng.standard_normal(blocks["Y"].shape)
    Xp, Yp = np.maximum(X, 0.0), np.maximum(Y, 0.0)
    values = {"X": X, "Y": Y, "X_pos": Xp, "Y_pos": Yp,
              "X_small": X - Xp, "Y_small": Y - Yp, "Z": X @ Y}
    assignment = {b: values[b.name] for b in blocks.values()}
    mults = {e: rng.standard_normal(problem.system.eq_shape(e))
             for e in problem.system.eq_ids}
    phi = 0.5 * np.sum((values["Z"] - B) ** 2) \
        + 0.5 * mu * np.sum(values["X_small"] ** 2) \
        + 0.5 * mu * np.sum(values["Y_small"] ** 2)
    got = augmented_lagrangian(problem, SolverState(assignment, mults, 9.0, 0))
    assert got == pytest.approx(phi, rel=1e-12)


def test_exact_fixed_point_is_stationary():
    """Consensus toy at its KKT point: nothing moves, exactly."""
    c, mu, rho = 2.0, 3.0, 2.0
    x = BlockId("x", "x", (1, 1))
    z = BlockId("z", "z1", (1, 1))
    system = MultiaffineSystem()
    system.add_equation([MatChain([x]),
                         LinearTerm(ScaledIdentity(1.0, (1, 1)), z, sign=-1)])
    problem = Problem(system, {x: [Quadratic(1.0, center=[[c]])],
                               z: [Quadratic(mu)]})
    star = c / (1.0 + mu)
    w_star = mu * c / (1.0 + mu)
    state = SolverState({x: np.array([[star]]), z: np.array([[star]])},
                        {0: np.array([[w_star]])}, rho, 0)
    new, trace = step(problem, state)
    assert trace.block_steps["x"] == 0.0
    assert trace.block_steps["z"] == 0.0
    assert trace.dual_step == 0.0
    assert trace.stat_est <= 1e-14
    assert new.multipliers[0][0, 0] == w_star


# ---------------------------------------------------------------------------
# The multiplier-escape construction, through the full solver.

def _escape_problem():
    x = BlockId("x", "x", (1, 1), index=0)
    y = BlockId("y", "x", (1, 1), index=1)
    system = MultiaffineSystem()
    system.add_equation([MatChain([x, y]), Constant([[1.0]], sign=-1)])
    problem = Problem(system, {x: [Quadratic(2.0)], y: [Quadratic(2.0)]})
    return problem, x, y


def test_multiplier_escape_linear_growth():
    problem, x, y = _escape_problem()
    state, traces, status = solve(problem, rho=1.0, max_iter=5,
                                  init={x: [[1.0]], "y": [[0.0]]})
    assert status == STATUS_MAXITER
    assert state.multipliers[0][0, 0] == -5.0
    for k, tr in enumerate(traces, start=1):
        assert tr.dual_step == 1.0
        assert tr.L == pytest.approx(k + 0.5, abs=1e-12)
    assert state.assignment[x][0, 0] == 0.0
    assert state.assignment[y][0, 0] == 0.0


def test_multiplier_escape_diverges_at_huge_rho():
    problem, x, y = _escape_problem()
    state, traces, status = solve(problem, rho=1e9, max_iter=2000,
                                  init={x: [[1.0]], y: [[0.0]]})
    assert status == STATUS_DIVERGED
    assert len(traces) <= 1001
    assert abs(state.multipliers[0][0, 0]) >= 1e12 or traces[-1].L > 1e12


# ---------------------------------------------------------------------------
# Full solves: convergence, determinism, certified penalties.

def test_bilinear_solve_converges():
    problem, x, z = _bilinear_toy()
    state, traces, status = solve(problem, rho=2.0, max_iter=200, seed=0)
    assert status == STATUS_CONVERGED
    assert traces[-1].primal_res <= 1e-8 * 2
    assert traces[-1].stat_est <= 1e-8
    assert state.assignment[x][0, 0] * state.assignment[z][0, 0] == \
        pytest.approx(1.0, abs=1e-7)


def test_solver_determinism_bit_for_bit():
    problem, _ = _mini_nmf(mu=1.5)
    s1, t1, st1 = solve(problem, rho=6.0, max_iter=40, seed=12)
    s2, t2, st2 = solve(problem, rho=6.0, max_iter=40, seed=12)
    assert st1 == st2 and len(t1) == len(t2)
    for a, b in zip(t1, t2):
        assert a.L == b.L
        assert a.primal_res == b.primal_res
        assert a.dual_step == b.dual_step
        assert a.stat_est == b.stat_est
        assert a.block_steps == b.block_steps
    for block, v in s1.assignment.items():
        assert np.array_equal(v, s2.assignment[block])
    for e, w in s1.multipliers.items():
        assert np.array_equal(w, s2.multipliers[e])


def test_certified_rho_and_monotone_descent():
    problem, _ = _mini_nmf(mu=1.0)
    state, traces, status = solve(problem, rho=None, max_iter=60, seed=4)
    expected = _grid_rho_oracle(4.5)
    assert state.rho == pytest.approx(expected, rel=1e-12)
    values = [tr.L for tr in traces]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9 * (1.0 + abs(a))


def test_probed_rho_without_metadata():
    problem, _ = _mini_nmf(mu=1.0)
    problem.metadata.clear()
    state, traces, status = solve(problem, rho=None, max_iter=30, seed=4)
    assert state.rho >= 1.0
    assert math.log2(state.rho) == pytest.approx(round(math.log2(state.rho)))
    assert all(math.isfinite(tr.L) for tr in traces)


def test_probed_rho_raises_when_every_probe_fails(monkeypatch):
    import madmm.solver as solver_mod

    tried = []

    def failing(problem, base, rho):
        tried.append(rho)
        return False

    monkeypatch.setattr(solver_mod, "_probe_ok", failing)
    problem, _ = _mini_nmf(mu=1.0)
    problem.metadata.clear()
    with pytest.raises(ValueError, match=r"rho = 549755813888\.0"):
        solve(problem, rho=None, max_iter=5, seed=4)
    assert tried == [2.0 ** k for k in range(40)]


def test_max_iter_zero_returns_initial_state():
    problem, x, z = _bilinear_toy()
    state, traces, status = solve(problem, rho=1.0, max_iter=0, seed=9)
    assert status == STATUS_MAXITER
    assert traces == []
    assert state.k == 0
    assert abs(np.linalg.norm(state.assignment[x]) - 1.0) < 1e-12


def test_init_override_and_shape_validation():
    problem, x, z = _bilinear_toy()
    state, _, _ = solve(problem, rho=1.0, max_iter=0,
                        init={"x": [[0.25]]}, seed=5)
    assert state.assignment[x][0, 0] == 0.25
    assert np.linalg.norm(state.assignment[z]) == pytest.approx(1.0)
    with pytest.raises(ShapeMismatchError):
        solve(problem, rho=1.0, max_iter=0, init={"x": np.ones((2, 2))})
    with pytest.raises(BuildError):
        solve(problem, rho=1.0, max_iter=0, init={"nope": [[1.0]]})
    with pytest.raises(ValueError):
        solve(problem, rho=-1.0, max_iter=1)
    with pytest.raises(ValueError):
        solve(problem, rho=1.0, max_iter=1, assert_level="chatty")


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_rho_is_refused(bad):
    # An infinite rho used to fail inside nmf3's Sylvester solve with
    # numpy's LinAlgError.
    inst = zoo.default_instance("nmf3", 0)
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        solve(inst.problem, rho=bad, max_iter=1, init=inst.init)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_init_with_non_finite_entries_is_refused_by_name(bad):
    inst = zoo.default_instance("nmf3", 0)
    with pytest.raises(BuildError, match="'X'"):
        solve(inst.problem, init={"X": np.full((20, 3), bad)})


def _bad_states(state, eq_id, shape):
    """(state, error type, message) per malformed variant of ``state``."""
    missing = dict(state.multipliers)
    del missing[eq_id]
    small = {**state.multipliers, eq_id: np.zeros((3, 3))}
    return [(SolverState(state.assignment, missing, state.rho), ShapeMismatchError,
             f"no multiplier for equation {eq_id}"),
            (SolverState(state.assignment, small, state.rho), ShapeMismatchError,
             re.escape(f"equation {eq_id} has shape (3, 3), expected {shape}")),
            *((SolverState(state.assignment, state.multipliers, rho), ValueError,
               "rho must be positive and finite") for rho in (0.0, -1.0, np.nan))]


@pytest.mark.parametrize("name", ["nmf3", "rp2"])
def test_a_malformed_state_is_refused_before_any_work(name):
    # A missing multiplier used to raise a bare KeyError, one of the wrong
    # shape numpy's reshape error, and a rho of 0, -1 or NaN a
    # SubproblemError about curvature; stationarity read a missing
    # equation as contributing nothing.
    from madmm.diagnostics import stationarity

    inst = zoo.default_instance(name, 0)
    problem = inst.problem
    state, _, _ = solve(problem, max_iter=1, init=inst.init)
    eq_id, shape = problem.system.constraint_dims()[-1]
    for bad, error, message in _bad_states(state, eq_id, shape):
        for entry in (step, augmented_lagrangian, stationarity):
            with pytest.raises(error, match=message) as info:
                entry(problem, bad)
            if error is ShapeMismatchError:
                assert info.value.eq_id == eq_id


def test_a_malformed_block_value_is_refused_by_name():
    # The step used to reach numpy with a wrong-shaped value of the first
    # unit's focus ("operands could not be broadcast together") and to raise
    # a bare KeyError(BlockId(...)) for a missing one.
    from madmm.diagnostics import stationarity

    problem = zoo.default_instance("nmf3", 0).problem
    state, _, _ = solve(problem, max_iter=1)
    y = problem.system.blocks["Y"]
    assert problem._units[0][0] == (y,)
    wide = {**state.assignment, y: np.zeros((y.shape[0], y.shape[1] + 1))}
    missing = {b: v for b, v in state.assignment.items() if b is not y}
    for entry in (step, augmented_lagrangian, stationarity):
        with pytest.raises(ShapeMismatchError, match=re.escape(
                f"value for block 'Y' has shape (3, 21), declared {y.shape}")) as info:
            entry(problem, SolverState(wide, state.multipliers, state.rho))
        assert info.value.block == "Y"
        with pytest.raises(KeyError, match="assignment missing block 'Y'"):
            entry(problem, SolverState(missing, state.multipliers, state.rho))


# ---------------------------------------------------------------------------
# The z group: joint exact solve, and components without one refused.

def test_joint_z_component_matches_analytic_solution():
    mu_a, mu_b, rho = 2.0, 5.0, 3.0
    c_b = np.array([[0.4], [-1.1]])
    x = BlockId("x", "x", (2, 1))
    za = BlockId("za", "z1", (2, 1))
    zb = BlockId("zb", "z1", (2, 1))
    system = MultiaffineSystem()
    system.add_equation([MatChain([x]),
                         LinearTerm(ScaledIdentity(1.0, (2, 1)), za, sign=-1),
                         LinearTerm(ScaledIdentity(1.0, (2, 1)), zb, sign=-1)])
    problem = Problem(system, {x: [Quadratic(1.0)],
                               za: [Quadratic(mu_a)],
                               zb: [Quadratic(mu_b, center=c_b)]})
    assert problem.z_components() == [(za, zb)]
    x0 = np.array([[1.2], [-0.3]])
    w0 = np.array([[0.7], [0.2]])
    state = SolverState({x: x0, za: np.zeros((2, 1)), zb: np.zeros((2, 1))},
                        {0: w0}, rho, 0)
    new, _ = step(problem, state)
    x1 = new.assignment[x]
    # Per coordinate the joint z update solves a 2x2 linear system.
    for i in range(2):
        A = np.array([[mu_a + rho, rho], [rho, mu_b + rho]])
        rhs = np.array([w0[i, 0] + rho * x1[i, 0],
                        w0[i, 0] + rho * x1[i, 0] + mu_b * c_b[i, 0]])
        za_e, zb_e = np.linalg.solve(A, rhs)
        assert new.assignment[za][i, 0] == pytest.approx(za_e, abs=1e-10)
        assert new.assignment[zb][i, 0] == pytest.approx(zb_e, abs=1e-10)


def _tangled_z(trigger, on="za"):
    """Two z blocks sharing an equation, plus the one obstacle `trigger` to
    their joint solve, a nonsmooth term or a custom updater placed on the
    block named `on`; returns Problem's arguments."""
    x = BlockId("x", "x", (3, 1))
    role = "z0" if trigger == "product" else "z1"
    za = BlockId("za", role, (3, 1))
    zb = BlockId("zb", role, (3, 1))
    system = MultiaffineSystem()
    system.add_equation([MatChain([x]),
                         LinearTerm(ScaledIdentity(1.0, (3, 1)), za, sign=-1),
                         LinearTerm(ScaledIdentity(1.0, (3, 1)), zb, sign=-1)])
    objective = {x: [Quadratic(1.0)], za: [Quadratic(2.0)], zb: [Quadratic(4.0)]}
    kwargs = {}
    if trigger == "nonsmooth":
        objective[{"za": za, "zb": zb}[on]] = [L1(0.3)]
    elif trigger == "custom":
        kwargs["custom_updaters"] = {on: lambda *a: np.zeros((3, 1))}
    else:
        system.add_equation([HadamardPair(za, zb), Constant(np.ones((3, 1)))])
    return system, objective, kwargs


# The unit plan reads only the first block's custom updater and nonsmooth
# term, so the obstacles on zb are refused by Problem._joint_obstacle alone.
_TANGLE_REASONS = {
    "nonsmooth": "block 'za' carries a nonsmooth term",
    "custom": "block 'za' has a custom updater",
    "product": "one term multiplies blocks ['za', 'zb']",
    "nonsmooth-zb": "block 'zb' carries a nonsmooth term",
    "custom-zb": "block 'zb' has a custom updater",
}


@pytest.mark.parametrize("trigger", list(_TANGLE_REASONS))
def test_z_component_without_exact_joint_update_is_refused(trigger):
    system, objective, kwargs = _tangled_z(*trigger.split("-"))
    with pytest.raises(BuildError) as info:
        Problem(system, objective, **kwargs)
    msg = str(info.value)
    assert msg.startswith("z blocks ['za', 'zb'] share an equation")
    assert _TANGLE_REASONS[trigger] in msg and "slack block" in msg


# ---------------------------------------------------------------------------
# Penalty bound and spectrum helpers.

def test_rho_lower_bound_identity_window():
    got = rho_lower_bound(1.0, 1.0, 0.0, 0.0, ScaledIdentity(1.0, (3, 3)), None)
    assert 4.5 < got <= 4.5 * 1.05
    assert got == pytest.approx(_grid_rho_oracle(4.5), rel=1e-12)
    # Passing an explicit identity for Q2 keeps the same bound when M2 == 0.
    same = rho_lower_bound(1.0, 1.0, 0.0, 0.0, np.eye(4), np.eye(2))
    assert same == got


def test_rho_lower_bound_with_z2_slack_condition():
    got = rho_lower_bound(1.0, 1.0, 1.0, 0.0, np.eye(3), np.eye(3))
    # Curvature condition needs rho > 9; the slack condition is milder here.
    assert got == pytest.approx(_grid_rho_oracle(9.0, m2=1.0, sigma=1.0),
                                rel=1e-12)
    assert got > 9.0


def test_rho_lower_bound_final_block_condition():
    r_map = DenseOp(np.diag([1.0, 2.0]))
    got = rho_lower_bound(1.0, 1.0, 0.0, 2.0, np.eye(2), None,
                          r_blocks=[(r_map, 3.0)])
    # (mu + M_F) / lambda_min(R^T R) = 5 exceeds the curvature bound 4.5.
    assert got == pytest.approx(_grid_rho_oracle(5.0), rel=1e-12)


def test_rho_lower_bound_rejections():
    with pytest.raises(ValueError, match="Q2 not injective"):
        rho_lower_bound(1.0, 1.0, 1.0, 0.0, np.eye(2),
                        np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="Q2 not injective"):
        rho_lower_bound(1.0, 1.0, 1.0, 0.0, np.eye(2), None)
    with pytest.raises(ValueError):
        rho_lower_bound(0.0, 1.0, 0.0, 0.0, np.eye(2), None)
    with pytest.raises(ValueError):
        rho_lower_bound(2.0, 1.0, 0.0, 0.0, np.eye(2), None)
    with pytest.raises(ValueError):
        rho_lower_bound(1.0, 1.0, -1.0, 0.0, np.eye(2), None)
    with pytest.raises(ValueError, match="not injective"):
        rho_lower_bound(1.0, 1.0, 0.0, 1.0, np.eye(2), None,
                        r_blocks=[(np.array([[1.0, 0.0], [0.0, 0.0]]), 1.0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_matrix_entries_are_refused_by_name(bad):
    # A NaN entry used to read "matrix has no positive eigenvalue", and an
    # infinite one raised numpy's RuntimeWarning first.
    with pytest.raises(ValueError, match="matrix has NaN or infinite entries"):
        lambda_min_pos(np.array([[1.0, bad], [bad, 1.0]]))
    with pytest.raises(ValueError, match="q1 has NaN or infinite entries"):
        rho_lower_bound(1.0, 1.0, 0.0, 0.0, np.diag([1.0, bad]), None)
    with pytest.raises(ValueError, match="q2 has NaN or infinite entries"):
        rho_lower_bound(1.0, 1.0, 1.0, 0.0, np.eye(2), np.diag([bad, 1.0]))


@pytest.mark.parametrize("name", ["m1", "M1", "M2", "M_F"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rho_lower_bound_refuses_a_non_finite_constant_by_name(name, bad):
    # A NaN M2 or M_F used to pass the sign checks (every comparison with
    # NaN is false) and certify a finite rho.
    constants = dict(m1=1.0, M1=1.0, M2=0.0, M_F=0.0)
    assert rho_lower_bound(*constants.values(), np.eye(3), np.eye(3)) > 0.0
    constants[name] = bad
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        rho_lower_bound(*constants.values(), np.eye(3), np.eye(3))


def test_non_finite_metadata_constant_certifies_no_rho():
    # Desk nmf3 with M_F = NaN used to certify rho = 4.63, as if M_F were 0.
    inst = zoo.default_instance("nmf3", 0)
    state, _, _ = solve(inst.problem, rho=None, max_iter=0, init=inst.init)
    assert math.isfinite(state.rho)
    inst.problem.metadata["M_F"] = float("nan")
    with pytest.raises(ValueError, match="^M_F must be finite"):
        solve(inst.problem, rho=None, max_iter=0, init=inst.init)


def test_gram_eigenvalues_evaluates_no_offset(monkeypatch):
    # The spectrum reads only the normal operator.  Assembling it with a
    # zero-dual right-hand side evaluated the offsets too: for sbd1 a full
    # convolution in every automatic rho selection.
    import madmm.solver as solver_mod
    import madmm.system as system_mod
    from madmm import zoo

    Y, *_ = zoo.gen_sbd_data(64, (16, 16), theta=0.05, bias=0.1, seed=0)
    problem = zoo.sbd1(Y, (16, 16)).problem
    spectra, offsets, ffts = [], [], []
    real_eigs = solver_mod._gram_eigenvalues
    real_offset = system_mod.FrozenLinearForm.offset_for

    def counting_eigs(q):
        spectra.append(q)
        try:
            return real_eigs(q)
        finally:
            spectra.append(None)

    def counting_offset(self, eq_id):
        if spectra and spectra[-1] is not None:
            offsets.append(eq_id)
        return real_offset(self, eq_id)

    def counting(name, real):
        def fft(*args, **kwargs):
            ffts.append(name)
            return real(*args, **kwargs)
        return fft

    monkeypatch.setattr(solver_mod, "_gram_eigenvalues", counting_eigs)
    monkeypatch.setattr(system_mod.FrozenLinearForm, "offset_for", counting_offset)
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn"):
        monkeypatch.setattr(np.fft, name, counting(name, getattr(np.fft, name)))
    solve(problem, max_iter=0)
    assert spectra, "the certified rho must read a spectrum"
    assert offsets == []
    # ||C(0)|| is read from the constant terms: evaluating every term at
    # zeros took a convolution of zero arrays, four transforms.
    assert ffts == []


def test_dense_op_forms_its_gram_once():
    calls = []

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                calls.append(ufunc)
            inputs = [np.asarray(a) for a in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    parity = np.array([[1.0, 1.0], [1.0, -1.0]]) / 2.0
    for mat, want in ((parity, np.array([0.5, 0.5])),
                      (np.diag([1.0, 2.0]), np.array([1.0, 4.0])),
                      (np.array([[1.0, 1.0], [0.0, 1.0]]), None)):
        op = DenseOp(mat)
        op.mat = op.mat.view(Counting)
        calls.clear()
        for _ in range(3):
            got = op.gram_diag()
            if want is None:
                assert got is None
            else:
                np.testing.assert_array_equal(got, want)
                got[:] = -7.0   # a caller's edit must not reach the next answer
        # The curvature rule reads the gram of c * I as the float c, and
        # any other diagonal (or None) as it is.
        uniform = _uniform_or_diag(op.gram_diag())
        if mat is parity:
            assert uniform == 0.5
        elif want is None:
            assert uniform is None
        else:
            np.testing.assert_array_equal(uniform, want)
        assert len(calls) == 1


def test_lambda_min_pos_examples():
    assert lambda_min_pos(np.eye(3)) == (1.0, 1.0)
    assert lambda_min_pos(np.diag([0.0, 2.0, 5.0])) == (0.0, 2.0)
    with pytest.raises(ValueError):
        lambda_min_pos(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        lambda_min_pos(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        lambda_min_pos(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_lambda_min_pos_matches_svd_oracle():
    rng = np.random.default_rng(21)
    A = rng.standard_normal((6, 4))
    gram = A.T @ A
    lam_min, lam_pp = lambda_min_pos(gram)
    sv = np.linalg.svd(A, compute_uv=False)
    assert lam_pp == pytest.approx(sv[-1] ** 2, rel=1e-9)
    assert lam_min == pytest.approx(sv[-1] ** 2, rel=1e-9)
    # A rank-deficient gram exposes the zero/positive split.
    B = A[:, :2] @ np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    lam_min, lam_pp = lambda_min_pos(B.T @ B)
    sv = np.linalg.svd(B, compute_uv=False)
    assert lam_min == 0.0
    assert lam_pp == pytest.approx(sv[1] ** 2, rel=1e-6)


# ---------------------------------------------------------------------------
# Proximal-tie constraints.

def test_prox_constraint_tracks_block_exactly():
    problem, x, z = _bilinear_toy()
    tied = add_prox_constraint(problem, "x", np.eye(1), rho=5.0)
    shadow = tied.system.blocks["x_prox"]
    assert shadow.role == "z1"
    eq_new = max(tied.system.eq_ids)
    state = SolverState(
        {b: np.full(b.shape, 0.8) for b in tied.system.blocks.values()},
        {e: np.zeros(tied.system.eq_shape(e)) for e in tied.system.eq_ids},
        2.0, 0)
    for _ in range(10):
        state, trace = step(tied, state)
        assert np.array_equal(state.assignment[shadow],
                              state.assignment[tied.system.blocks["x"]])
        assert np.all(state.multipliers[eq_new] == 0.0)


def test_prox_constraint_zero_matrix_is_inert():
    problem, x, z = _bilinear_toy()
    tied = add_prox_constraint(problem, x, np.zeros((1, 1)), rho=2.0)
    base_state, base_traces, _ = solve(problem, rho=2.0, max_iter=6, seed=1)
    tied_state, tied_traces, _ = solve(tied, rho=2.0, max_iter=6, seed=1)
    for name in ("x", "z"):
        assert np.array_equal(base_state.assignment[problem.system.blocks[name]],
                              tied_state.assignment[tied.system.blocks[name]])
    assert np.array_equal(base_state.multipliers[0], tied_state.multipliers[0])


def test_prox_constraint_anchored_update_is_optimal():
    """The shadow update zeroes the gradient of its subproblem even for a
    singular S and a nonzero multiplier."""
    rng = np.random.default_rng(17)
    x = BlockId("x", "x", (3, 1))
    z = BlockId("z", "z1", (3, 1))
    system = MultiaffineSystem()
    system.add_equation([MatChain([x]),
                         LinearTerm(ScaledIdentity(1.0, (3, 1)), z, sign=-1)])
    problem = Problem(system, {x: [Quadratic(1.0)], z: [Quadratic(1.0)]})
    A = rng.standard_normal((3, 2))
    S = A @ A.T  # rank 2, singular
    rho_tie = 3.0
    tied = add_prox_constraint(problem, x, S, rho=rho_tie)
    shadow = tied.system.blocks["x_prox"]
    eq_new = max(tied.system.eq_ids)
    assignment = {b: rng.standard_normal(b.shape)
                  for b in tied.system.blocks.values()}
    mults = {e: rng.standard_normal(tied.system.eq_shape(e))
             for e in tied.system.eq_ids}
    rho = 2.0
    updater = tied.custom_updaters[shadow.name]
    z_new = updater(tied, shadow, assignment, mults, rho)
    c = math.sqrt(2.0 / rho_tie)
    # Gradient of <w, c S12 (x - z')> + (rho/2) ||c S12 (x - z')||^2 at z_new,
    # projected onto the numerically nonzero eigenspace of S (the update
    # treats near-null directions of S as exactly null).
    s_half = _psd_sqrt(S)
    grad = -c * s_half @ np.ravel(mults[eq_new]) \
        - rho * c * c * S @ np.ravel(assignment[x] - z_new)
    lam, vecs = np.linalg.eigh(S)
    live = vecs[:, lam > 1e-10 * lam.max()]
    assert np.max(np.abs(live.T @ grad)) <= 1e-10
    assert np.max(np.abs(grad)) <= 1e-6


def _psd_sqrt(S):
    lam, vecs = np.linalg.eigh(S)
    return (vecs * np.sqrt(np.maximum(lam, 0.0))) @ vecs.T


def test_prox_constraint_rejections():
    problem, x, z = _bilinear_toy()
    with pytest.raises(ValueError):
        add_prox_constraint(problem, x, np.eye(1), rho=0.0)
    with pytest.raises(ShapeMismatchError):
        add_prox_constraint(problem, x, np.eye(2), rho=1.0)
    with pytest.raises(ValueError):
        add_prox_constraint(problem, x, np.array([[-1.0]]), rho=1.0)
    # A z block's shadow would share its equation under a custom updater,
    # with no exact joint update: refused up front, naming that block.
    with pytest.raises(BuildError, match=r"x-role block; 'z' has role 'z0'"):
        add_prox_constraint(problem, "z", np.eye(1), rho=1.0)
    # Curvature metadata does not survive onto the extended problem.
    problem.metadata.update({"m1": 1.0, "M1": 1.0})
    tied = add_prox_constraint(problem, x, np.eye(1), rho=1.0)
    assert "m1" not in tied.metadata


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_prox_constraint_refuses_a_non_finite_rho(bad):
    # An infinite rho built the tie with scale c = 0, whose anchored update
    # then divided by zero and the solve ended Diverged with L = nan.
    problem, x, z = _bilinear_toy()
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        add_prox_constraint(problem, x, np.eye(1), rho=bad)


def test_prox_constraint_drops_every_certificate_key():
    problem, _ = _mini_nmf(mu=1.0)
    problem.metadata.update({"r_blocks": [("Z", 0.0)], "note": "kept"})
    tied = add_prox_constraint(problem, "X", np.eye(problem.system.blocks["X"].dim),
                               rho=2.0)
    assert tied.metadata == {"note": "kept"}
    # With no constants left, the automatic rho is probed: a power of two.
    state, _, _ = solve(tied, rho=None, max_iter=0, seed=4)
    assert state.rho >= 1.0
    assert math.log2(state.rho) == round(math.log2(state.rho))


# ---------------------------------------------------------------------------
# Problem validation and error reporting.

def test_problem_validation_rejections():
    x = BlockId("x", "x", (2, 2), index=0)
    y = BlockId("y", "x", (2, 2), index=1)
    z = BlockId("z", "z1", (2, 2))
    system = MultiaffineSystem()
    system.add_equation([MatChain([x, y]),
                         LinearTerm(ScaledIdentity(1.0, (2, 2)), z, sign=-1)])
    with pytest.raises(BuildError, match="unknown block"):
        Problem(system, {"ghost": [Quadratic(1.0)]})
    with pytest.raises(BuildError, match="at most one"):
        Problem(system, {x: [L1(1.0), IndicatorNonneg()]})
    with pytest.raises(BuildError, match="ObjectiveTerm"):
        Problem(system, {x: ["not a term"]})
    # x enters through a frozen right-multiplication: no exact prox.
    with pytest.raises(BuildError, match="custom updater"):
        Problem(system, {x: [L1(1.0)]})
    # ... unless a custom updater takes over that block.
    Problem(system, {x: [L1(1.0)]},
            custom_updaters={"x": lambda *a: np.zeros((2, 2))})

    class ProxOnly(ObjectiveTerm):
        def value(self, v):
            return 0.0

        def prox(self, point, step):
            return np.asarray(point, dtype=float)

    # The stationarity estimate needs stat_residual on every nonsmooth
    # term, custom-updated blocks included.
    with pytest.raises(BuildError, match="stat_residual"):
        Problem(system, {x: [ProxOnly()]},
                custom_updaters={"x": lambda *a: np.zeros((2, 2))})
    with pytest.raises(BuildError, match="curvature"):
        Problem(system, {x: [SmoothCustom(lambda v: 0.0,
                                          lambda v: v, lipschitz=2.0)]})
    # A quadratic without a scalar gram on a block taking a proximal step
    # is refused when the problem is built, not at its first step.
    u = BlockId("u", "x", (3, 3), index=0)
    v = BlockId("v", "z1", (3, 3))
    diag_system = MultiaffineSystem()
    diag_system.add_equation([MatChain([u]),
                              LinearTerm(ScaledIdentity(1.0, (3, 3)), v, sign=-1)])
    with pytest.raises(BuildError, match="scalar gram"):
        Problem(diag_system, {u: [L1(1.0), Quadratic(1.0, linear_map=DiagExtract(3))]})
    Problem(diag_system, {u: [L1(1.0), Quadratic(1.0, linear_map=DiagExtract(3))]},
            custom_updaters={"u": lambda *a: np.zeros((3, 3))})
    with pytest.raises(BuildError, match="unknown block"):
        Problem(system, custom_updaters={"ghost": lambda *a: None})


def _linear_tie():
    """x - z = 0 for a 2x2 x block and a 2x2 z1 block."""
    x = BlockId("x", "x", (2, 2))
    z = BlockId("z", "z1", (2, 2))
    system = MultiaffineSystem()
    system.add_equation([MatChain([x]), LinearTerm(ScaledIdentity(1.0, (2, 2)), z, sign=-1)])
    return system, x, z


def test_block_named_twice_is_refused():
    # By its BlockId and by its name: one entry would silently win.
    system, x, z = _linear_tie()
    with pytest.raises(BuildError, match="objective names block 'z' twice"):
        Problem(system, {z: [Quadratic(1.0)], "z": [Quadratic(5.0, np.ones((2, 2)))]})
    problem = Problem(system, {x: [Quadratic(1.0)], "z": [Quadratic(1.0)]})
    with pytest.raises(BuildError, match="init names block 'x' twice"):
        solve(problem, rho=1.0, max_iter=0,
              init={x: np.ones((2, 2)), "x": np.zeros((2, 2))})


@pytest.mark.parametrize("term,reason", [
    (Quadratic(1.0, np.ones((1, 2))), "its center has shape (1, 2), expected (2, 2)"),
    (Quadratic(1.0, linear_map=DiagExtract(3)), "its map takes shape (3, 3)"),
    (Quadratic(1.0, np.ones((2, 2)), DiagExtract(2)),
     "its center has shape (2, 2), expected (2, 1)"),
    (IndicatorBox(np.zeros((3, 1)), 1.0),
     "its bounds of shapes (3, 1) and () do not broadcast to it"),
    (IndicatorBox(0.0, np.ones((2, 2, 1))),
     "its bounds of shapes () and (2, 2, 1) do not broadcast to it"),
], ids=["center", "map", "center-after-map", "box-rows", "box-rank"])
def test_objective_term_that_does_not_fit_its_block_is_refused(term, reason):
    system, x, z = _linear_tie()
    with pytest.raises(ShapeMismatchError) as info:
        Problem(system, {"z": [Quadratic(1.0)], x: [term]})
    assert info.value.block == "x"
    assert str(info.value) == (f"{type(term).__name__} on block 'x' of shape "
                               f"(2, 2) does not fit: {reason}")


def test_objective_terms_that_fit_their_blocks_build():
    system, x, z = _linear_tie()
    Problem(system, {x: [Quadratic(1.0, np.ones((2, 1)), DiagExtract(2))],
                     z: [IndicatorBox(np.zeros((2, 1)), np.ones((1, 2)))]})
    Problem(system, {x: [IndicatorBox(-1.0, 1.0)], z: [Quadratic(2.0, np.ones((2, 2)))]})


def test_affine_smooth_custom_gradient_is_taken_once_per_plan():
    g = np.array([[1.0, -2.0], [0.5, 3.0]])
    calls = []

    def grad_fn(v):
        calls.append(v)
        return g

    system, x, z = _linear_tie()
    cut = SmoothCustom(lambda v: float(np.sum(g * v)), grad_fn, lipschitz=0.0)
    problem = Problem(system, {x: [Quadratic(1.0), cut], z: [Quadratic(1.0)]})
    assert len(calls) == 1  # by x's plan, when it is built
    state, _, _ = solve(problem, rho=1.0, max_iter=0)
    for _ in range(5):
        state, _ = step(problem, state)
    # The x updates take none; each step's stationarity estimate takes one,
    # at the block's value.
    assert len(calls) == 1 + 5
    assert calls[-1] is state.assignment[x]


def test_affine_gradient_of_the_wrong_size_is_refused_by_block():
    # The plan takes the constant gradient when it is built, so it checks
    # its size there; the first step used to fail to reshape it instead.
    system, x, z = _linear_tie()
    bad = SmoothCustom(lambda v: 0.0, lambda v: np.ones(3), lipschitz=0.0)
    with pytest.raises(ShapeMismatchError) as info:
        Problem(system, {x: [Quadratic(1.0), bad], z: [Quadratic(1.0)]})
    assert info.value.block == "x"
    assert str(info.value) == ("the constant gradient of SmoothCustom on block "
                               "'x' has 3 entries; the block has 4")


def test_subproblem_error_names_block_and_iteration():
    problem, x, z = _bilinear_toy()
    broken = Problem(problem.system,
                     {x: [Quadratic(1.0)], z: [Quadratic(1.0)]},
                     custom_updaters={"x": lambda *a: np.zeros((3, 3))})
    state = SolverState({x: np.array([[1.0]]), z: np.array([[1.0]])},
                        {0: np.zeros((1, 1))}, 1.0, 4)
    with pytest.raises(SubproblemError) as err:
        step(broken, state)
    assert err.value.block == "x"
    assert err.value.k == 5


def test_status_strings():
    assert STATUS_CONVERGED == "Converged"
    assert STATUS_MAXITER == "MaxIter"
    assert STATUS_DIVERGED == "Diverged"


def _hadamard_l1_problem():
    """L1 on a 1x1 x in x * y - z = 0.5, quadratics on y and z.  The prox
    step of x reads y**2 as its curvature, and y reaches exactly zero once
    the soft threshold sends x to zero."""
    x = BlockId("x", "x", (1, 1), index=0)
    y = BlockId("y", "x", (1, 1), index=1)
    z = BlockId("z", "z1", (1, 1))
    system = MultiaffineSystem()
    system.add_equation([HadamardPair(x, y),
                         LinearTerm(ScaledIdentity(1.0, (1, 1)), z, sign=-1),
                         Constant([[0.5]], sign=-1)])
    return Problem(system, {x: [L1(0.1)], y: [Quadratic(1.0)],
                            z: [Quadratic(1.0)]})


def test_zero_curvature_at_run_time_is_a_subproblem_error():
    problem = _hadamard_l1_problem()
    with pytest.raises(SubproblemError) as err:
        solve(problem, rho=2.0, max_iter=20)
    assert err.value.k >= 1
    assert err.value.block == "x"
    # The penalty probe counts the failure as a failed trial, so no
    # BuildError escapes: the doubling finds a rho or gives up, and the
    # run at that rho may meet the zero later.
    try:
        solve(problem, rho=None, max_iter=20)
    except BuildError as exc:
        pytest.fail(f"BuildError escaped the probe: {exc}")
    except SubproblemError as exc:
        assert exc.block == "x" and exc.k > 10
    except ValueError as exc:
        assert "no admissible rho" in str(exc)


@pytest.mark.parametrize("name", ["nmf3", "rp2", "mc1", "rpca2"])
def test_steps_build_no_plan_and_run_no_curvature_rule(monkeypatch, name):
    from madmm import prox, zoo

    inst = zoo.default_instance(name, 0)
    state, _, _ = solve(inst.problem, max_iter=1, init=inst.init)
    built, rules = [], []
    real_init, real_rule = prox._SolvePlan.__init__, prox._curvature_rule

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def counting_rule(*args, **kwargs):
        rules.append(args)
        return real_rule(*args, **kwargs)

    monkeypatch.setattr(prox._SolvePlan, "__init__", counting_init)
    monkeypatch.setattr(prox, "_curvature_rule", counting_rule)
    for _ in range(10):
        state, _ = step(inst.problem, state)
    assert built == [] and rules == []
    # Building a problem builds its plans, and runs the rule there.
    zoo.default_instance(name, 0)
    assert built and rules


@pytest.mark.parametrize("name", zoo.zoo_names())
def test_building_a_problem_runs_the_curvature_rule_once_per_unit(monkeypatch, name):
    # One rule per plan: it alone decides the diagonal, Sylvester and prox
    # paths, and custom-updated units build no plan.
    from madmm import prox

    rules = []
    real_rule = prox._curvature_rule

    def counting_rule(*args, **kwargs):
        rules.append(args)
        return real_rule(*args, **kwargs)

    monkeypatch.setattr(prox, "_curvature_rule", counting_rule)
    units = zoo.default_instance(name, 0).problem._units
    assert len(rules) == sum(plan is not None for _, plan in units)


def test_a_refused_problem_leaves_an_open_system_open():
    # x * y - x + 1 = 0 with L1 on x: x's solve plan, built after the first
    # freeze, finds no exact proximal step.  That freeze fixed the system,
    # so the caller could not even add a slack equation to it.
    x = BlockId("x", "x", (2, 2), index=0)
    y = BlockId("y", "x", (2, 2), index=1)
    s = BlockId("s", "z0", (2, 2))
    system = MultiaffineSystem()
    system.add_equation([HadamardPair(x, y), MatChain([x], sign=-1),
                         Constant(np.ones((2, 2)))])
    with pytest.raises(BuildError, match="no exact proximal step"):
        Problem(system, {x: [L1(0.1)]})
    assert system._terms is None and system._plans == {}
    system.add_equation([MatChain([x]), MatChain([s], sign=-1)])
    Problem(system, {x: [L1(0.1)]}, custom_updaters={
        "x": lambda problem, block, assignment, multipliers, rho: assignment[block] + 0.0})
    # A system frozen before the refused build stays frozen.
    frozen = MultiaffineSystem()
    frozen.add_equation([HadamardPair(x, y), MatChain([x], sign=-1),
                         Constant(np.ones((2, 2)))])
    freeze(frozen, y, {x: np.ones((2, 2))})
    with pytest.raises(BuildError, match="no exact proximal step"):
        Problem(frozen, {x: [L1(0.1)]})
    with pytest.raises(BuildError, match="frozen"):
        frozen.add_equation([MatChain([x]), MatChain([s], sign=-1)])


def test_building_a_problem_fixes_its_system():
    # A freeze, or a built Problem, fixes the system: a later equation is
    # refused and changes nothing, also when no unit of the problem has a
    # plan that froze it, or the system has no blocks at all.
    x = BlockId("x", "x", (1, 1))
    z = BlockId("z", "z0", (1, 1))

    def keep(problem, block, assignment, multipliers, rho):
        return assignment[block] + 0.0

    builds = {
        "freeze": lambda system: freeze(system, x, {z: np.ones((1, 1))}),
        "problem": lambda system: Problem(system, {x: [Quadratic(1.0)],
                                                   z: [Quadratic(1.0)]}),
        "custom updaters only": lambda system: Problem(
            system, custom_updaters={"x": keep, "z": keep}),
        "no blocks": Problem,
    }
    for how, build in builds.items():
        system = MultiaffineSystem()
        if how != "no blocks":
            system.add_equation([MatChain([x, z]), Constant([[1.0]], sign=-1)])
        build(system)
        equations, blocks = list(system.equations), dict(system.blocks)
        plans = dict(system._plans)
        with pytest.raises(BuildError, match="frozen"):
            system.add_equation([MatChain([x]), Constant([[0.25]], sign=-1)])
        assert system.equations == equations, how
        assert system.blocks == blocks and system._plans == plans, how
    # The refusal leaves a built problem stepping as it did.
    problem, x, z = _bilinear_toy()
    state, _, _ = solve(problem, rho=2.0, max_iter=2)
    one, tr_one = step(problem, state)
    with pytest.raises(BuildError, match="frozen"):
        problem.system.add_equation([MatChain([x]), Constant([[0.25]], sign=-1)])
    pickle.dumps(problem.system)
    two, tr_two = step(problem, state)
    assert tr_one.L == tr_two.L and tr_one.block_steps == tr_two.block_steps
    for b in one.assignment:
        assert np.array_equal(one.assignment[b], two.assignment[b])


@pytest.mark.parametrize("entry", ["check_assumptions", "stationarity",
                                   "augmented_lagrangian", "assert_iteration"])
def test_entry_points_refuse_a_problem_whose_system_grew(entry):
    # The system of a built problem cannot grow: the equation is refused
    # before any entry point could read a record kept for fewer equations,
    # and each entry point, run once before, answers as it did.
    from madmm import diagnostics

    inst = zoo.default_instance("nmf3", 0)
    problem = inst.problem
    state, _, _ = solve(problem, max_iter=1, init=inst.init)
    after, _ = step(problem, state)
    call = {
        "check_assumptions": lambda: diagnostics.check_assumptions(
            problem, samples=2).as_dict(),
        "stationarity": lambda: diagnostics.stationarity(problem, after),
        "augmented_lagrangian": lambda: augmented_lagrangian(problem, after),
        "assert_iteration": lambda: diagnostics.assert_iteration(problem, state, after),
    }[entry]
    first = call()
    w = BlockId("w_new", "x", (1, 1), index=99)
    with pytest.raises(BuildError, match="frozen"):
        problem.system.add_equation([MatChain([w]), Constant([[1.0]], sign=-1)])
    assert "w_new" not in problem.system.blocks
    assert call() == first


def test_cg_units_step_to_the_dense_normal_equations():
    # A convolution has no dense or diagonal solve, so both of its blocks
    # take conjugate gradients, started from their current values.  The
    # signal's new value solves, to the CG tolerance, the normal equations
    # of L over it at the new kernel, the old Z and the old multiplier.
    from test_system import _conv_direct

    kernel = BlockId("A", "x", (2, 2), index=0)
    signal = BlockId("X", "x", (4, 4), index=1)
    z = BlockId("Z", "z1", (4, 4))
    system = MultiaffineSystem()
    system.add_equation([Conv2D(kernel, signal),
                         LinearTerm(ScaledIdentity(1.0, (4, 4)), z, sign=-1)])
    target = np.random.default_rng(3).standard_normal((4, 4))
    problem = Problem(system, {kernel: [Quadratic(1.0)], signal: [Quadratic(0.5)],
                               z: [Quadratic(1.0, center=target)]})
    assert [(f[0].name, plan.path) for f, plan in problem._units] == \
        [("A", "cg"), ("X", "cg"), ("Z", "diag")]
    rho = 2.0
    state, _, _ = solve(problem, rho=rho, max_iter=2)
    new, _ = step(problem, state)
    conv = np.column_stack([
        np.ravel(_conv_direct(new.assignment[kernel], e.reshape(4, 4)))
        for e in np.eye(16)])
    normal = 0.5 * np.eye(16) + rho * conv.T @ conv
    rhs = conv.T @ (rho * np.ravel(state.assignment[z])
                    - np.ravel(state.multipliers[0]))
    want = np.linalg.solve(normal, rhs).reshape(4, 4)
    np.testing.assert_allclose(new.assignment[signal], want, rtol=0, atol=1e-9)
    assert not np.allclose(new.assignment[signal], state.assignment[signal])


@pytest.mark.parametrize("name", zoo.zoo_names())
def test_step_never_writes_into_its_inputs(name):
    # A step rewrites in place only its scratch, its memo's slots and the
    # arrays of a state given up as ``out``: never the state it steps
    # from, and never an array that a public call hands back.
    from madmm.solver import _stationarity
    from madmm.system import _block_adjoints, _checked_values, freeze

    inst = zoo.default_instance(name, 0)
    problem = inst.problem
    state, _, _ = solve(problem, max_iter=2, init=inst.init)
    before = ({b: v.tobytes() for b, v in state.assignment.items()},
              {e: w.tobytes() for e, w in state.multipliers.items()})
    step(problem, state)
    augmented_lagrangian(problem, state)
    _stationarity(problem, state.assignment, state.multipliers)
    assert ({b: v.tobytes() for b, v in state.assignment.items()},
            {e: w.tobytes() for e, w in state.multipliers.items()}) == before
    held = list(state.assignment.values())
    made = evaluate(problem.system, state.assignment)
    made += _block_adjoints(problem.system,
                            _checked_values(problem.system, state.assignment),
                            state.multipliers).values()
    for focus, _ in problem._units:
        form = freeze(problem.system, focus, state.assignment)
        made += [form.offset_for(e) for e in form.plan.rows]
    assert not any(np.shares_memory(a, v) for a in made for v in held)


def _state_bytes(state):
    return ({b.name: v.tobytes() for b, v in state.assignment.items()},
            {e: w.tobytes() for e, w in state.multipliers.items()})


def _trace_row(tr):
    return (tr.k, tr.L, tr.primal_res, tr.dual_step, tr.block_steps,
            tr.stat_est, tr.violations)


@pytest.mark.parametrize("name", ["nmf3", "dl3", "rp2", "mc1", "rpca2", "sbd1"])
def test_no_kept_state_aliases_the_step_scratch(name):
    # A step writes what dies inside it into scratch its Problem reuses, and
    # a new value may go into an array of a state nothing holds any more;
    # no state a caller keeps may see either.  This pins a contract the
    # parent's fresh temporaries met too.
    inst = zoo.default_instance(name, 0)
    problem = inst.problem
    state, _, _ = solve(problem, max_iter=1, init=inst.init)
    kept, seen = [state], [_state_bytes(state)]
    for _ in range(3):
        state, _ = step(problem, state)
        kept.append(state)
        seen.append(_state_bytes(state))
    assert [_state_bytes(s) for s in kept] == seen
    # The same kept state, stepped twice; what public calls return is the
    # caller's too.
    made = [*evaluate(problem.system, state.assignment),
            freeze(problem.system, problem._units[-1][0], state.assignment).offset]
    before = [a.tobytes() for a in made]
    (one, tr_one), (two, tr_two) = step(problem, kept[1]), step(problem, kept[1])
    assert _state_bytes(one) == _state_bytes(two) == seen[2]
    assert _trace_row(tr_one) == _trace_row(tr_two)
    assert [a.tobytes() for a in made] == before
    # assert_iteration reads the old state after each step.
    _, plain, _ = solve(problem, max_iter=6, init=inst.init)
    _, checked, _ = solve(problem, max_iter=6, init=inst.init, assert_level="basic")
    assert [(t.L, t.primal_res) for t in plain] == [(t.L, t.primal_res) for t in checked]


def _views(state):
    """Views of each of the state's arrays, with the bytes each shows now."""
    arrays = [*state.assignment.values(), *state.multipliers.values()]
    views = [v for a in arrays for v in (a[1:], a.T, np.asarray(memoryview(a)))]
    return views, [v.tobytes() for v in views]


@pytest.mark.parametrize("name", ["nmf3", "rpca2", "rp2", "sbd1"])
def test_held_states_and_their_views_never_change(name):
    # A step writes only into the arrays of a state given up as ``out``:
    # every state a caller holds, and every view of its arrays, keeps its
    # bytes across solves at each assert level, which give up states of
    # their own, and across public steps with and without ``out``.
    inst = zoo.default_instance(name, 0)
    problem = inst.problem
    held = []

    def hold(state):
        held.append((state, _state_bytes(state), *_views(state)))
        return state

    first = hold(solve(problem, max_iter=4, init=inst.init)[0])
    for level in ("none", "basic", "strict"):
        hold(solve(problem, max_iter=6, init=first.assignment, assert_level=level)[0])
    state = hold(step(problem, first)[0])
    spare = step(problem, state)[0]
    state = hold(step(problem, state, out=spare)[0])
    hold(step(problem, state, out=step(problem, state)[0])[0])
    for state, want, views, bytes_ in held:
        assert _state_bytes(state) == want
        assert [v.tobytes() for v in views] == bytes_


def test_traces_match_across_assert_levels():
    # The checks read the previous state after each step, so solve gives up
    # the state from three steps back instead of two there; the iterates
    # are the same to the bit.
    for name in ("nmf3", "rpca2", "sbd0"):
        inst = zoo.default_instance(name, 0)
        runs = [solve(inst.problem, max_iter=8, init=inst.init, assert_level=level)
                for level in ("none", "basic", "strict")]
        states = [_state_bytes(state) for state, _, _ in runs]
        traces = [[_trace_values(t) for t in traces] for _, traces, _ in runs]
        assert states[0] == states[1] == states[2], name
        assert traces[0] == traces[1] == traces[2], name


def test_solve_and_the_probe_never_write_into_what_they_start_from(monkeypatch):
    # sbd0 starts from its init and probes rho; rpca2 probes from a draw.
    # Neither an init array nor the probe's base changes, and no state
    # solve returns holds one of them.
    import madmm.solver as solver_mod

    for name in ("sbd0", "rpca2"):
        inst = zoo.default_instance(name, 0)
        init = {key: np.array(v, dtype=float) for key, v in (inst.init or {}).items()}
        before = {key: v.tobytes() for key, v in init.items()}
        bases, real = [], solver_mod._probe_ok

        def probe(problem, base, rho, *args, real=real):
            held = {b: v.tobytes() for b, v in base.items()}
            ok = real(problem, base, rho, *args)
            bases.append({b: v.tobytes() for b, v in base.items()} == held)
            return ok

        monkeypatch.setattr(solver_mod, "_probe_ok", probe)
        state, _, _ = solve(inst.problem, max_iter=8, init=init or None)
        assert bases and all(bases), name
        assert {key: v.tobytes() for key, v in init.items()} == before
        assert not any(np.shares_memory(v, a) for v in init.values()
                       for a in state.assignment.values())


def _nmf_spares():
    """A small nmf3 problem, a state to step from and a spare to give up."""
    problem = zoo.nmf3(zoo.gen_nmf_data(6, 5, 2, seed=0)[0], 2).problem
    state, _, _ = solve(problem, max_iter=3)
    return problem, state, step(problem, state)[0]


def test_a_given_up_state_is_written_into_and_left_empty():
    # The new multipliers and the diagonal path's lone blocks go into the
    # spare's arrays; its other arrays are released, and reading the spare
    # raises KeyError rather than show overwritten values.  The bits are
    # those of a step without out.
    problem, state, spare = _nmf_spares()
    z = problem._resolve("Z")
    mults, zs = dict(spare.multipliers), spare.assignment[z]
    want, tr_want = step(problem, state)
    got, tr_got = step(problem, state, out=spare)
    assert _state_bytes(got) == _state_bytes(want)
    assert _trace_values(tr_got) == _trace_values(tr_want)
    assert all(np.shares_memory(got.multipliers[e], w) for e, w in mults.items())
    assert np.shares_memory(got.assignment[z], zs)
    assert spare.assignment == {} and spare.multipliers == {}
    with pytest.raises(KeyError):
        spare.assignment[z]
    with pytest.raises(KeyError):
        spare.multipliers[0]
    # A spare with no arrays only allocates.
    assert _state_bytes(step(problem, state, out=SolverState({}, {}, 1.0))[0]) \
        == _state_bytes(want)


def test_step_refuses_a_destination_it_cannot_own():
    problem, state, _ = _nmf_spares()
    z = problem._resolve("Z")
    z_shape = z.shape

    def refused(error, match, assignment=None, multipliers=None):
        out = SolverState(dict(assignment or {}), dict(multipliers or {}), 1.0)
        before = (dict(out.assignment), dict(out.multipliers))
        with pytest.raises(error, match=match) as info:
            step(problem, state, out=out)
        assert (out.assignment, out.multipliers) == before  # a refusal keeps out
        return info.value

    before = _state_bytes(state)
    with pytest.raises(ValueError, match="other than the one stepped from"):
        step(problem, state, out=state)
    for out in (SolverState(state.assignment, {}, 1.0),
                SolverState({}, state.multipliers, 1.0)):
        with pytest.raises(ValueError, match="other than the one stepped from"):
            step(problem, state, out=out)
    # Memory that a value of the state uses, in any form.
    refused(ValueError, "multiplier 0 may share memory",
            multipliers={0: state.multipliers[0]})
    refused(ValueError, "block 'Z' may share memory",
            assignment={z: state.assignment[z].view()})
    refused(ValueError, "block 'Z' may share memory",
            assignment={z: np.frombuffer(state.assignment[z]).reshape(z_shape)})
    # A state value that no array owns, here read through a memoryview.
    own = np.array(state.assignment[z])
    viewed = SolverState({**state.assignment, z: np.asarray(memoryview(own))},
                         state.multipliers, state.rho)
    with pytest.raises(ValueError, match="block 'Z' may share memory"):
        step(problem, viewed, out=SolverState({z: own}, {}, 1.0))
    # Two arrays of out on one memory.
    shared = np.empty(z_shape)
    refused(ValueError, "block 'Z' may share memory with .* another array of out",
            assignment={z: shared}, multipliers={0: shared})
    # Disjoint halves of one array are two destinations.
    halves = np.empty((2, *z_shape))
    got, _ = step(problem, state, out=SolverState({z: halves[1]}, {0: halves[0]}, 1.0))
    assert _state_bytes(got) == _state_bytes(step(problem, state)[0])
    assert np.shares_memory(got.multipliers[0], halves[0])
    # Shapes and kinds.
    err = refused(ShapeMismatchError, "multiplier 0 has shape",
                  multipliers={0: np.empty((2, 2))})
    assert err.eq_id == 0
    err = refused(ShapeMismatchError, "block 'Z' has shape",
                  assignment={z: np.empty((1, 1))})
    assert err.block == "Z"
    frozen = np.empty(z_shape)
    frozen.flags.writeable = False
    for bad in (frozen, np.empty(z_shape, dtype=np.float32), np.empty(z_shape[::-1]).T,
                [[0.0] * z_shape[1]] * z_shape[0]):
        refused(ValueError, "block 'Z' is not a writeable C-contiguous float array",
                assignment={z: bad})
    assert _state_bytes(state) == before


def _keep_every_product(monkeypatch):
    # Lower the floor under which a step forms a product again rather than
    # keeping it, so that the desk-size instances keep every target and
    # product term that recurs within a step.
    import madmm.solver as solver_mod

    monkeypatch.setattr(solver_mod, "_KEEP_MIN", 1)


def _trace_values(tr):
    return (tr.k, tr.L, tr.primal_res, tr.dual_step, tr.block_steps, tr.stat_est)


@pytest.mark.parametrize("keep", ["large", "all"])
@pytest.mark.parametrize("name", zoo.zoo_names())
def test_in_step_values_match_out_of_step_values(name, keep, monkeypatch):
    # L and stat_est are read from products the step memo keeps and from
    # the Quadratic residuals L leaves for the stationarity estimate, so a
    # stale one would part them from the same figures taken afresh on the
    # returned state.  check_argmin evaluates L mid-sweep, at values the
    # sweep then changes, so it must leave the step's bytes alone.  dl3's
    # Quadratic(50, center=B) scales the residual L left in place.
    from madmm.diagnostics import stationarity

    if keep == "all":
        _keep_every_product(monkeypatch)
    inst = zoo.default_instance(name, 0)
    problem = inst.problem
    state, _, _ = solve(problem, max_iter=2, init=inst.init)
    for _ in range(4):
        new, tr = step(problem, state)
        checked, tr_checked = step(problem, state, check_argmin=True)
        assert _state_bytes(checked) == _state_bytes(new)
        assert _trace_values(tr_checked) == _trace_values(tr)
        assert tr.L == augmented_lagrangian(problem, new)
        assert tr.stat_est == stationarity(problem, new).aggregate
        state = new


def _nmf_with_updater(name, fn):
    clean = zoo.nmf3(zoo.gen_nmf_data(6, 5, 2, seed=0)[0], 2).problem
    return Problem(clean.system, clean.objective, custom_updaters={name: fn},
                   metadata=clean.metadata)


def test_custom_updater_is_handed_read_only_views():
    # The step keeps products keyed by the arrays it holds, so an updater
    # that wrote into one would make later reads of them stale: the views
    # it is handed refuse the write, and the kept state stays as it was.
    def project(problem, block, assignment, multipliers, rho):
        y = assignment[problem._resolve("Y")]
        return np.maximum(y - multipliers[2] / rho, 0.0)

    writes = {
        "another block": lambda a, w: a.__getitem__("X").fill(0.0),
        "its own block": lambda a, w: a.__getitem__("Y_pos").__imul__(2.0),
        "a multiplier": lambda a, w: w[0].__iadd__(1.0),
    }
    for what, write in writes.items():
        def updater(problem, block, assignment, multipliers, rho, write=write):
            write({b.name: v for b, v in assignment.items()}, multipliers)
            return project(problem, block, assignment, multipliers, rho)

        problem = _nmf_with_updater("Y_pos", updater)
        state, _, _ = solve(problem, rho=2.0, max_iter=0)
        before = _state_bytes(state)
        with pytest.raises(ValueError, match="read-only"):
            step(problem, state)
        assert _state_bytes(state) == before, what
    # An updater that returns its input unchanged still runs, and the value
    # the step stores is the caller's to write.
    problem = _nmf_with_updater(
        "Y_pos", lambda problem, block, assignment, multipliers, rho: assignment[block])
    state, _, _ = solve(problem, rho=2.0, max_iter=0)
    new, tr = step(problem, state)
    y_pos = problem._resolve("Y_pos")
    assert tr.block_steps["Y_pos"] == 0.0
    assert new.assignment[y_pos].tobytes() == state.assignment[y_pos].tobytes()
    assert new.assignment[y_pos].flags.writeable
    assert not np.shares_memory(new.assignment[y_pos], state.assignment[y_pos])
    # Each call gets dicts of its own: a rebinding in one reaches neither
    # the step nor the next call.
    handed = []

    def rebinding(problem, block, assignment, multipliers, rho):
        handed.append((assignment, multipliers))
        out = project(problem, block, assignment, multipliers, rho)
        assignment.clear()
        multipliers.clear()
        return out

    problem, plain = (_nmf_with_updater("Y_pos", fn) for fn in (rebinding, project))
    state, _, _ = solve(problem, rho=2.0, max_iter=0)
    one, _ = step(problem, state)
    two, _ = step(problem, one)
    assert _state_bytes(two) == _state_bytes(step(plain, step(plain, state)[0])[0])
    assert handed[0][0] is not handed[1][0] and handed[0][1] is not handed[1][1]


def test_steady_nmf_step_forms_each_repeated_product_once(monkeypatch):
    # Per steady nmf3 step: X Y feeds Z's offset and evaluate, Z - B feeds L
    # and the stationarity estimate, and the Y and X units fit the same
    # equation-0 target; each is formed once (X_rem's and Y_rem's
    # residuals are the blocks themselves, formed never).  The counts read
    # the structure alone, so a small instance keeps what a large one does
    # once the floor is lowered.
    import collections

    import madmm.prox as prox_mod
    import madmm.system as system_mod

    _keep_every_product(monkeypatch)
    n = 12
    problem = zoo.nmf3(zoo.gen_nmf_data(n, n, 4, seed=0)[0], 4).problem
    state, _, _ = solve(problem, max_iter=3)
    counts = collections.Counter()

    def counted(cls, name, label):
        fn = getattr(cls, name)

        def wrapper(*args, **kwargs):
            counts[label(*args)] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(MatChain, "unsigned", lambda chain, *_: f"chain of {len(chain.factors)}")
    counted(prox_mod.Quadratic, "_residual",
            lambda term, *_: "x itself" if term.center is None else "residual")
    counted(system_mod.FrozenLinearForm, "offset_for", lambda _, e, *__: f"offset {e}")
    step(problem, state)
    assert counts["chain of 2"] == 1
    assert counts["residual"] == 1
    assert counts["offset 0"] == 2
    # The kept target and X Y each live in one Z-sized array of the
    # Problem's: the slot of each kept item.
    slots = {id(s): s for _, s in problem._kept_terms.values()}
    slots.update((id(s), s) for _, plan in problem._units if plan is not None
                 for _, s in plan.shared.values())
    assert [s._array.shape for s in slots.values()] == [(n, n)] * 2


def test_quadratic_residual_outside_a_step_is_written_into_the_scratch():
    # L and the stationarity estimate write nmf3's Z - B into the step's
    # scratch at any call, and the estimate on its own forms it again:
    # neither takes a Z-sized array of its own.
    import tracemalloc

    from madmm.diagnostics import stationarity

    n = 72
    problem = zoo.nmf3(zoo.gen_nmf_data(n, n, 4, seed=0)[0], 4).problem
    state, _, _ = solve(problem, max_iter=3)
    for call in (augmented_lagrangian, lambda *a: stationarity(*a).aggregate):
        want = call(problem, state)
        tracemalloc.start()
        try:
            got = call(problem, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want and peak < n * n * 8 / 4, peak


def test_a_step_opens_no_memo_where_nothing_recurs(monkeypatch):
    # A desk-size nmf3 keeps no target or product term and has no
    # convolution, so its step opens no memo; sbd1's convolutions do.
    import madmm.solver as solver_mod

    inst = zoo.default_instance("nmf3", 0)
    problem = inst.problem
    state, _, _ = solve(problem, max_iter=2, init=inst.init)
    want = step(problem, state)

    def refuse(*args, **kwargs):
        raise AssertionError("a step opened a memo")

    monkeypatch.setattr(solver_mod, "step_memo", refuse)
    got = step(problem, state)
    assert _state_bytes(got[0]) == _state_bytes(want[0])
    assert _trace_values(got[1]) == _trace_values(want[1])
    inst = zoo.default_instance("sbd1", 0)
    with pytest.raises(AssertionError, match="opened a memo"):
        step(inst.problem, solve(inst.problem, max_iter=0, init=inst.init)[0])


def test_steady_nmf_step_faults_in_no_pages(monkeypatch):
    # The step's temporaries live in scratch its Problem reuses, and its new
    # Z and multipliers go into the arrays of the state from two steps
    # back, given up as ``out``, so a steady 300^2 step gives glibc no
    # freed array to trim and fault in again (253.5 minor faults per step
    # when every step allocated them).  solve gives up its states the same
    # way.
    resource = pytest.importorskip("resource", reason="needs ru_minflt")
    import platform

    import madmm.solver as solver_mod

    if platform.libc_ver()[0] != "glibc":
        pytest.skip("the fault count depends on glibc's heap trimming")

    def minflt():
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    B, _, _ = zoo.gen_nmf_data(300, 300, 10, seed=0)
    problem = zoo.nmf3(B, 10).problem
    state, _, _ = solve(problem, max_iter=0)  # the certified rho
    done = []
    for _ in range(10):
        state, _ = step(problem, state, out=done.pop(0) if len(done) == 2 else None)
        done.append(state)
    before = minflt()
    for _ in range(30):
        state, _ = step(problem, state, out=done.pop(0))
        done.append(state)
    faults = (minflt() - before) / 30
    assert faults <= 20, f"{faults} minor page faults per step"
    # The same count for each step inside solve, read around the step alone.
    counts, real = [], solver_mod.step

    def counted(*args, **kwargs):
        start = minflt()
        try:
            return real(*args, **kwargs)
        finally:
            counts.append(minflt() - start)

    monkeypatch.setattr(solver_mod, "step", counted)
    solve(problem, max_iter=40)
    faults = sum(counts[-30:]) / 30
    assert faults <= 20, f"{faults} minor page faults per step inside solve"


def test_dense_step_allocation_budget():
    # Peak traced bytes of one nmf3 step above its start, in units of Z's
    # bytes: 2.52, the new state's own Z and multipliers, with every array
    # that dies in the step in the Problem's scratch (4.72 when offsets,
    # right-hand sides, residual sums, L and the stationarity estimate were
    # built in fresh arrays).
    import tracemalloc

    B, _, _ = zoo.gen_nmf_data(120, 120, 5, seed=0)
    tracemalloc.start()
    try:
        problem = zoo.nmf3(B, 5).problem
        state, _, _ = solve(problem, rho=1.0, max_iter=1)
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        step(problem, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - start) / B.nbytes <= 3.0


def test_fourier_step_allocation_budget():
    # Peak traced bytes of one 64^2 sbd1 step above its start, in units of
    # Y's bytes: 26.45 with the kernel update's damping added to the
    # diagonal of its 256 x 256 normal matrix in place, the largest array
    # at this size; about 54.6 with a damped copy of it beside a scaled
    # identity.
    import tracemalloc

    Y, *_ = zoo.gen_sbd_data(64, (16, 16), theta=0.05, bias=0.1, seed=0)
    tracemalloc.start()
    try:
        inst = zoo.sbd1(Y, (16, 16))
        state, _, _ = solve(inst.problem, rho=1.0, max_iter=1, init=inst.init)
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        step(inst.problem, state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - start) / Y.nbytes <= 27.0


def test_l1_value_in_L_writes_into_the_step_scratch(monkeypatch):
    # L reads sbd1's |X| into the step's scratch (L1.value took a fresh
    # block-sized |x| in every step, 525,456 bytes at 256^2); the value has
    # the bits of the fresh one.
    import tracemalloc

    from madmm.solver import _al

    inst = zoo.default_instance("sbd1", 0)
    problem = inst.problem
    state, _, _ = solve(problem, rho=1.0, max_iter=1, init=inst.init)
    block = problem.system.blocks["X"]
    want = _al(problem, state.assignment, state.multipliers, state.rho)
    real, peaks = L1.value, []

    def traced(self, x, **kwargs):
        tracemalloc.reset_peak()
        start, _ = tracemalloc.get_traced_memory()
        value = real(self, x, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return value

    monkeypatch.setattr(L1, "value", traced)
    tracemalloc.start()
    try:
        got = _al(problem, state.assignment, state.multipliers, state.rho)
    finally:
        tracemalloc.stop()
    assert got == want
    assert len(peaks) == 1 and peaks[0] < block.dim * 8 / 4, peaks
    x = np.random.default_rng(3).standard_normal((7, 9))
    for view in (x, x[:, ::2], x.T):
        assert real(L1(0.7), view, out=np.empty(view.shape)) == real(L1(0.7), view)


def _nmf300():
    B, _, _ = zoo.gen_nmf_data(300, 300, 10, seed=0)
    return B, zoo.nmf3(B, 10).problem


def test_nmf_step_scratch_holds_three_z_sized_arrays():
    # Norms and L's inner products are read from each equation's residual
    # in place, so the scratch holds Z's residual sum, its term and the
    # fit's L(x) - center, and no stacked residual beside them (4.33 Z's
    # bytes with one).
    B, problem = _nmf300()
    state, _, _ = solve(problem, max_iter=0)
    for _ in range(3):
        state, _ = step(problem, state)
    arrays = [a for flat in problem._scratch._flat.values() for a in flat]
    assert max(a.size for a in arrays) == B.size
    assert sum(a.size == B.size for a in arrays) <= 3
    # The small ones: X's and Y's residuals and the solve plans' arrays.
    assert sum(a.nbytes for a in arrays if a.size < B.size) < B.nbytes / 2


def test_building_an_nmf_problem_peaks_at_one_z_sized_array():
    # The plans are read at all ones, and the only Z-sized array building
    # keeps is the fit's constant weight * B; the ones are read-only views
    # of one scalar (2.26 Z's bytes when they were filled arrays).
    import tracemalloc

    B, _, _ = zoo.gen_nmf_data(300, 300, 10, seed=0)
    tracemalloc.start()
    try:
        zoo.nmf3(B, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / B.nbytes <= 1.25
