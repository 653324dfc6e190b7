"""Solver tests: hand-computed single iterations, Lagrangian bookkeeping,
penalty selection, and the proximal-tie transform."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from madmm import zoo
from madmm.errors import BuildError, ShapeMismatchError, SubproblemError
from madmm.operators import DenseOp, DiagExtract, ScaledIdentity
from madmm.prox import (CouplingTerm, IndicatorNonneg, L1, ObjectiveTerm,
                        Quadratic, SmoothCustom)
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


def _tangled_z(trigger):
    """Two z blocks sharing an equation, plus the one obstacle `trigger` to
    their joint solve; returns Problem's arguments."""
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
        objective[za] = [L1(0.3)]
    elif trigger == "custom":
        kwargs["custom_updaters"] = {"za": lambda *a: np.zeros((3, 1))}
    elif trigger == "product":
        system.add_equation([HadamardPair(za, zb), Constant(np.ones((3, 1)))])
    else:
        kwargs["coupling"] = [CouplingTerm(
            (za, zb), lambda v: float(np.sum(v["za"] * v["zb"])),
            lambda v, name: v["zb" if name == "za" else "za"])]
    return system, objective, kwargs


_TANGLE_REASONS = {
    "nonsmooth": "block 'za' carries a nonsmooth term",
    "custom": "block 'za' has a custom updater",
    "product": "one term multiplies blocks ['za', 'zb']",
    "coupling": "a coupling term involves blocks ['za', 'zb']",
}


@pytest.mark.parametrize("trigger", list(_TANGLE_REASONS))
def test_z_component_without_exact_joint_update_is_refused(trigger):
    system, objective, kwargs = _tangled_z(trigger)
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
    real_rfft2 = np.fft.rfft2

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

    def counting_rfft2(*args, **kwargs):
        ffts.append(args[0].shape)
        return real_rfft2(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "_gram_eigenvalues", counting_eigs)
    monkeypatch.setattr(system_mod.FrozenLinearForm, "offset_for", counting_offset)
    monkeypatch.setattr(np.fft, "rfft2", counting_rfft2)
    solve(problem, max_iter=0)
    assert spectra, "the certified rho must read a spectrum"
    assert offsets == []
    # The two transforms of the convolution in ||C(0)||.
    assert len(ffts) == 2


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
        assert op.gram_scalar() == (0.5 if mat is parity else None)
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
    with pytest.raises(BuildError, match="update_order"):
        Problem(system, update_order=[x])
    with pytest.raises(BuildError, match="update_order"):
        Problem(system, update_order=[x, x])
    with pytest.raises(BuildError, match="unknown block"):
        Problem(system, custom_updaters={"ghost": lambda *a: None})


def test_coupling_validation_and_use():
    x = BlockId("x", "x", (1, 1), index=0)
    y = BlockId("y", "x", (1, 1), index=1)
    z = BlockId("z", "z1", (1, 1))
    system = MultiaffineSystem()
    system.add_equation([MatChain([x]), MatChain([y]),
                         LinearTerm(ScaledIdentity(1.0, (1, 1)), z, sign=-1)])
    good = CouplingTerm(
        (x, y), lambda v: float(v["x"][0, 0] * v["y"][0, 0]),
        lambda v, name: v["y"] if name == "x" else v["x"])
    problem = Problem(system, {x: [Quadratic(1.0)], y: [Quadratic(1.0)],
                               z: [Quadratic(1.0)]}, coupling=[good])
    state, traces, status = solve(problem, rho=4.0, max_iter=300)
    assert status == STATUS_CONVERGED
    # min x^2/2 + y^2/2 + x y + z^2/2 s.t. x + y = z: the objective equals
    # (x + y)^2 / 2 + z^2 / 2, minimized along the valley x + y = z = 0.
    assert abs(state.assignment[x][0, 0] + state.assignment[y][0, 0]) <= 1e-6
    assert abs(state.assignment[z][0, 0]) <= 1e-6
    assert traces[-1].stat_est <= 1e-6

    bad = CouplingTerm(
        (x, y), lambda v: float(v["x"] ** 2 * v["y"]),
        lambda v, name: 2 * v["x"] * v["y"] if name == "x" else v["x"] ** 2)
    with pytest.raises(BuildError, match="affine"):
        Problem(system, coupling=[bad])
    flagged = CouplingTerm((x, y), lambda v: 0.0, lambda v, name: v[name] * 0,
                           affine_per_block=False)
    with pytest.raises(BuildError, match="custom updater"):
        Problem(system, coupling=[flagged])


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
    # The old state shares its arrays with the new one, so every in-place
    # rewrite in a step must write only into arrays the step made.
    from madmm.solver import _stationarity
    from madmm.system import block_adjoints, freeze

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
    made += block_adjoints(problem.system, state.assignment,
                           state.multipliers).values()
    for focus, _ in problem._units:
        form = freeze(problem.system, focus, state.assignment)
        made += [form.offset_for(e) for e, _ in form.eq_dims]
    assert not any(np.shares_memory(a, v) for a in made for v in held)


def test_dense_step_allocation_budget():
    # Peak traced bytes of one nmf3 step above its start, in units of Z's
    # bytes: 4.72 with offsets, right-hand sides, residual sums, L and the
    # stationarity estimate built in place.
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
    assert (peak - start) / B.nbytes <= 5.0


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
