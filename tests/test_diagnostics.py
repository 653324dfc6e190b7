"""Diagnostics tests: the escape-demo recurrence, per-iteration identity
checks on live runs and on manufactured failures, structural assumption
reports across the zoo, and the stationarity estimate."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madmm import zoo
from madmm.diagnostics import (AssumptionReport, _least_squares_residual,
                               assert_iteration, check_assumptions,
                               run_counterexample, stationarity)
from madmm.operators import DenseOp
from madmm.prox import Quadratic
from madmm.solver import (Problem, SolverState, augmented_lagrangian, solve,
                          step)
from madmm.system import (BlockId, Constant, Conv2D, LinearTerm, MatChain,
                          MultiaffineSystem, evaluate, freeze)


# ---------------------------------------------------------------------------
# Escape demo.

def test_counterexample_multiplier_walks_linearly():
    points = run_counterexample(1.0, 0.0, 1.0, 500)
    assert len(points) == 501
    for k, (x, y, w) in enumerate(points):
        assert abs(w + float(k)) <= 1e-9
    assert points[-1][2] <= -499.0


def test_counterexample_scales_with_rho():
    points = run_counterexample(1.0, 0.0, 2.0, 50)
    for k, (x, y, w) in enumerate(points):
        assert abs(w + 2.0 * k) <= 1e-9


def test_counterexample_fixed_point():
    points = run_counterexample(1.0, -2.0, 1.0, 20, y0=1.0)
    for x, y, w in points:
        assert abs(x - 1.0) <= 1e-12
        assert abs(y - 1.0) <= 1e-12
        assert abs(w + 2.0) <= 1e-12


def test_counterexample_zero_iters_returns_start_only():
    assert run_counterexample(1.0, 0.0, 1.0, 0) == [(1.0, 0.0, 0.0)]


def test_counterexample_rejects_negative_iters():
    with pytest.raises(ValueError):
        run_counterexample(1.0, 0.0, 1.0, -1)


# ---------------------------------------------------------------------------
# Per-iteration checks on live runs.

def test_strict_run_is_clean_on_certified_families():
    for build, rho in ((lambda: zoo.nmf3(*_nmf_args()), 4.0),
                       (lambda: zoo.mc1(zoo.triangle_graph()), 5000.0)):
        inst = build()
        _, traces, _ = solve(inst.problem, rho=rho, max_iter=30,
                             assert_level="strict")
        assert all(not tr.violations for tr in traces)


def _nmf_args():
    B, _, _ = zoo.gen_nmf_data(8, 8, 2, seed=1)
    return B, 2


def test_dual_identities_hold_along_a_run():
    """Oracle from the public surface: swapping new multipliers into the old
    state must change the Lagrangian by exactly (1/rho) ||dW||^2."""
    B, _, _ = zoo.gen_nmf_data(8, 8, 2, seed=1)
    inst = zoo.nmf3(B, 2)
    state, _, _ = solve(inst.problem, rho=4.0, max_iter=0)
    for _ in range(20):
        new, _ = step(inst.problem, state)
        l_new = augmented_lagrangian(inst.problem, new)
        l_mid = augmented_lagrangian(
            inst.problem, SolverState(new.assignment, state.multipliers,
                                      new.rho, new.k))
        dw = sum(float(np.sum((new.multipliers[e] - state.multipliers[e]) ** 2))
                 for e in state.multipliers)
        assert abs((l_new - l_mid) - dw / new.rho) <= 1e-9 * (1 + abs(l_new))
        assert not assert_iteration(inst.problem, state, new)
        state = new


def _escape_toy():
    """min (1/2)(x^2 + z^2) s.t. x z = 1: no slack spans the constraint, and
    from (1, 0) the iterates collapse while the Lagrangian climbs."""
    x = BlockId("x", "x", (1, 1))
    z = BlockId("z", "z0", (1, 1))
    system = MultiaffineSystem()
    system.add_equation([MatChain([x, z]), Constant([[1.0]], sign=-1)])
    problem = Problem(system, {x: [Quadratic(1.0)], z: [Quadratic(1.0)]})
    return problem


def test_monotone_check_flags_the_escape_toy():
    problem = _escape_toy()
    state, _, _ = solve(problem, rho=1.0, max_iter=0,
                        init={"x": [[1.0]], "z": [[0.0]]})
    first, _ = step(problem, state)
    second, _ = step(problem, first)
    found = assert_iteration(problem, first, second, level="basic",
                             rho_certified=True)
    assert any(v.check == "monotone_decrease" for v in found)
    with pytest.raises(AssertionError, match="monotone_decrease"):
        assert_iteration(problem, first, second, level="strict",
                         rho_certified=True)


def test_dual_step_identity_flags_a_doctored_multiplier():
    B, _, _ = zoo.gen_nmf_data(6, 6, 2, seed=2)
    inst = zoo.nmf3(B, 2)
    state, _, _ = solve(inst.problem, rho=2.0, max_iter=0)
    new, _ = step(inst.problem, state)
    doctored = {e: w.copy() for e, w in new.multipliers.items()}
    eq = next(iter(doctored))
    doctored[eq] = doctored[eq] + 1.0
    bad = SolverState(new.assignment, doctored, new.rho, new.k)
    found = assert_iteration(inst.problem, state, bad)
    assert any(v.check == "dual_step_identity" for v in found)


def test_assert_iteration_rejects_unknown_level():
    problem = _escape_toy()
    state, _, _ = solve(problem, rho=1.0, max_iter=0)
    new, _ = step(problem, state)
    with pytest.raises(ValueError):
        assert_iteration(problem, state, new, level="paranoid")


def test_strict_run_raises_on_a_block_update_that_raises_L():
    # The step's own check: a Y_pos updater that lands off the minimizer
    # makes L rise during the sweep.  "strict" used to attach that to the
    # trace and run on to MaxIter.
    inst = zoo.default_instance("nmf3", 0)
    clean = inst.problem

    def bump(problem, block, assignment, multipliers, rho):
        return np.maximum(assignment[block], 0.0) + 1.0

    off = Problem(clean.system, clean.objective,
                  custom_updaters={"Y_pos": bump}, metadata=clean.metadata)
    with pytest.raises(AssertionError, match="block_argmin.*'Y_pos'"):
        solve(off, rho=5.0, max_iter=5, assert_level="strict", init=inst.init)
    _, traces, _ = solve(clean, rho=5.0, max_iter=5, assert_level="strict",
                         init=inst.init)
    assert len(traces) == 5 and not any(tr.violations for tr in traces)


def test_solve_attaches_basic_violations_to_the_traces():
    # Understated curvature constants make the multiplier-step bound too
    # tight: "basic" records each breach on its iteration's trace.
    inst = zoo.default_instance("nmf3", 0)
    clean = inst.problem
    lying = Problem(clean.system, clean.objective,
                    metadata={**clean.metadata, "m1": 0.01, "M1": 0.01})
    for problem, want in ((lying, ["multiplier_bound"]), (clean, [])):
        _, traces, _ = solve(problem, rho=5.0, max_iter=4,
                             assert_level="basic", init=inst.init)
        # The first step away from the initial point is exempt.
        assert [[v.check for v in tr.violations] for tr in traces] == \
            [[]] + [want] * 3


def _dual_step_to(problem, state, assignment):
    """The state at ``assignment`` whose multipliers take the dual step from
    ``state`` on its own residuals, so the dual identities hold."""
    residuals = evaluate(problem.system, assignment)
    mults = {e: state.multipliers[e] + state.rho * r
             for e, r in zip(problem.system.eq_ids, residuals)}
    return SolverState(assignment, mults, state.rho, state.k + 1)


def _slack_doctored(scale):
    """(problem, state, clean, doctored) on desk nmf3 at rho 5: ``clean`` is
    one step from ``state``, and ``doctored`` moves every z1 block by
    ``scale`` times its clean step instead."""
    inst = zoo.default_instance("nmf3", 0)
    problem = inst.problem
    state, _, _ = solve(problem, rho=5.0, max_iter=2, init=inst.init)
    clean, _ = step(problem, state)
    moved = dict(clean.assignment)
    for b in problem.system.blocks_with_role("z1"):
        moved[b] = state.assignment[b] + scale * (clean.assignment[b]
                                                  - state.assignment[b])
    return problem, state, clean, _dual_step_to(problem, state, moved)


def test_multiplier_bound_flags_slack_blocks_held_still():
    # With the slacks held, the bound ||dW||^2 <= M1^2 / lambda * ||dz1||^2
    # allows no multiplier step at all.
    problem, state, clean, held = _slack_doctored(0.0)
    assert assert_iteration(problem, state, clean) == []
    found = assert_iteration(problem, state, held)
    assert [v.check for v in found] == ["multiplier_bound"]


def test_z_decrease_flags_an_overshot_slack_update():
    # Three times the exact slack step raises L instead of lowering it by
    # m1 / 2 ||dz1||^2.
    problem, state, clean, over = _slack_doctored(3.0)
    assert assert_iteration(problem, state, clean) == []
    found = assert_iteration(problem, state, over)
    assert "z_decrease" in [v.check for v in found]


def _tie_toy(spanned):
    """min 1/2 (x^2 + y^2 + s^2 [+ t^2]) s.t. x y - s = 1 and x - y [- t] = 0:
    the slack s spans the first equation, and t, when present, the
    second."""
    x = BlockId("x", "x", (1, 1), index=0)
    y = BlockId("y", "x", (1, 1), index=1)
    s = BlockId("s", "z1", (1, 1))
    system = MultiaffineSystem()
    system.add_equation([MatChain([x, y]), LinearTerm(DenseOp(np.eye(1)), s, sign=-1),
                         Constant([[1.0]], sign=-1)])
    tie = [MatChain([x]), MatChain([y], sign=-1)]
    if spanned:
        tie.append(LinearTerm(DenseOp(np.eye(1)), BlockId("t", "z1", (1, 1)),
                              sign=-1))
    system.add_equation(tie)
    return Problem(system, {b: [Quadratic(1.0)] for b in system.blocks.values()})


@pytest.mark.parametrize("spanned", [True, False])
def test_multiplier_image_flags_a_step_outside_the_slack_maps(spanned):
    problem = _tie_toy(spanned)
    state, _, _ = solve(problem, rho=1.0, max_iter=1,
                        init={"x": [[2.0]], "y": [[0.5]]})
    new, _ = step(problem, state)
    # The image check runs at "strict" only.
    assert assert_iteration(problem, state, new, level="basic") == []
    if spanned:
        assert assert_iteration(problem, state, new, level="strict") == []
    else:
        with pytest.raises(AssertionError, match="^iteration checks failed: "
                           "multiplier_image"):
            assert_iteration(problem, state, new, level="strict")


# ---------------------------------------------------------------------------
# Structural assumption checks.

@pytest.mark.parametrize("spanned", [True, False])
def test_image_containment_reads_the_slack_maps(spanned):
    check = {name: (status, detail) for name, status, detail in
             check_assumptions(_tie_toy(spanned), samples=3).checks}
    status, detail = check["image_containment"]
    assert status == ("pass" if spanned else "fail")
    assert ("resolved by the slack maps" if spanned else "slack maps miss") in detail


def test_image_containment_without_slack_blocks():
    # Without slack blocks the image is contained only when the constraints
    # vanish at every sampled point.
    x = BlockId("x", "x", (2, 1))
    for offset, want in ((0.0, "pass"), (1.0, "fail")):
        system = MultiaffineSystem()
        system.add_equation([MatChain([x]), MatChain([x], sign=-1),
                             Constant(np.full((2, 1), offset))])
        checks = check_assumptions(Problem(system, {x: [Quadratic(1.0)]}),
                                   samples=3).checks
        assert checks[0][:2] == ("image_containment", want)


@pytest.mark.parametrize("diag, want", [((1.0, 2.0), "pass"), ((1.0, 0.0), "fail")])
def test_slack_injectivity_reads_the_pure_slack_map(diag, want):
    x = BlockId("x", "x", (2, 1))
    s = BlockId("s", "z2", (2, 1))
    system = MultiaffineSystem()
    system.add_equation([MatChain([x]), LinearTerm(DenseOp(np.diag(diag)), s, sign=-1),
                         Constant(np.ones((2, 1)), sign=-1)])
    problem = Problem(system, {x: [Quadratic(1.0)], s: [Quadratic(1.0)]})
    checks = {name: status for name, status, _ in
              check_assumptions(problem, samples=3).checks}
    assert checks["slack_injectivity"] == want


def test_zoo_assumption_screen():
    expected_fail = {"rpca2_raw", "sbd0"}
    for name in zoo.zoo_names():
        report = check_assumptions(zoo.default_instance(name).problem)
        if name in expected_fail:
            assert report.overall == "fail", name
        else:
            assert report.overall == "pass", (name, report.failures())


@pytest.mark.parametrize("name, maps", [("nmf3", 1), ("sbd1", 1),
                                         ("rp2", 2), ("mc1", 2)])
def test_solve_and_screen_compute_each_slack_spectrum_once(monkeypatch, name, maps):
    # The automatic rho and the assumption screen read one record of the
    # slack spectra on the Problem: one spectrum per z1 or z2 map, not one
    # per caller.
    import madmm.diagnostics as diagnostics_mod
    import madmm.solver as solver_mod

    real = solver_mod._gram_eigenvalues
    calls = []

    def counting(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(solver_mod, "_gram_eigenvalues", counting)
    monkeypatch.setattr(diagnostics_mod, "_gram_eigenvalues", counting,
                        raising=False)
    problem = zoo.default_instance(name, 0).problem
    solve(problem, rho=None, max_iter=0)
    assert len(calls) == maps
    check_assumptions(problem, samples=2)
    assert len(calls) == maps


def test_raw_rpca_fails_by_final_block_structure():
    report = check_assumptions(zoo.default_instance("rpca2_raw").problem)
    names = [n for n, _ in report.failures()]
    assert "final_block_structure" in names
    detail = dict(report.failures())["final_block_structure"]
    assert "'S'" in detail


def test_bare_deconvolution_fails_by_image_containment():
    report = check_assumptions(zoo.default_instance("sbd0").problem)
    names = [n for n, _ in report.failures()]
    assert "image_containment" in names
    detail = dict(report.failures())["image_containment"]
    assert "no slack block" in detail


def test_report_shape_round_trips_through_json():
    report = check_assumptions(zoo.default_instance("nmf3").problem)
    blob = json.loads(json.dumps(report.as_dict()))
    assert blob["overall"] == "pass"
    assert {c["name"] for c in blob["checks"]} >= {
        "image_containment", "final_block_structure", "coercivity"}
    statuses = {c["status"] for c in blob["checks"]}
    assert statuses <= {"pass", "fail", "unverifiable"}
    assert any(c["status"] == "unverifiable" and c["name"] == "coercivity"
               for c in blob["checks"])


def test_overall_is_fail_only_on_failures():
    clean = AssumptionReport([("a", "pass", ""), ("b", "unverifiable", "")])
    assert clean.overall == "pass"
    assert not clean.failures()
    dirty = AssumptionReport([("a", "pass", ""), ("b", "fail", "why")])
    assert dirty.overall == "fail"
    assert dirty.failures() == [("b", "why")]


# ---------------------------------------------------------------------------
# Stationarity estimate.

def test_stationarity_vanishes_at_a_solved_point():
    B, _, _ = zoo.gen_nmf_data(8, 8, 2, seed=1)
    inst = zoo.nmf3(B, 2)
    state, _, _ = solve(inst.problem, rho=4.0, max_iter=2000)
    est = stationarity(inst.problem, state)
    assert est.aggregate <= 1e-4
    assert set(est.per_block) == {b.name for b in inst.problem.all_blocks}


def test_stationarity_sees_an_unsolved_point():
    B, _, _ = zoo.gen_nmf_data(8, 8, 2, seed=1)
    inst = zoo.nmf3(B, 2)
    zeros = {b: np.zeros(b.shape)
             for b in inst.problem.system.blocks.values()}
    mults = {e: np.zeros(inst.problem.system.eq_shape(e))
             for e in inst.problem.system.eq_ids}
    est = stationarity(inst.problem, SolverState(zeros, mults, 1.0, 0))
    assert est.aggregate >= 0.1
    assert est.per_block["Z"] >= 0.1


# ---------------------------------------------------------------------------
# Distance to the image of the slack maps.

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(2, 8), st.data())
def test_least_squares_residual_matches_lstsq(n_blocks, rows, data):
    # One equation over one or two slack blocks through dense maps with
    # singular values in [0.5, 2], of full column rank or rank deficient,
    # whose stacked map is never onto.  Oracle: the lstsq distance on the
    # stacked matrix.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def orthonormal(n, k):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return q[:, :k]

    # Every map sends its block into one span of dimension below rows.
    dim = data.draw(st.integers(1, rows - 1))
    span = orthonormal(rows, dim)
    blocks, mats = [], []
    for i in range(n_blocks):
        cols = data.draw(st.integers(1, 6))
        rank = data.draw(st.integers(1, min(dim, cols)))
        mats.append(span @ orthonormal(dim, rank)
                    @ np.diag(rng.uniform(0.5, 2.0, rank))
                    @ orthonormal(cols, rank).T)
        blocks.append(BlockId(f"z{i}", "z1", (cols, 1)))
    system = MultiaffineSystem()
    system.add_equation([LinearTerm(DenseOp(m), b) for m, b in zip(mats, blocks)]
                        + [Constant(np.zeros((rows, 1)))])
    form = freeze(system, blocks[0] if n_blocks == 1 else tuple(blocks), {})
    a = np.hstack(mats)
    sv = np.linalg.svd(a, compute_uv=False)
    sigma = sv[sv > 1e-10 * sv[0]][-1]
    inside = a @ rng.standard_normal(a.shape[1])
    # A generic target keeps its distance to the image: 1e-8 relative.
    target = inside + rng.standard_normal(rows)
    coef, *_ = np.linalg.lstsq(a, target, rcond=None)
    want = float(np.linalg.norm(target - a @ coef))
    assert want > 1e-6
    assert abs(_least_squares_residual(form, target) - want) <= 1e-8 * want
    # A target in the image comes back within the callers' 1e-8 relative
    # tolerance.
    assert (_least_squares_residual(form, inside)
            <= 1e-8 * (1.0 + float(np.linalg.norm(inside))))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2), st.integers(6, 16), st.data())
def test_least_squares_residual_resolves_targets_in_rank_deficient_images(
        n_blocks, rows, data):
    # Rank-deficient slack maps with singular values spread over 1e-4..1.
    # Conjugate gradients stopped at ||A^T r|| ~ 1e-7 leave ||r|| up to
    # 1e-7 / sigma_min, which reads as a failed image check at the callers'
    # 1e-8 (1 + ||t||); within the dense bounds the distance is exact.
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))

    def orthonormal(n, k):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return q[:, :k]

    blocks, mats = [], []
    for i in range(n_blocks):
        cols = data.draw(st.integers(4, 12))
        rank = data.draw(st.integers(3, min(rows - 1, cols)))
        mats.append(orthonormal(rows, rank)
                    @ np.diag(10.0 ** rng.uniform(-4.0, 0.0, rank))
                    @ orthonormal(cols, rank).T)
        blocks.append(BlockId(f"z{i}", "z1", (cols, 1)))
    system = MultiaffineSystem()
    system.add_equation([LinearTerm(DenseOp(m), b) for m, b in zip(mats, blocks)]
                        + [Constant(np.zeros((rows, 1)))])
    form = freeze(system, blocks[0] if n_blocks == 1 else tuple(blocks), {})
    a = np.hstack(mats)
    u, sv, _ = np.linalg.svd(a)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    # Equal weight on every direction of the image, the weakest included.
    target = u[:, :rank] @ rng.standard_normal(rank)
    assert (_least_squares_residual(form, target)
            <= 1e-8 * (1.0 + float(np.linalg.norm(target))))


@pytest.mark.parametrize("kernel_shape", [(16, 16), (4, 4)], ids=["16x16", "4x4"])
def test_least_squares_residual_resolves_conv_signal_targets(kernel_shape):
    # Convolution forms are never densified, so they take the conjugate
    # gradient branch.  A delta kernel plus noise gives a circulant map of
    # full rank: a target in the image must come back within the callers'
    # 1e-8 (1 + ||t||), and a generic one at lstsq's distance on the
    # pieces' dense blocks.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        kernel = 0.1 * rng.standard_normal(kernel_shape)
        kernel[0, 0] += 1.0
        a_blk = BlockId("A", "x", kernel_shape)
        x_blk = BlockId("X", "x", (16, 16))
        system = MultiaffineSystem()
        system.add_equation([Conv2D(a_blk, x_blk), Constant(np.zeros((16, 16)))])
        form = freeze(system, x_blk, {a_blk: kernel})
        a = np.hstack([p.dense() for p in form.pieces])
        inside = a @ rng.standard_normal(a.shape[1])
        assert (_least_squares_residual(form, inside)
                <= 1e-8 * (1.0 + float(np.linalg.norm(inside))))
        target = rng.standard_normal(a.shape[0])
        coef, *_ = np.linalg.lstsq(a, target, rcond=None)
        want = float(np.linalg.norm(target - a @ coef))
        assert (abs(_least_squares_residual(form, target) - want)
                <= 1e-8 * (1.0 + float(np.linalg.norm(target))))


def test_declared_final_block_maps_are_sampled_for_rank():
    # z enters through the identity; x through a rank-one matrix, so its
    # map loses rank at every point.
    x = BlockId("x", "x", (2, 1))
    z = BlockId("z", "z1", (2, 1))
    system = MultiaffineSystem()
    system.add_equation([LinearTerm(DenseOp(np.ones((2, 2)), (2, 1), (2, 1)), x),
                         LinearTerm(DenseOp(np.eye(2), (2, 1), (2, 1)), z, sign=-1)])

    def injectivity(declared):
        problem = Problem(system, {z: [Quadratic(1.0)]},
                          metadata={"r_blocks": declared})
        report = check_assumptions(problem, samples=2).as_dict()
        return next(c for c in report["checks"]
                    if c["name"] == "final_block_injectivity")

    assert injectivity([("z", 0.0)]) == {
        "name": "final_block_injectivity", "status": "pass",
        "detail": "declared coefficient maps kept rank at sampled points"}
    assert injectivity([("z", 0.0), ("x", 0.0)]) == {
        "name": "final_block_injectivity", "status": "fail",
        "detail": "coefficient map of 'x' lost rank at a sampled point"}
