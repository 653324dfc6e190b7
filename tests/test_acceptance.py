"""Acceptance gates, one test per shipped claim.

Each test is a self-contained, independently computed restatement of one
gate: tolerances and iteration budgets are stated inline, oracles are
rebuilt here rather than imported from the code under test wherever the
claim allows it.  Run with -v to get one pass/fail line per gate.

One gate is expected to fail: the bare deconvolution's multiplier norm
does not grow tenfold on noisy data under argmin-quality block updates.
The growth claim is asserted anyway; see the final test.
"""

import math
import time

import numpy as np

from madmm import (BlockId, Constant, DenseOp, LinearTerm, MultiaffineSystem,
                   ScaledIdentity, cli, freeze, stack_residual, zoo)
from madmm.diagnostics import (check_assumptions, run_counterexample,
                               stationarity)
from madmm.prox import Quadratic, quad_block_solve
from madmm.solver import (ROLE_Z1, ROLE_Z2, STATUS_CONVERGED, SolverState,
                          add_prox_constraint, augmented_lagrangian,
                          rho_lower_bound, solve, step)
from madmm.system import circ_conv2, evaluate
from madmm.zoo import cut_value, default_instance, gen_nmf_data, gen_sbd_data


def _dw_sq(old, new) -> float:
    return sum(float(np.sum((new.multipliers[e] - old.multipliers[e]) ** 2))
               for e in old.multipliers)


def _probe_columns(form) -> np.ndarray:
    cols = np.empty((form.offset.size, form.in_dim))
    basis = np.zeros(form.in_dim)
    for j in range(form.in_dim):
        basis[j] = 1.0
        cols[:, j] = form.apply(basis)
        basis[j] = 0.0
    return cols


def test_criterion_01_counterexample_multiplier_escape():
    start = time.perf_counter()
    points = run_counterexample(1.0, 0.0, 1.0, 500)
    elapsed = time.perf_counter() - start
    for k, (_, _, w) in enumerate(points):
        assert abs(w + float(k)) <= 1e-9, f"w at step {k} is {w}, not {-k}"
    assert points[500][2] <= -499.0
    assert elapsed < 0.1, f"trajectory took {elapsed:.3f}s"


def test_criterion_02_dual_update_changes_lagrangian_by_dual_step():
    inst = default_instance("nmf3", seed=0)
    start = time.perf_counter()
    st, _, _ = solve(inst.problem, max_iter=0, seed=0)
    rho = st.rho
    for _ in range(200):
        new, _ = step(inst.problem, st)
        l_new = augmented_lagrangian(inst.problem, new)
        l_mid = augmented_lagrangian(
            inst.problem, SolverState(new.assignment, st.multipliers, rho,
                                      new.k))
        gap = abs((l_new - l_mid) - _dw_sq(st, new) / rho)
        assert gap <= 1e-9 * (1.0 + abs(l_new)), \
            f"iteration {new.k}: identity off by {gap:.3e}"
        st = new
    assert time.perf_counter() - start < 5.0


def test_criterion_03_multiplier_step_bounded_by_slack_steps():
    inst = default_instance("dl3", seed=0)
    prob = inst.problem
    st, _, _ = solve(prob, max_iter=0, seed=0, init=inst.init or None)
    z1 = tuple(b for b in prob.z_order if b.role == ROLE_Z1)
    assert not [b for b in prob.z_order if b.role == ROLE_Z2]

    # Slacks enter linearly with fixed maps, so the frozen form at the init
    # is the map itself; its smallest positive Gram eigenvalue comes from a
    # dense probe, independent of the solver's spectrum shortcuts.
    cols = _probe_columns(freeze(prob.system, z1, st.assignment))
    gram = cols.T @ cols
    eigs = np.linalg.eigvalsh((gram + gram.T) / 2.0)
    lam_pp = float(eigs[eigs > 1e-9 * eigs[-1]].min())
    beta1 = float(prob.metadata["M1"]) ** 2 / lam_pp

    # The bound compares consecutive slack-optimal states, so the step away
    # from the arbitrary init is exempt; 200 transitions are checked.
    checked = 0
    for k in range(1, 202):
        new, _ = step(prob, st)
        if k >= 2:
            dw = _dw_sq(st, new)
            dz1 = sum(float(np.sum((new.assignment[b] - st.assignment[b]) ** 2))
                      for b in z1)
            slack = 1e-8 * (1.0 + dw)
            assert dw <= beta1 * dz1 + slack, \
                f"iteration {k}: ||dW||^2 = {dw:.6g} > bound {beta1 * dz1:.6g}"
            checked += 1
        st = new
    assert checked == 200


def test_criterion_04_certified_penalty_gives_monotone_descent():
    for name in ("nmf3", "dl3", "rp2", "mc1", "sbd1"):
        inst = default_instance(name, seed=0)
        prob = inst.problem
        md = prob.metadata
        zeros = {b: np.zeros(b.shape) for b in prob.system.blocks.values()}
        z1 = tuple(b for b in prob.z_order if b.role == ROLE_Z1)
        z2 = tuple(b for b in prob.z_order if b.role == ROLE_Z2)
        q1 = freeze(prob.system, z1, zeros)
        q2 = freeze(prob.system, z2, zeros) if z2 else None
        r_blocks = [(freeze(prob.system, prob.system.blocks[n], zeros),
                     float(mu)) for n, mu in md.get("r_blocks", ())]
        rho = rho_lower_bound(float(md["m1"]), float(md["M1"]),
                              float(md.get("M2", 0.0)),
                              float(md.get("M_F", 0.0)), q1, q2, r_blocks)
        _, traces, _ = solve(prob, rho=rho, max_iter=120, tol_primal=0.0,
                             tol_step=0.0, seed=0, init=inst.init or None)
        for a, b in zip(traces, traces[1:]):
            assert b.L <= a.L + 1e-9 * (1.0 + abs(a.L)), \
                f"{name}: L rose from {a.L:.9e} to {b.L:.9e} at k={b.k}"


def test_criterion_05_prox_tie_stays_inert():
    B = gen_nmf_data(8, 8, 2, seed=0)[0]
    inst = zoo.nmf3(B, 2, mu=1.0)
    rho = 4.0
    prob = add_prox_constraint(inst.problem, "X", np.eye(16), rho)
    shadow = prob.system.blocks["X_prox"]
    focus = prob.system.blocks["X"]
    eq_new = max(prob.system.eq_ids)
    st, _, _ = solve(prob, rho=rho, max_iter=0, seed=0)
    assert float(np.max(np.abs(st.multipliers[eq_new]))) == 0.0
    for k in range(1, 51):
        st, _ = step(prob, st)
        drift = float(np.max(np.abs(st.assignment[shadow]
                                    - st.assignment[focus])))
        w_norm = float(np.max(np.abs(st.multipliers[eq_new])))
        assert drift <= 1e-12, f"iteration {k}: shadow drifted {drift:.3e}"
        assert w_norm <= 1e-12, f"iteration {k}: tie multiplier {w_norm:.3e}"


def test_criterion_06_planted_factorization_reaches_feasibility():
    B, left, right = gen_nmf_data(20, 20, 3, seed=0)
    assert np.allclose(left @ right, B)
    inst = zoo.nmf3(B, 3, mu=1.0)
    start = time.perf_counter()
    _, traces, _ = solve(inst.problem, rho=1.0, max_iter=2000, tol_primal=0.0,
                         tol_step=0.0, seed=0)
    elapsed = time.perf_counter() - start
    hit = next((t.k for t in traces if t.primal_res <= 1e-6), None)
    assert hit is not None and hit <= 2000, \
        f"primal residual never reached 1e-6; final {traces[-1].primal_res:.3e}"
    assert elapsed < 30.0


def test_criterion_07_converged_states_are_stationary():
    B = gen_nmf_data(20, 20, 3, seed=7)[0]
    inst = zoo.nmf3(B, 3, mu=1.0)
    st, _, status = solve(inst.problem, max_iter=6000, tol_primal=1e-6,
                          tol_step=1e-6, seed=7)
    assert status == STATUS_CONVERGED
    est = stationarity(inst.problem, st)
    assert est.aggregate <= 1e-4, f"nmf3 stationarity {est.aggregate:.3e}"

    B2 = zoo.gen_dl_data(16, 16, 4, density=0.3, seed=0)[0]
    inst2 = zoo.dl3(B2, 4, mu_fit=50.0, mu_dict=50.0, mu_code=50.0,
                    l1_weight=1.0)
    st2, _, status2 = solve(inst2.problem, rho=20.0, max_iter=4000,
                            tol_primal=1e-6, tol_step=1e-6, seed=0)
    assert status2 == STATUS_CONVERGED
    est2 = stationarity(inst2.problem, st2)
    assert est2.aggregate <= 1e-4, f"dl3 stationarity {est2.aggregate:.3e}"


def _deconv_run(inst, rho, iters, Y):
    st, _, _ = solve(inst.problem, rho=rho, max_iter=0, seed=0,
                     init=inst.init)
    relfits, w_norms = [], []
    y_norm = float(np.linalg.norm(Y))
    for _ in range(iters):
        st, _ = step(inst.problem, st)
        named = {b.name: v for b, v in st.assignment.items()}
        fit = (circ_conv2(named["A"], named["X"])
               + float(named["b"][0, 0]) - Y)
        relfits.append(float(np.linalg.norm(fit)) / y_norm)
        w_norms.append(math.sqrt(sum(float(np.sum(w * w))
                                     for w in st.multipliers.values())))
    return relfits, w_norms


def test_criterion_08_deconvolution_desk_scale_reproduction():
    n, ks = 64, 16
    start = time.perf_counter()
    Y0 = gen_sbd_data(n, (ks, ks), theta=0.05, sigma=0.0, bias=0.1, seed=0)[0]
    sigma = 0.05 * float(np.linalg.norm(Y0)) / n
    Yn = gen_sbd_data(n, (ks, ks), theta=0.05, sigma=sigma, bias=0.1,
                      seed=0)[0]

    relfit, _ = _deconv_run(
        zoo.sbd1(Y0, (ks, ks), mu=cli.BENCH_MU, l1_weight=cli.BENCH_L1),
        cli.BENCH_RHO1, 500, Y0)
    assert min(relfit) <= 1e-3, \
        f"slack variant noiseless best relative fit {min(relfit):.3e}"

    _, w1 = _deconv_run(
        zoo.sbd1(Yn, (ks, ks), mu=cli.BENCH_MU_NOISY, l1_weight=cli.BENCH_L1),
        cli.BENCH_RHO1, 500, Yn)
    change = max(w1[499] / w1[99], w1[99] / w1[499])
    assert change <= 2.0, \
        f"slack variant multiplier norm changed {change:.2f}x over [100,500]"

    _, w0 = _deconv_run(
        zoo.sbd0(Yn, (ks, ks), l1_weight=cli.BENCH_L1),
        cli.BENCH_RHO0, 500, Yn)
    assert time.perf_counter() - start < 60.0

    # Known-red gate: with every block update solving its subproblem to
    # argmin quality, the bare variant's multipliers shrink on this data
    # instead of escaping, so tenfold growth is not observed.
    growth = w0[499] / w0[99]
    assert growth >= 10.0, \
        (f"bare variant multiplier norm ratio over [100,500] is "
         f"{growth:.3f}, not the tenfold growth this gate demands")


def test_criterion_09_checker_separates_families():
    for name in ("nmf3", "dl3", "rp2", "mc1", "sbd1"):
        report = check_assumptions(default_instance(name, seed=0).problem)
        assert report.overall == "pass", f"{name}: {report.failures()}"
    report = check_assumptions(default_instance("rpca2_raw", seed=0).problem)
    assert report.overall == "fail"
    names = [name for name, _ in report.failures()]
    assert "final_block_structure" in names
    detail = dict(report.failures())["final_block_structure"]
    assert "'S'" in detail


def test_criterion_10_frozen_forms_match_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for name in zoo.zoo_names():
        system = default_instance(name, seed=0).problem.system
        blocks = list(system.blocks.values())
        assign = {b: rng.standard_normal(b.shape) for b in blocks}
        for b in blocks:
            form = freeze(system, b, assign)
            for _ in range(3):
                v = rng.standard_normal(b.shape)
                plus = dict(assign)
                plus[b] = assign[b] + h * v
                minus = dict(assign)
                minus[b] = assign[b] - h * v
                fd = (stack_residual(evaluate(system, plus))
                      - stack_residual(evaluate(system, minus))) / (2.0 * h)
                lin = form.apply(v)
                scale = max(np.linalg.norm(fd), np.linalg.norm(lin), 1e-30)
                assert np.linalg.norm(fd - lin) / scale <= 1e-6, \
                    f"{name}/{b.name}: apply disagrees with differences"
                r = rng.standard_normal(fd.shape)
                lhs = float(fd @ r)
                rhs = float(np.ravel(v) @ form.adjoint(r))
                pair = max(abs(lhs), abs(rhs), 1e-30)
                assert abs(lhs - rhs) / pair <= 1e-6, \
                    f"{name}/{b.name}: adjoint disagrees with differences"

    # Quadratic subproblem against a dense pseudoinverse on an 8x8 block.
    rng = np.random.default_rng(3)
    x = BlockId("x", "x", (8, 8), index=0)
    system = MultiaffineSystem()
    system.add_equation(
        [LinearTerm(DenseOp(rng.standard_normal((64, 64)), (8, 8), (8, 8)), x),
         Constant(rng.standard_normal((8, 8)), sign=-1)])
    system.add_equation([LinearTerm(ScaledIdentity(0.7, (8, 8)), x),
                         Constant(rng.standard_normal((8, 8)), sign=-1)])
    form = freeze(system, x, {})
    w = rng.standard_normal(form.out_dim)
    rho, mu = 1.3, 0.4
    center = rng.standard_normal((8, 8))
    a = _probe_columns(form)
    normal = rho * (a.T @ a) + mu * np.eye(64)
    rhs = a.T @ (rho * form.offset - w) + mu * np.ravel(center)
    want = np.linalg.pinv(normal) @ rhs
    for method in (None, "dense", "cg"):
        got = quad_block_solve(form, w, rho,
                               extras=[Quadratic(mu, center=center)],
                               method=method)
        err = np.linalg.norm(np.ravel(got) - want)
        assert err <= 1e-8 * (1.0 + np.linalg.norm(want)), \
            f"method {method}: off by {err:.3e}"


def test_criterion_11_triangle_cut_matches_exhaustive_search():
    W = zoo.triangle_graph()
    best = -np.inf
    for bits in range(8):
        s = np.array([1.0 if bits >> i & 1 else -1.0 for i in range(3)])
        best = max(best, cut_value(W, np.outer(s, s)))
    assert best == 2.0
    inst = zoo.mc1(W)
    state, _, status = solve(inst.problem, max_iter=3000, seed=0)
    assert status == STATUS_CONVERGED
    got = cut_value(W, {b.name: v for b, v in
                        state.assignment.items()}["Z"])
    assert abs(got - best) <= 1e-3, f"cut {got:.6f} vs optimum {best}"
