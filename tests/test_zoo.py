"""Zoo tests: planted-data feasibility, construction errors, block layout,
tuned end-to-end gates per family, and oracles for the deconvolution's
custom updaters."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import madmm.prox as prox_mod
from madmm import diagnostics, zoo
from madmm.errors import BuildError
from madmm.solver import Problem, SolverState, STATUS_CONVERGED, solve, step
from madmm.system import (_conv_adjoint_kernel, _irfft2, _spectrum, circ_conv2,
                          evaluate, freeze)
from madmm.zoo import (cut_value, default_instance, dl3, gen_dl_data,
                       gen_nmf_data, gen_rp_data, gen_rpca_data, gen_sbd_data,
                       mc1, nmf3, rp2, rpca2, sbd0, sbd1, triangle_graph,
                       zoo_names)


# ---------------------------------------------------------------------------
# Oracles and helpers.

def _named(state):
    return {b.name: v for b, v in state.assignment.items()}


def _residual_norm(problem, assignment_by_name):
    """Stacked constraint residual at a name-keyed assignment."""
    blocks = problem.system.blocks
    assignment = {blocks[k]: np.asarray(v, dtype=float)
                  for k, v in assignment_by_name.items()}
    return float(np.sqrt(sum(np.sum(r * r)
                             for r in evaluate(problem.system, assignment))))


def _state_at(problem, assignment_by_name, rho=1.0):
    """Solver state at a given point with zero multipliers."""
    blocks = problem.system.blocks
    assignment = {blocks[k]: np.asarray(v, dtype=float)
                  for k, v in assignment_by_name.items()}
    mults = {e: np.zeros(problem.system.eq_shape(e))
             for e in problem.system.eq_ids}
    return SolverState(assignment, mults, rho, 0)


def _dense_conv_matrix(signal, kernel_shape):
    """Matrix of a -> circ_conv2(a, signal), column per kernel entry."""
    p, q = kernel_shape
    cols = []
    for i in range(p):
        for j in range(q):
            e = np.zeros((p, q))
            e[i, j] = 1.0
            cols.append(np.ravel(circ_conv2(e, signal)))
    return np.stack(cols, axis=1)


def _conv_adjoint_signal(kernel, resid, shape):
    """Gradient of X -> 1/2 ||conv(A, X) - T||^2 at residual conv - T."""
    padded = np.zeros(shape)
    padded[: kernel.shape[0], : kernel.shape[1]] = kernel
    k_hat = np.fft.rfft2(padded)
    return np.fft.irfft2(k_hat.conj() * np.fft.rfft2(resid), s=shape)


def _brute_force_cut(weights):
    n = weights.shape[0]
    best = -np.inf
    for bits in range(2 ** n):
        x = np.array([1.0 if bits >> i & 1 else -1.0 for i in range(n)])
        best = max(best, cut_value(weights, np.outer(x, x)))
    return best


# ---------------------------------------------------------------------------
# Construction errors.

def test_nmf3_rejects_bad_rank():
    B = np.ones((4, 3))
    with pytest.raises(BuildError):
        nmf3(B, 0)
    with pytest.raises(BuildError):
        nmf3(B, 4)


def test_dl3_rejects_empty_dictionary():
    with pytest.raises(BuildError):
        dl3(np.ones((4, 4)), 0)


def test_rp2_rejects_nonsquare_and_infeasible_boxes():
    with pytest.raises(BuildError):
        rp2(np.ones((3, 2)), 0.0, 1.0)
    cov = np.eye(3)
    with pytest.raises(ValueError):
        rp2(cov, 0.6, 0.4)          # lo > hi
    with pytest.raises(ValueError):
        rp2(cov, 0.5, 1.0)          # sum(lo) > 1
    with pytest.raises(ValueError):
        rp2(cov, 0.0, 0.2)          # sum(hi) < 1


def test_mc1_rejects_malformed_weights():
    with pytest.raises(BuildError):
        mc1(np.ones((2, 3)))
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(BuildError):
        mc1(bad)
    with pytest.raises(BuildError):
        mc1(np.eye(2))
    # NaN compares unequal to itself, so a symmetry test alone passes it.
    with pytest.raises(BuildError):
        mc1(np.array([[0.0, np.nan], [np.nan, 0.0]]))


def test_nan_data_rejected_at_build():
    # Left to the solver, NaN data in nmf3 ends as "Diverged" after one step
    # and in rpca2 as a raw LinAlgError from inside the penalty probe.
    B, _, _ = gen_nmf_data(6, 5, 2, seed=0)
    B[1, 2] = np.nan
    with pytest.raises(BuildError):
        nmf3(B, 2)
    with pytest.raises(BuildError):
        rpca2(B, 2)


def test_rpca2_rejects_bad_rank_and_variant():
    B = np.ones((4, 3))
    with pytest.raises(BuildError):
        rpca2(B, 0)
    with pytest.raises(BuildError):
        rpca2(B, 4)
    with pytest.raises(BuildError):
        rpca2(B, 2, variant="bogus")


def test_sbd_rejects_oversized_kernel():
    with pytest.raises(BuildError):
        sbd1(np.ones((8, 8)), (9, 4))
    with pytest.raises(BuildError):
        sbd0(np.ones((8, 8)), (4, 9))


def test_default_instance_rejects_unknown_name():
    with pytest.raises(BuildError, match="nmf3"):
        default_instance("nope")


def test_zoo_names_lists_every_family_sorted():
    names = zoo_names()
    assert names == sorted(names)
    assert names == ["dl3", "mc1", "nmf3", "rp2", "rpca2", "rpca2_raw",
                     "sbd0", "sbd1"]


# ---------------------------------------------------------------------------
# Planted ground truth is feasible to 1e-10.

def test_nmf3_planted_feasible():
    B, X0, Y0 = gen_nmf_data(6, 5, 2, seed=1)
    inst = nmf3(B, 2)
    point = {"X": X0, "Y": Y0, "X_pos": X0, "Y_pos": Y0,
             "X_rem": np.zeros_like(X0), "Y_rem": np.zeros_like(Y0),
             "Z": X0 @ Y0}
    assert _residual_norm(inst.problem, point) <= 1e-10
    assert np.min(X0) > 0 and np.min(Y0) > 0


def test_dl3_planted_feasible():
    B, D0, C0 = gen_dl_data(6, 8, 3, seed=2)
    inst = dl3(B, 3)
    point = {"D": D0, "C": C0, "D_unit": D0, "C_sparse": C0,
             "D_rem": np.zeros_like(D0), "C_rem": np.zeros_like(C0),
             "Z": D0 @ C0}
    assert _residual_norm(inst.problem, point) <= 1e-10
    assert np.allclose(np.linalg.norm(D0, axis=0), 1.0)


def test_rp2_uniform_point_feasible():
    cov, lo, hi = gen_rp_data(4, seed=0)
    inst = rp2(cov, lo, hi)
    x = np.full((4, 1), 0.25)
    y = cov @ x
    parity = np.zeros((4, 4))
    parity[1:, 0] = 1.0
    parity[1:, 1:] = -np.eye(3)
    point = {"x": x, "y": y, "x_box": x, "gap": parity @ (x * y),
             "y_slack": np.zeros((4, 1)), "box_slack": np.zeros((4, 1)),
             "budget_slack": np.zeros((1, 1))}
    assert _residual_norm(inst.problem, point) <= 1e-10


def test_mc1_sign_vector_feasible():
    W = triangle_graph()
    inst = mc1(W)
    x = np.array([[1.0], [1.0], [-1.0]])
    point = {"x": x, "y": x.T, "Z": x @ x.T, "s": np.zeros((3, 1))}
    assert _residual_norm(inst.problem, point) <= 1e-10


def test_rpca2_planted_feasible_both_variants():
    B, L0, S0 = gen_rpca_data(8, 7, 2, seed=3)
    U, s, Vt = np.linalg.svd(L0)
    U2 = U[:, :2] * s[:2]
    V2 = Vt[:2]
    assert np.linalg.norm(U2 @ V2 - L0) <= 1e-10 * np.linalg.norm(L0)
    slack = rpca2(B, 2)
    point = {"U": U2, "Vt": V2, "S": S0, "Z": np.zeros_like(B)}
    assert _residual_norm(slack.problem, point) <= 1e-10
    raw = rpca2(B, 2, variant="raw")
    assert _residual_norm(raw.problem, {"U": U2, "Vt": V2, "S": S0}) <= 1e-10


def test_sbd_planted_feasible():
    Y, A0, X0, b0 = gen_sbd_data(12, (3, 3), theta=0.2, bias=0.4, seed=4)
    inst = sbd1(Y, (3, 3))
    point = {"A": A0, "X": X0, "b": b0, "Z": np.zeros_like(Y)}
    assert _residual_norm(inst.problem, point) <= 1e-10
    inst0 = sbd0(Y, (3, 3))
    assert _residual_norm(inst0.problem, {"A": A0, "X": X0, "b": b0}) <= 1e-10


def test_default_instances_carry_feasible_truth():
    for name in ("nmf3", "dl3", "rpca2", "rpca2_raw", "sbd1", "sbd0"):
        inst = default_instance(name)
        assert inst.truth, name


# ---------------------------------------------------------------------------
# Generators.

def test_generators_are_deterministic():
    for gen, args in ((gen_nmf_data, (5, 4, 2)), (gen_dl_data, (5, 6, 2)),
                      (gen_rp_data, (4,)), (gen_rpca_data, (6, 5, 2)),
                      (gen_sbd_data, (8, (3, 3)))):
        a = gen(*args, seed=7)
        b = gen(*args, seed=7)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)


def test_gen_sbd_data_noiseless_identity():
    Y, A0, X0, b0 = gen_sbd_data(10, (3, 3), theta=0.3, sigma=0.0,
                                 bias=0.2, seed=1)
    assert np.allclose(Y, circ_conv2(A0, X0) + 0.2, atol=1e-14)
    assert abs(np.linalg.norm(A0) - 1.0) <= 1e-12


def test_gen_sbd_data_zero_sparsity_is_bias_plus_noise():
    Y, A0, X0, b0 = gen_sbd_data(10, (3, 3), theta=0.0, sigma=0.3,
                                 bias=0.7, seed=2)
    assert not np.any(X0)
    resid = Y - 0.7
    assert 0.05 < float(np.std(resid)) < 1.0
    assert not np.allclose(resid, 0.0)


# ---------------------------------------------------------------------------
# Block layout: roles, sweep order, z-group structure.

def test_nmf3_layout():
    inst = nmf3(np.ones((4, 4)), 2)
    assert [b.name for b in inst.problem.update_order] == \
        ["Y", "Y_pos", "X", "X_pos"]
    assert {b.name for b in inst.problem.z_order} == {"Z", "X_rem", "Y_rem"}
    assert all(b.role == "z1" for b in inst.problem.z_order)
    assert all(len(blocks) == 1 for blocks in inst.problem.z_components())


def test_rp2_layout():
    cov, lo, hi = gen_rp_data(3, seed=1)
    inst = rp2(cov, lo, hi)
    roles = {b.name: b.role for b in inst.problem.z_order}
    assert roles == {"gap": "z1", "y_slack": "z2", "box_slack": "z2",
                     "budget_slack": "z2"}
    assert len(inst.problem.z_components()) == 4


def test_sbd_layout():
    Y = np.zeros((6, 6))
    with_shadow = sbd1(Y, (2, 2))
    assert {b.name for b in with_shadow.problem.z_order} == {"Z"}
    bare = sbd0(Y, (2, 2))
    assert not bare.problem.z_order
    assert set(bare.problem.custom_updaters) == {"A", "X"}


@pytest.mark.parametrize("name", zoo_names())
def test_every_z_component_is_one_block(name):
    # Each slack has its own equation, so every z update is a lone block's.
    problem = default_instance(name, 0).problem
    components = problem.z_components()
    assert all(len(blocks) == 1 for blocks in components)
    assert [blocks[0] for blocks in components] == problem.z_order


def test_metadata_constants():
    inst = nmf3(np.ones((4, 4)), 2, mu=7.0)
    md = inst.problem.metadata
    assert (md["m1"], md["M1"], md["M2"]) == (1.0, 7.0, 0.0)
    inst = dl3(np.ones((4, 4)), 2, mu_fit=10.0, mu_dict=20.0, mu_code=30.0)
    md = inst.problem.metadata
    assert (md["m1"], md["M1"]) == (10.0, 30.0)
    cov, lo, hi = gen_rp_data(3, seed=1)
    md = rp2(cov, lo, hi, mu=11.0).problem.metadata
    assert (md["m1"], md["M1"], md["M2"]) == (11.0, 11.0, 11.0)
    md = mc1(triangle_graph(), mu_diag=5.0, mu_tie=3.0).problem.metadata
    assert (md["m1"], md["M2"]) == (5.0, 3.0)


def test_non_finite_weight_is_refused_before_a_run():
    # nmf3 at mu = nan used to run and end Diverged with L = inf.
    with pytest.raises(BuildError, match="Quadratic weight"):
        nmf3(np.ones((4, 4)), 2, mu=np.nan)


# Factor blocks take the Sylvester path, blocks with a nonsmooth term a prox
# step, and z blocks the diagonal path; rp2's Hadamard blocks, whose parity
# post-map has no diagonal gram, take the dense path.
UNIT_PATHS = {
    "nmf3": {"Y": "sylvester", "Y_pos": "prox", "X": "sylvester",
             "X_pos": "prox", "X_rem": "diag", "Y_rem": "diag", "Z": "diag"},
    "dl3": {"C": "sylvester", "C_sparse": "prox", "D": "sylvester",
            "D_unit": "prox", "C_rem": "diag", "D_rem": "diag", "Z": "diag"},
    "rpca2": {"U": "sylvester", "Vt": "sylvester", "S": "prox", "Z": "diag"},
    "rpca2_raw": {"U": "sylvester", "Vt": "sylvester", "S": "prox"},
    "rp2": {"x": "dense", "x_box": "prox", "y": "dense", "gap": "diag",
            "box_slack": "diag", "budget_slack": "diag", "y_slack": "diag"},
    "mc1": {"x": "sylvester", "y": "sylvester", "Z": "diag", "s": "diag"},
    "sbd1": {"A": "custom", "X": "custom", "b": "diag", "Z": "diag"},
    "sbd0": {"A": "custom", "X": "custom", "b": "diag"},
}


@pytest.mark.parametrize("name", zoo_names())
def test_every_unit_has_one_closed_form_path(name):
    """Each unit's solve path is fixed when its problem is built, and every
    family's sweep runs on closed-form solves: none reaches conjugate
    gradients."""
    units = default_instance(name, 0).problem._units
    paths = {focus[0].name: "custom" if plan is None else plan.path
             for focus, plan in units}
    assert paths == UNIT_PATHS[name]


# ---------------------------------------------------------------------------
# Custom updater oracles.

def test_kernel_update_matches_dense_damped_least_squares():
    rng = np.random.default_rng(11)
    Y = rng.standard_normal((8, 8))
    inst = sbd0(Y, (3, 3))
    blocks = inst.problem.system.blocks
    signal = rng.standard_normal((8, 8))
    assignment = {blocks["A"]: rng.standard_normal((3, 3)),
                  blocks["X"]: signal,
                  blocks["b"]: np.array([[0.3]])}
    eq = inst.problem.system.eq_ids[0]
    mults = {eq: rng.standard_normal((8, 8))}
    rho = 2.5
    updater = inst.problem.custom_updaters["A"]
    got = updater(inst.problem, blocks["A"], assignment, mults, rho)

    # Oracle: minimize 1/2 ||M a - t||^2 + kappa/2 ||a - a0||^2 by stacked
    # least squares, with t the multiplier-shifted target of the equation.
    M = _dense_conv_matrix(signal, (3, 3))
    t = np.ravel(Y - 0.3 - mults[eq] / rho)
    kappa = zoo._KERNEL_PROX_WEIGHT
    a0 = np.ravel(assignment[blocks["A"]])
    top = np.vstack([M, np.sqrt(kappa) * np.eye(9)])
    rhs = np.concatenate([t, np.sqrt(kappa) * a0])
    want = np.linalg.lstsq(top, rhs, rcond=None)[0]
    assert np.linalg.norm(np.ravel(got) - want) <= 1e-8 * (1 + np.linalg.norm(want))


def test_kernel_update_fixed_point_is_the_undamped_solution():
    """The proximal anchor changes steps, not solutions: starting the update
    at the exact least-squares kernel returns that kernel."""
    rng = np.random.default_rng(12)
    Y = rng.standard_normal((8, 8))
    inst = sbd0(Y, (3, 3))
    blocks = inst.problem.system.blocks
    signal = rng.standard_normal((8, 8))
    M = _dense_conv_matrix(signal, (3, 3))
    t = np.ravel(Y - 0.1)
    a_star = np.linalg.lstsq(M, t, rcond=None)[0]
    assignment = {blocks["A"]: a_star.reshape(3, 3), blocks["X"]: signal,
                  blocks["b"]: np.array([[0.1]])}
    eq = inst.problem.system.eq_ids[0]
    mults = {eq: np.zeros((8, 8))}
    updater = inst.problem.custom_updaters["A"]
    got = updater(inst.problem, blocks["A"], assignment, mults, 1.0)
    assert np.linalg.norm(np.ravel(got) - a_star) <= 1e-9 * (1 + np.linalg.norm(a_star))


def _fancy_index_kernel_update(problem, block, assignment, multipliers, rho):
    """The kernel update as it ran with its normal matrix gathered from the
    autocorrelation by a 4-D fancy index built on every call."""
    form = freeze(problem.system, block, assignment)
    (piece,) = form.pieces
    signal = np.asarray(piece.signal, dtype=float)
    _, target_hat = form.conv_target(piece, multipliers, rho)
    p, q = block.shape
    n1, n2 = signal.shape
    sig_hat = _spectrum(signal, signal.shape)
    power = np.zeros(sig_hat.shape, complex)
    np.square(np.abs(sig_hat, out=power.real), out=power.real)
    autocorr = _irfft2(power, (n1, n2))
    d1 = (np.arange(p)[:, None] - np.arange(p)[None, :]) % n1
    d2 = (np.arange(q)[:, None] - np.arange(q)[None, :]) % n2
    normal = autocorr[d1[:, None, :, None], d2[None, :, None, :]]
    normal = normal.reshape(p * q, p * q)
    rhs = np.ravel(_conv_adjoint_kernel(signal, target_hat, (p, q)))
    current = np.ravel(assignment[block])
    gap = rhs - normal @ current
    normal.flat[:: p * q + 1] += zoo._KERNEL_PROX_WEIGHT
    return (current + np.linalg.solve(normal, gap)).reshape(p, q)


def test_kernel_update_bytes_match_the_fancy_index_gather():
    # One updater across both points, so the second call reads the gather
    # index the first one built.
    inst = default_instance("sbd1", 0)
    problem = inst.problem
    A = problem.system.blocks["A"]
    updater = problem.custom_updaters["A"]
    for steps in (1, 5):
        state, _, _ = solve(problem, max_iter=steps, init=inst.init)
        got = updater(problem, A, state.assignment, state.multipliers, state.rho)
        want = _fancy_index_kernel_update(problem, A, state.assignment,
                                          state.multipliers, state.rho)
        assert got.tobytes() == want.tobytes()


def test_signal_update_satisfies_lasso_optimality_at_large_budget():
    rng = np.random.default_rng(13)
    Y = rng.standard_normal((10, 10))
    l1_weight = 0.7
    inst = sbd0(Y, (3, 3), l1_weight=l1_weight)
    blocks = inst.problem.system.blocks
    kernel = rng.standard_normal((3, 3))
    assignment = {blocks["A"]: kernel,
                  blocks["X"]: np.zeros((10, 10)),
                  blocks["b"]: np.array([[0.0]])}
    eq = inst.problem.system.eq_ids[0]
    mults = {eq: rng.standard_normal((10, 10))}
    rho = 1.5
    updater = zoo._sparse_conv_updater(l1_weight, max_passes=4000)
    X = updater(inst.problem, blocks["X"], assignment, mults, rho)

    # KKT oracle for min l1 ||X||_1 + rho/2 ||conv(A, X) - T||^2.
    T = Y - mults[eq] / rho
    grad = rho * _conv_adjoint_signal(kernel, circ_conv2(kernel, X) - T,
                                      (10, 10))
    scale = 1e-6 * (1.0 + float(np.max(np.abs(grad))))
    on = X != 0
    assert np.all(np.abs(grad[on] + l1_weight * np.sign(X[on])) <= scale)
    assert np.all(np.abs(grad[~on]) <= l1_weight + scale)
    assert np.any(on) and not np.all(on)


def _reference_sparse_update(kernel, target, rho, l1_weight, max_passes):
    """The sparse-signal split loop as first written: fresh arrays from
    rfft2 and irfft2 on every pass and shrinkage by sign * max(|.| - tau, 0).
    The shipped updater must return the same array."""
    shape = target.shape
    padded = np.zeros(shape)
    padded[: kernel.shape[0], : kernel.shape[1]] = kernel
    ker_hat = np.fft.rfft2(padded)
    spectrum = (ker_hat.conj() * ker_hat).real.copy()
    eta = rho * max(1.0, float(np.sum(kernel * kernel)))
    inv_denom = 1.0 / (rho * spectrum + eta)
    quad_hat = rho * ker_hat.conj() * np.fft.rfft2(target)
    scale = 1.0 + float(np.linalg.norm(target))
    v, u = np.zeros(shape), np.zeros(shape)
    for it in range(max_passes):
        hat = np.fft.rfft2(v * eta - u)
        hat += quad_hat
        hat.real *= inv_denom
        hat.imag *= inv_denom
        x = np.fft.irfft2(hat, s=shape)
        point = u / eta + x
        v_new = np.maximum(np.abs(point) - l1_weight / eta, 0.0) * np.sign(point)
        d, dv = x - v_new, v_new - v
        u += d * eta
        gap = max(float(np.max(np.abs(d))), eta * float(np.max(np.abs(dv))))
        v = v_new
        if gap <= zoo._INNER_TOL * scale:
            break
        if it % 10 == 9:
            split_res = float(np.linalg.norm(d))
            drift_res = eta * float(np.linalg.norm(dv))
            if split_res > 10.0 * drift_res:
                eta *= 2.0
                inv_denom = 1.0 / (rho * spectrum + eta)
            elif drift_res > 10.0 * split_res:
                eta *= 0.5
                inv_denom = 1.0 / (rho * spectrum + eta)
    return v


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 12), st.integers(2, 12), st.data())
def test_signal_update_matches_reference_loop(n1, n2, data):
    p = data.draw(st.integers(1, n1))
    q = data.draw(st.integers(1, n2))
    rho = data.draw(st.floats(1e-2, 1e4))
    l1_weight = data.draw(st.floats(0.0, 3.0))
    passes = data.draw(st.integers(1, 45))
    shadow = data.draw(st.booleans())
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    Y = rng.standard_normal((n1, n2))
    inst = (sbd1(Y, (p, q), l1_weight=l1_weight) if shadow
            else sbd0(Y, (p, q), l1_weight=l1_weight))
    blocks = inst.problem.system.blocks
    assignment = {b: rng.standard_normal(b.shape) for b in blocks.values()}
    eq = inst.problem.system.eq_ids[0]
    mults = {eq: rng.standard_normal((n1, n2))}
    got = zoo._sparse_conv_updater(l1_weight, max_passes=passes)(
        inst.problem, blocks["X"], assignment, mults, rho)
    form = freeze(inst.problem.system, blocks["X"], assignment)
    target = form.offset_for(eq) - mults[eq] / rho
    want = _reference_sparse_update(assignment[blocks["A"]], target, rho,
                                    l1_weight, passes)
    assert np.array_equal(got, want)


def _in_place_sparse_update(problem, block, assignment, multipliers, rho,
                            l1_weight, max_passes):
    """The sparse-signal update as it ran before its zero-start pass and lazy
    exit test: every pass transforms eta * v - u, and the drift v_new - v is
    formed on every pass.  Returns the result and the passes run."""
    form = freeze(problem.system, block, assignment)
    (piece,) = form.pieces
    kernel = np.asarray(piece.kernel, dtype=float)
    target = piece.sign * (form.offset_for(piece.eq_id)
                           - multipliers[piece.eq_id] / rho)
    shape = block.shape
    ker_hat = _spectrum(kernel, shape)
    spectrum = (ker_hat.conj() * ker_hat).real.copy()
    eta = rho * max(1.0, float(np.sum(kernel * kernel)))
    inv_denom = 1.0 / (rho * spectrum + eta)
    quad_hat = rho * ker_hat.conj() * _spectrum(target, shape)
    scale = 1.0 + float(np.linalg.norm(target))
    v, v_new, u, tmp, x = (np.zeros(shape), np.empty(shape), np.zeros(shape),
                           np.empty(shape), np.empty(shape))
    hat = np.empty(quad_hat.shape, complex)
    passes = 0
    for it in range(max_passes):
        passes += 1
        np.multiply(v, eta, out=tmp)
        tmp -= u
        np.fft.rfft2(tmp, out=hat)
        hat += quad_hat
        hat.real *= inv_denom
        hat.imag *= inv_denom
        _irfft2(hat, shape, out=x)
        np.divide(u, eta, out=tmp)
        tmp += x
        prox_mod.soft_threshold(tmp, l1_weight / eta, out=v_new)
        d = np.subtract(x, v_new, out=x)
        dv = np.subtract(v_new, v, out=v)
        u += np.multiply(d, eta, out=tmp)
        gap = max(float(np.max(np.abs(d, out=tmp))),
                  eta * float(np.max(np.abs(dv, out=tmp))))
        v, v_new = v_new, v
        if gap <= zoo._INNER_TOL * scale:
            break
        if it % 10 == 9:
            split_res = float(np.linalg.norm(d))
            drift_res = eta * float(np.linalg.norm(dv))
            if split_res > 10.0 * drift_res:
                eta *= 2.0
                inv_denom = 1.0 / (rho * spectrum + eta)
            elif drift_res > 10.0 * split_res:
                eta *= 0.5
                inv_denom = 1.0 / (rho * spectrum + eta)
    return v, passes


@pytest.mark.parametrize("name", ["sbd1", "sbd0"])
@pytest.mark.parametrize("steps", [1, 5, 20])
def test_signal_update_bytes_match_the_in_place_loop(name, steps):
    inst = default_instance(name, 0)
    problem = inst.problem
    state, _, _ = solve(problem, max_iter=steps, init=inst.init)
    X = problem.system.blocks["X"]
    # The shipped budget; a budget whose exit test fires before it ends;
    # one that crosses two rebalances.
    for passes in (zoo._SBD_INNER_BUDGET, 3000, 25):
        got = zoo._sparse_conv_updater(1.0, max_passes=passes)(
            problem, X, state.assignment, state.multipliers, state.rho)
        want, ran = _in_place_sparse_update(
            problem, X, state.assignment, state.multipliers, state.rho, 1.0,
            passes)
        assert got.tobytes() == want.tobytes()
        if passes == 3000:
            assert ran < passes
        else:
            assert ran == passes


# ---------------------------------------------------------------------------
# End-to-end gates per family.

def test_nmf3_planted_solve_reaches_tiny_objective():
    B, X0, Y0 = gen_nmf_data(20, 20, 3, seed=0)
    inst = nmf3(B, 3)
    state, traces, _ = solve(inst.problem, rho=2.0, max_iter=4000)
    nv = _named(state)
    objective = 0.5 * np.sum((nv["Z"] - B) ** 2) \
        + 0.5 * (np.sum(nv["X_rem"] ** 2) + np.sum(nv["Y_rem"] ** 2))
    assert objective <= 1e-6
    assert np.min(nv["X_pos"]) >= 0 and np.min(nv["Y_pos"]) >= 0


def test_nmf3_large_penalty_crushes_remainder_blocks():
    B, _, _ = gen_nmf_data(20, 20, 3, seed=0)
    small, _, _ = solve(nmf3(B, 3, mu=1.0).problem, rho=10.0, max_iter=1500)
    large, _, _ = solve(nmf3(B, 3, mu=1e6).problem, rho=10.0, max_iter=1500)
    for name in ("X_rem", "Y_rem"):
        big_run = np.linalg.norm(_named(large)[name])
        assert big_run <= 1e-3
        assert big_run < np.linalg.norm(_named(small)[name])


def test_nmf3_zero_data_zero_point_is_stationary():
    inst = nmf3(np.zeros((4, 4)), 2)
    zeros = {b.name: np.zeros(b.shape)
             for b in inst.problem.system.blocks.values()}
    assert _residual_norm(inst.problem, zeros) == 0.0
    state = _state_at(inst.problem, zeros)
    assert diagnostics.stationarity(inst.problem, state).aggregate <= 1e-12


def test_dl3_planted_solve_recovers_reconstruction():
    B, D0, C0 = gen_dl_data(16, 16, 4, density=0.3, seed=0)
    inst = dl3(B, 4)
    state, _, status = solve(inst.problem, rho=20.0, max_iter=2000)
    assert status == STATUS_CONVERGED
    nv = _named(state)
    rel = np.linalg.norm(nv["D"] @ nv["C"] - B) / np.linalg.norm(B)
    assert rel <= 1e-2
    assert np.allclose(np.linalg.norm(nv["D_unit"], axis=0), 1.0, atol=1e-8)


def test_dl3_sparsity_weight_path_is_monotone():
    B, _, _ = gen_dl_data(16, 16, 4, density=0.3, seed=0)
    counts = []
    for l1w in (0.5, 1.0, 4.0):
        state, _, _ = solve(dl3(B, 4, l1_weight=l1w).problem, rho=20.0,
                            max_iter=400, seed=0)
        counts.append(int(np.sum(_named(state)["C_sparse"] != 0)))
    assert counts[0] >= counts[1] >= counts[2]
    assert counts[2] < counts[0]


def test_dl3_zero_data_unit_dictionary_point_is_stationary():
    inst = dl3(np.zeros((4, 4)), 2)
    D = np.zeros((4, 2))
    D[0, 0] = 1.0
    D[1, 1] = 1.0
    point = {b.name: np.zeros(b.shape)
             for b in inst.problem.system.blocks.values()}
    point.update({"D": D, "D_unit": D})
    assert _residual_norm(inst.problem, point) == 0.0
    state = _state_at(inst.problem, point)
    assert diagnostics.stationarity(inst.problem, state).aggregate <= 1e-12


def test_rp2_identity_covariance_equalizes_weights():
    inst = rp2(np.eye(4), np.zeros((4, 1)), np.ones((4, 1)))
    state, traces, status = solve(inst.problem, max_iter=3000)
    assert status == STATUS_CONVERGED
    assert traces[-1].primal_res <= 1e-6
    x = np.ravel(_named(state)["x"])
    assert np.max(np.abs(x - 0.25)) <= 1e-4


def test_rp2_random_covariance_equalizes_risk_contributions():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    cov = A @ A.T / 3 + 0.1 * np.eye(3)
    inst = rp2(cov, np.zeros((3, 1)), np.ones((3, 1)))
    state, _, status = solve(inst.problem, max_iter=3000)
    assert status == STATUS_CONVERGED
    x = _named(state)["x"]
    contrib = np.ravel(x * (cov @ x))
    assert np.ptp(contrib) <= 1e-4


def test_rp2_pinned_box_forces_uniform_weights():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    cov = A @ A.T / 3 + 0.1 * np.eye(3)
    inst = rp2(cov, np.full((3, 1), 1 / 3), np.full((3, 1), 1 / 3))
    state, _, status = solve(inst.problem, max_iter=500)
    assert status == STATUS_CONVERGED
    assert np.max(np.abs(_named(state)["x_box"] - 1 / 3)) <= 1e-12


def test_mc1_single_edge_reaches_unit_cut():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    inst = mc1(W)
    state, _, status = solve(inst.problem, max_iter=2000, seed=1)
    assert status == STATUS_CONVERGED
    assert abs(cut_value(W, _named(state)["Z"]) - 1.0) <= 1e-3
    assert _brute_force_cut(W) == 1.0


def test_mc1_triangle_matches_brute_force():
    W = triangle_graph()
    inst = mc1(W)
    state, _, status = solve(inst.problem, max_iter=3000, seed=0)
    assert status == STATUS_CONVERGED
    assert abs(cut_value(W, _named(state)["Z"]) - _brute_force_cut(W)) <= 1e-3
    assert _brute_force_cut(W) == 2.0


def test_mc1_zero_weights_have_zero_cut_everywhere():
    W = np.zeros((3, 3))
    inst = mc1(W)
    rng = np.random.default_rng(0)
    for _ in range(5):
        Z = rng.standard_normal((3, 3))
        assert cut_value(W, Z) == 0.0
    state, _, _ = solve(inst.problem, max_iter=50)
    assert cut_value(W, _named(state)["Z"]) == 0.0


def test_rpca2_separates_planted_low_rank_from_spikes():
    B, L0, S0 = gen_rpca_data(20, 16, 3, seed=0)
    inst = rpca2(B, 3, lam=0.5, mu=50.0)
    state, _, status = solve(inst.problem, max_iter=2000)
    assert status == STATUS_CONVERGED
    nv = _named(state)
    rel = np.linalg.norm(nv["U"] @ nv["Vt"] - L0) / np.linalg.norm(L0)
    assert rel <= 0.05


def test_rpca2_free_sparse_part_absorbs_everything():
    B, _, _ = gen_rpca_data(12, 10, 2, seed=1)
    inst = rpca2(B, 2, lam=0.0)
    state, _, status = solve(inst.problem, max_iter=1000)
    assert status == STATUS_CONVERGED
    nv = _named(state)
    assert np.linalg.norm(nv["U"]) <= 1e-8
    assert np.linalg.norm(nv["Vt"]) <= 1e-8
    assert np.linalg.norm(nv["S"] - B) <= 1e-8 * (1 + np.linalg.norm(B))


def test_rpca2_overcomplete_rank_fits_clean_data():
    U0 = np.random.default_rng(5).standard_normal((12, 2))
    V0 = np.random.default_rng(6).standard_normal((2, 10))
    B = U0 @ V0
    inst = rpca2(B, 3, mu=10.0)
    state, _, status = solve(inst.problem, max_iter=2000)
    assert status == STATUS_CONVERGED
    nv = _named(state)
    rel = np.linalg.norm(nv["U"] @ nv["Vt"] - B) / np.linalg.norm(B)
    assert rel <= 1e-2
    assert np.linalg.norm(nv["S"]) <= 1e-8


def test_sbd1_noiseless_default_reaches_small_relative_fit():
    inst = default_instance("sbd1")
    Y = inst.data["Y"]
    state, _, _ = solve(inst.problem, rho=1.0, max_iter=500, init=inst.init)
    nv = _named(state)
    fit = circ_conv2(nv["A"], nv["X"]) + nv["b"][0, 0] - Y
    assert np.linalg.norm(fit) / np.linalg.norm(Y) <= 1e-3


def test_sbd_zero_data_zero_point_is_stationary():
    Y = np.zeros((8, 8))
    for build in (lambda: sbd1(Y, (3, 3)), lambda: sbd0(Y, (3, 3))):
        inst = build()
        zeros = {b.name: np.zeros(b.shape)
                 for b in inst.problem.system.blocks.values()}
        zeros["A"] = inst.init["A"]
        assert _residual_norm(inst.problem, zeros) == 0.0
        state = _state_at(inst.problem, zeros)
        assert diagnostics.stationarity(inst.problem, state).aggregate <= 1e-12
