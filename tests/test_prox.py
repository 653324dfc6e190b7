"""Prox-map and quadratic-block-solver tests.

Oracles: the shrinkage map is checked against a dense grid search on its
defining objective; projections are checked against sampled feasible
competitors; the block solver is checked against explicitly assembled normal
equations solved with a pseudoinverse.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from madmm import (BlockId, BuildError, Constant, DenseOp, DiagExtract,
                   HadamardPair, LinearTerm, MatChain, MultiaffineSystem,
                   Problem, ScaledIdentity, ShapeMismatchError,
                   SubproblemError, TransposeOp, freeze, solve, zoo)
from madmm.prox import (L1, IndicatorBox, IndicatorNonneg, IndicatorUnitColumns,
                        Quadratic, SmoothCustom, project_box, project_nonneg,
                        project_unit_columns, prox_block_step, quad_block_solve,
                        soft_threshold)
from test_system import _random_system


def _grid_prox_l1(v: float, tau: float, n: int = 10_000) -> float:
    """Brute-force argmin of tau*|c| + (c - v)^2 / 2 over a dense grid."""
    span = abs(v) + tau + 1.0
    grid = np.linspace(-span, span, n)
    costs = tau * np.abs(grid) + 0.5 * (grid - v) ** 2
    return float(grid[int(np.argmin(costs))])


def _dense_of_map(op, in_shape):
    cols = []
    probe = np.zeros(in_shape)
    flat = probe.reshape(-1)
    for j in range(flat.size):
        flat[j] = 1.0
        cols.append(np.ravel(op.apply(probe)))
        flat[j] = 0.0
    return np.column_stack(cols)


def _probe_matrix(form):
    cols = []
    basis = np.zeros(form.in_dim)
    for j in range(form.in_dim):
        basis[j] = 1.0
        cols.append(form.apply(basis))
        basis[j] = 0.0
    return np.column_stack(cols)


def _oracle_normal(form, w_vec, rho, extras):
    """(rho*A^T A + H, rhs) of the block subproblem, assembled densely."""
    slices = {b.name: (sl, b.shape) for b, sl in zip(form.focus, form.plan.cols)}
    n = form.in_dim
    hess = np.zeros((n, n))
    lin = np.zeros(n)
    for entry in extras:
        if isinstance(entry, tuple):
            name, term = entry
        else:
            name, term = form.focus[0].name, entry
        sl, shape = slices[name]
        if isinstance(term, Quadratic):
            dim = sl.stop - sl.start
            m = np.eye(dim) if term.linear_map is None else _dense_of_map(term.linear_map, shape)
            hess[sl, sl] += term.weight * (m.T @ m)
            if term.center is not None:
                lin[sl] += term.weight * (m.T @ np.ravel(term.center))
        elif isinstance(term, SmoothCustom):
            lin[sl] -= np.ravel(term.grad(np.zeros(shape)))
        else:
            raise AssertionError("oracle got a term it cannot assemble")
    a = _probe_matrix(form)
    normal = rho * (a.T @ a) + hess
    rhs = a.T @ (rho * form.offset - w_vec) + lin
    return normal, rhs


def _pinv_oracle(form, w_vec, rho, extras):
    """Assemble rho*A^T A + H densely and solve by pseudoinverse."""
    normal, rhs = _oracle_normal(form, w_vec, rho, extras)
    return np.linalg.pinv(normal) @ rhs


def _stacked(form, result):
    """The focus vector of quad_block_solve's result, in the form's layout."""
    if len(form.focus) == 1:
        return np.ravel(result)
    y = np.empty(form.in_dim)
    for b, sl in zip(form.focus, form.plan.cols):
        y[sl] = np.ravel(result[b.name])
    return y


def test_soft_threshold_matches_grid_search():
    for v, tau in [(3.0, 1.0), (-2.5, 0.7), (0.4, 1.2), (-0.9, 0.9), (0.0, 0.3)]:
        got = float(soft_threshold(np.array(v), tau))
        want = _grid_prox_l1(v, tau)
        span = abs(v) + tau + 1.0
        assert abs(got - want) <= 2 * span / 10_000


@settings(max_examples=200, deadline=None)
@given(st.floats(-50, 50), st.floats(0, 10))
def test_soft_threshold_subgradient_optimality(v, tau):
    p = float(soft_threshold(np.array(v), tau))
    if p > 0:
        assert abs(p - v + tau) <= 1e-9 * (1 + abs(v))
    elif p < 0:
        assert abs(p - v - tau) <= 1e-9 * (1 + abs(v))
    else:
        assert abs(v) <= tau + 1e-12


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats() | st.sampled_from([0.0, -0.0, np.inf, -np.inf,
                                                np.nan]),
                min_size=1, max_size=12),
       st.floats(0.0) | st.sampled_from([0.0, 0.5, np.inf]))
def test_soft_threshold_matches_sign_formula(values, tau):
    # Bit for bit sign(v) * max(|v| - tau, 0), NaN for NaN, except that an
    # input of exactly -0.0 now shrinks to -0.0 (the sign formula gave +0.0).
    v = np.array(values)
    with np.errstate(invalid="ignore"):  # inf - inf
        got = soft_threshold(v, tau)
        want = np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)
    neg_zero = (v == 0.0) & np.signbit(v)
    same = (got.view(np.int64) == want.view(np.int64)) | (np.isnan(got)
                                                          & np.isnan(want))
    assert np.all(same | neg_zero)
    assert np.all((got[neg_zero] == 0.0) & np.signbit(got[neg_zero]))
    out = np.full_like(v, 7.0)
    with np.errstate(invalid="ignore"):
        assert soft_threshold(v, tau, out=out) is out
    assert np.array_equal(out, got, equal_nan=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.floats(0.0, 3.0),
       st.integers(0, 2 ** 32 - 1))
def test_l1_stat_residual_matches_where_formula(rows, cols, lam, seed):
    # Bit for bit the one-expression form it replaced.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, cols)) * (rng.random((rows, cols)) < 0.5)
    g = rng.standard_normal((rows, cols)) * 2.0
    want = float(np.linalg.norm(np.where(
        np.abs(x) > 1e-12, np.abs(g + lam * np.sign(x)),
        np.maximum(np.abs(g) - lam, 0.0))))
    assert L1(lam).stat_residual(x, g) == want


def test_soft_threshold_preserves_shape():
    x = np.arange(12, dtype=float).reshape(3, 4) - 6.0
    out = soft_threshold(x, 2.0)
    assert out.shape == (3, 4)
    assert np.all(np.abs(out) <= np.maximum(np.abs(x) - 2.0, 0.0) + 1e-15)


def test_project_nonneg_sampled_optimality():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((6, 4))
    p = project_nonneg(v)
    assert np.min(p) >= 0.0
    d_best = np.linalg.norm(p - v)
    for _ in range(1000):
        w = np.abs(rng.standard_normal((6, 4)))
        assert d_best <= np.linalg.norm(w - v) + 1e-12
    assert np.array_equal(project_nonneg(p), p)


def test_project_box_sampled_optimality():
    rng = np.random.default_rng(1)
    lo = rng.standard_normal((5, 3)) - 1.0
    hi = lo + np.abs(rng.standard_normal((5, 3))) + 0.1
    v = 3.0 * rng.standard_normal((5, 3))
    p = project_box(v, lo, hi)
    assert np.all(p >= lo) and np.all(p <= hi)
    d_best = np.linalg.norm(p - v)
    for _ in range(1000):
        w = lo + rng.uniform(size=(5, 3)) * (hi - lo)
        assert d_best <= np.linalg.norm(w - v) + 1e-12


def test_non_finite_data_rejected_at_build():
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    x = BlockId("x", "x", (2, 2))
    with pytest.raises(BuildError):
        Constant(bad)
    with pytest.raises(BuildError):
        MatChain([np.array([[np.inf, 0.0], [0.0, 1.0]]), x])
    with pytest.raises(BuildError):
        Quadratic(1.0, center=bad)
    with pytest.raises(BuildError):
        DenseOp(bad)
    with pytest.raises(BuildError):
        IndicatorBox(np.nan, 1.0)
    with pytest.raises(BuildError):
        IndicatorBox(0.0, np.array([1.0, np.nan]))
    # An infinite bound means "no bound" and stays legal.
    box = IndicatorBox(-np.inf, np.array([1.0, np.inf]))
    assert box.value(np.array([-5.0, 9.0])) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["Quadratic weight", "L1 weight",
                                  "ScaledIdentity alpha"])
def test_non_finite_weights_rejected_at_build(name, bad):
    # A NaN weight used to build and run until the solve reported Diverged.
    build = {"Quadratic weight": Quadratic, "L1 weight": L1,
             "ScaledIdentity alpha": lambda v: ScaledIdentity(v, (2, 2))}[name]
    with pytest.raises(BuildError, match=name):
        build(bad)


def test_project_box_rejects_empty_box():
    with pytest.raises(ValueError):
        project_box(np.zeros(3), lo=1.0, hi=-1.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=4, max_size=4),
       st.lists(st.floats(-5, 5), min_size=4, max_size=4))
def test_projections_nonexpansive(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    assert (np.linalg.norm(project_nonneg(a) - project_nonneg(b))
            <= np.linalg.norm(a - b) + 1e-12)
    lo, hi = -1.0, 2.0
    assert (np.linalg.norm(project_box(a, lo, hi) - project_box(b, lo, hi))
            <= np.linalg.norm(a - b) + 1e-12)
    assert (np.linalg.norm(soft_threshold(a, 0.7) - soft_threshold(b, 0.7))
            <= np.linalg.norm(a - b) + 1e-12)


def test_project_unit_columns_sampled_optimality():
    rng = np.random.default_rng(2)
    v = rng.standard_normal((5, 3))
    p = project_unit_columns(v)
    assert np.allclose(np.linalg.norm(p, axis=0), 1.0, atol=1e-12)
    for j in range(3):
        d_best = np.linalg.norm(p[:, j] - v[:, j])
        for _ in range(1000):
            w = rng.standard_normal(5)
            w /= np.linalg.norm(w)
            assert d_best <= np.linalg.norm(w - v[:, j]) + 1e-12


def test_project_unit_columns_zero_column_goes_to_first_axis():
    v = np.zeros((4, 2))
    v[:, 1] = [0.0, 3.0, 0.0, 4.0]
    p = project_unit_columns(v)
    assert np.array_equal(p[:, 0], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(p[:, 1], [0.0, 0.6, 0.0, 0.8])
    # Each entry is divided by its column's norm, as a per-column divide would.
    assert np.array_equal(p[:, 1], v[:, 1] / np.linalg.norm(v, axis=0)[1])


def test_indicator_values_and_proxes():
    nn = IndicatorNonneg()
    assert nn.value(np.array([[0.0, 1.0]])) == 0.0
    assert nn.value(np.array([[-1e-10, 1.0]])) == 0.0
    assert nn.value(np.array([[-1.0, 1.0]])) == np.inf
    assert np.array_equal(nn.prox(np.array([-2.0, 3.0]), 0.7), [0.0, 3.0])

    box = IndicatorBox(-1.0, np.full((2,), 2.0))
    assert box.value(np.array([0.5, -1.0])) == 0.0
    assert box.value(np.array([0.5, 2.5])) == np.inf
    assert np.array_equal(box.prox(np.array([-3.0, 1.0]), 1.0), [-1.0, 1.0])
    with pytest.raises(BuildError):
        IndicatorBox(1.0, 0.0)

    uc = IndicatorUnitColumns()
    eye = np.eye(3)
    assert uc.value(eye) == 0.0
    assert uc.value(2 * eye) == np.inf
    assert np.allclose(np.linalg.norm(uc.prox(np.ones((3, 2)), 0.1), axis=0), 1.0)


def test_box_with_an_open_side_reads_like_its_closed_side_alone():
    # An infinite bound made the tolerance band infinite (inf - inf inside
    # it): [0, +inf) read every entry as at its lower bound, and (-inf, 1]
    # read 0.5 as at its upper one, each with a RuntimeWarning.
    inf = np.inf
    x, g = np.array([[5.0], [0.0]]), np.array([[3.0], [-2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (IndicatorBox(0.0, inf).stat_residual(x, g)
                == IndicatorNonneg().stat_residual(x, g))
        assert IndicatorBox(-inf, inf).stat_residual(x, g) == np.linalg.norm(g)
        upper = IndicatorBox(-inf, 1.0)
        assert upper.stat_residual(np.array([[0.5]]), np.array([[-2.0]])) == 2.0
        assert upper.stat_residual(np.array([[1.0]]), np.array([[-2.0]])) == 0.0
        assert upper.stat_residual(np.array([[1.0]]), np.array([[2.0]])) == 2.0


def test_l1_prox_matches_soft_threshold():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((4, 4))
    term = L1(weight=0.8)
    assert np.array_equal(term.prox(v, 0.5), soft_threshold(v, 0.4))
    assert term.value(v) == pytest.approx(0.8 * np.abs(v).sum())


def test_quadratic_value_and_grad_finite_difference():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((6, 6))
    term = Quadratic(0.7, center=rng.standard_normal((3, 2)),
                     linear_map=DenseOp(m, (3, 2), (3, 2)))
    x = rng.standard_normal((3, 2))
    g = term.grad(x)
    h = 1e-6
    fd = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        fd[idx] = (term.value(xp) - term.value(xm)) / (2 * h)
    assert np.allclose(g, fd, atol=1e-5)


def _bilinear_system():
    x = BlockId("x", "x", (1, 1), index=0)
    y = BlockId("y", "x", (1, 1), index=1)
    system = MultiaffineSystem()
    system.add_equation([MatChain([x, y]), Constant(np.array([[1.0]]), sign=-1)])
    return system, x, y


def test_scalar_bilinear_update_formula():
    system, x, y = _bilinear_system()
    for y_val, w_val, rho in [(0.5, 0.3, 2.0), (2.0, -1.0, 1.0),
                              (1.0, 0.0, 2.0), (-0.7, 1.4, 3.5)]:
        form = freeze(system, x, {y: np.array([[y_val]])})
        expected = (rho - w_val) * y_val / (2.0 + rho * y_val ** 2)
        for method in (None, "sylvester", "dense", "cg"):
            got = quad_block_solve(form, np.array([w_val]), rho,
                                   extras=[Quadratic(2.0)], method=method)
            assert got.shape == (1, 1)
            assert got[0, 0] == pytest.approx(expected, abs=1e-10)


def test_scalar_bilinear_dict_dual_matches_stacked():
    system, x, y = _bilinear_system()
    form = freeze(system, x, {y: np.array([[0.5]])})
    (eq_id,) = form.plan.rows
    a = quad_block_solve(form, np.array([0.3]), 2.0, extras=[Quadratic(2.0)])
    b = quad_block_solve(form, {eq_id: np.array([[0.3]])}, 2.0,
                         extras=[Quadratic(2.0)])
    assert np.array_equal(a, b)


def _two_block_system(rng):
    x = BlockId("x", "x", (2, 2), index=0)
    u = BlockId("u", "x", (2, 2), index=1)
    system = MultiaffineSystem()
    system.add_equation([
        LinearTerm(DenseOp(rng.standard_normal((4, 4)), (2, 2), (2, 2)), x),
        LinearTerm(DenseOp(rng.standard_normal((4, 4)), (2, 2), (2, 2)), u),
        Constant(rng.standard_normal((2, 2)), sign=-1),
    ])
    system.add_equation([
        LinearTerm(ScaledIdentity(1.3, (2, 2)), u),
        Constant(rng.standard_normal((2, 2)), sign=-1),
    ])
    return system, x, u


def test_group_solve_matches_pinv_oracle_8x8():
    rng = np.random.default_rng(5)
    system, x, u = _two_block_system(rng)
    form = freeze(system, (x, u), {})
    w = rng.standard_normal(form.out_dim)
    rho = 1.7
    extras = [("x", Quadratic(0.7)),
              ("u", Quadratic(0.4, center=rng.standard_normal((2, 2)),
                              linear_map=DenseOp(rng.standard_normal((4, 4)),
                                                 (2, 2), (2, 2))))]
    want = _pinv_oracle(form, w, rho, extras)
    for method in (None, "dense", "cg"):
        got = quad_block_solve(form, w, rho, extras=extras, method=method)
        assert np.linalg.norm(_stacked(form, got) - want) <= 1e-8 * (1 + np.linalg.norm(want))


def test_diag_path_matches_dense():
    rng = np.random.default_rng(6)
    x = BlockId("x", "x", (3, 2), index=0)
    system = MultiaffineSystem()
    system.add_equation([LinearTerm(ScaledIdentity(2.0, (3, 2)), x),
                         Constant(rng.standard_normal((3, 2)), sign=-1)])
    system.add_equation([LinearTerm(ScaledIdentity(-0.5, (3, 2)), x),
                         Constant(rng.standard_normal((3, 2)), sign=-1)])
    form = freeze(system, x, {})
    w = rng.standard_normal(form.out_dim)
    extras = [Quadratic(0.5, center=rng.standard_normal((3, 2)))]
    got_diag = quad_block_solve(form, w, 1.1, extras=extras, method="diag")
    got_dense = quad_block_solve(form, w, 1.1, extras=extras, method="dense")
    assert np.allclose(got_diag, got_dense, atol=1e-12)


@pytest.mark.parametrize("name", ["Z", "X_rem", "b"])
def test_scalar_curvature_diagonal_solve_matches_the_full_diagonal(name):
    # Every curvature part of these nmf3 blocks, and of sbd1's bias b (a
    # BroadcastOnes gram of one entry), is a scalar, so the solve divides
    # by one number; its bytes are those of dividing by N's diagonal.
    inst = zoo.default_instance("sbd1" if name == "b" else "nmf3", 0)
    problem = inst.problem
    state, _, _ = solve(problem, max_iter=3, init=inst.init)
    (plan,) = [plan for focus, plan in problem._units if focus[0].name == name]
    form = freeze(problem.system, plan.focus, state.assignment)
    assert plan.path == "diag"
    assert all(isinstance(d, float)
               for d in plan._block_diagonals(form, state.rho))
    want = (plan.rhs(form, state.multipliers, state.rho)
            / plan.normal_diag(form, state.rho))
    got = plan.solve(form, state.multipliers, state.rho)
    assert got.tobytes() == want.tobytes()


def test_diag_path_declines_an_equation_two_blocks_share():
    # x + u = c couples the entries of x and u although both pieces are
    # identities, so the group's normal operator is not diagonal.
    rng = np.random.default_rng(13)
    x = BlockId("x", "x", (2, 1), index=0)
    u = BlockId("u", "x", (2, 1), index=1)
    system = MultiaffineSystem()
    system.add_equation([MatChain([x]), MatChain([u]),
                         Constant(rng.standard_normal((2, 1)), sign=-1)])
    form = freeze(system, (x, u), {})
    w = rng.standard_normal(form.out_dim)
    extras = [("x", Quadratic(0.5)), ("u", Quadratic(1.5))]
    with pytest.raises(BuildError):
        quad_block_solve(form, w, 1.2, extras=extras, method="diag")
    want = _pinv_oracle(form, w, 1.2, extras)
    got = quad_block_solve(form, w, 1.2, extras=extras)
    assert np.linalg.norm(_stacked(form, got) - want) <= 1e-8 * (1 + np.linalg.norm(want))


def test_sylvester_two_sided_matches_dense_and_cg():
    rng = np.random.default_rng(7)
    x = BlockId("X", "x", (3, 4), index=0)
    p = rng.standard_normal((2, 3))
    s = rng.standard_normal((4, 2))
    system = MultiaffineSystem()
    system.add_equation([MatChain([p, x, s]),
                         Constant(rng.standard_normal((2, 2)), sign=-1)])
    system.add_equation([LinearTerm(ScaledIdentity(0.5, (3, 4)), x),
                         Constant(rng.standard_normal((3, 4)), sign=-1)])
    form = freeze(system, x, {})
    w = rng.standard_normal(form.out_dim)
    extras = [Quadratic(0.3)]
    want = quad_block_solve(form, w, 2.3, extras=extras, method="dense")
    got_syl = quad_block_solve(form, w, 2.3, extras=extras, method="sylvester")
    got_cg = quad_block_solve(form, w, 2.3, extras=extras, method="cg")
    scale = 1 + np.linalg.norm(np.ravel(want))
    assert np.linalg.norm(got_syl - want) <= 1e-9 * scale
    assert np.linalg.norm(got_cg - want) <= 1e-8 * scale
    assert quad_block_solve(form, w, 2.3, extras=extras).shape == (3, 4)


def test_one_sided_chain_matches_oracle():
    rng = np.random.default_rng(8)
    y = BlockId("Y", "x", (3, 2), index=0)
    left = rng.standard_normal((5, 3))
    system = MultiaffineSystem()
    system.add_equation([MatChain([left, y]),
                         Constant(rng.standard_normal((5, 2)), sign=-1)])
    form = freeze(system, y, {})
    w = rng.standard_normal(form.out_dim)
    extras = [Quadratic(0.9, center=rng.standard_normal((3, 2)))]
    # A quadratic through a map with a scalar gram keeps the pattern.
    turned = Quadratic(0.4, center=rng.standard_normal((2, 3)),
                       linear_map=TransposeOp((3, 2)))
    for extras in ([extras[0]], [extras[0], turned]):
        want = _pinv_oracle(form, w, 1.4, extras)
        got = quad_block_solve(form, w, 1.4, extras=extras, method="sylvester")
        assert np.linalg.norm(np.ravel(got) - want) <= 1e-8 * (1 + np.linalg.norm(want))


def test_hadamard_no_post_takes_diag_path():
    rng = np.random.default_rng(9)
    x = BlockId("x", "x", (4, 1), index=0)
    y = BlockId("y", "x", (4, 1), index=1)
    z = BlockId("z", "z1", (4, 1))
    system = MultiaffineSystem()
    system.add_equation([HadamardPair(x, y),
                         LinearTerm(ScaledIdentity(-1.0, (4, 1)), z)])
    y_val = rng.standard_normal((4, 1)) + 2.0
    z_val = rng.standard_normal((4, 1))
    form = freeze(system, x, {y: y_val, z: z_val})
    w = rng.standard_normal(form.out_dim)
    extras = [Quadratic(0.6)]
    got_diag = quad_block_solve(form, w, 1.9, extras=extras, method="diag")
    got_dense = quad_block_solve(form, w, 1.9, extras=extras, method="dense")
    assert np.allclose(got_diag, got_dense, atol=1e-12)


def test_hadamard_with_post_matches_oracle():
    rng = np.random.default_rng(10)
    x = BlockId("x", "x", (3, 1), index=0)
    y = BlockId("y", "x", (3, 1), index=1)
    p = rng.standard_normal((3, 3))
    system = MultiaffineSystem()
    system.add_equation([HadamardPair(x, y, post=DenseOp(p)),
                         Constant(rng.standard_normal((3, 1)), sign=-1)])
    form = freeze(system, x, {y: rng.standard_normal((3, 1))})
    w = rng.standard_normal(form.out_dim)
    extras = [Quadratic(0.8)]
    want = _pinv_oracle(form, w, 2.2, extras)
    got = quad_block_solve(form, w, 2.2, extras=extras)
    assert np.linalg.norm(np.ravel(got) - want) <= 1e-8 * (1 + np.linalg.norm(want))


def test_smooth_custom_affine_folds_into_rhs():
    x = BlockId("x", "x", (2, 1), index=0)
    b = np.array([[1.0], [2.0]])
    system = MultiaffineSystem()
    system.add_equation([MatChain([x]), Constant(b, sign=-1)])
    form = freeze(system, x, {})
    g = np.array([[0.3], [-0.4]])
    rho, w = 2.0, np.array([0.1, -0.2])
    lin = SmoothCustom(lambda v: float(np.sum(g * v)), lambda v: g, lipschitz=0.0)
    got = quad_block_solve(form, w, rho, extras=[Quadratic(2.0), lin])
    expected = (rho * b - w.reshape(2, 1) - g) / (2.0 + rho)
    assert np.allclose(got, expected, atol=1e-12)
    # A raw gradient array is not an objective term.
    with pytest.raises(BuildError, match="ndarray"):
        quad_block_solve(form, w, rho, extras=[Quadratic(2.0), g])


def test_quad_solve_rejects_bad_extras():
    system, x, y = _bilinear_system()
    form = freeze(system, x, {y: np.array([[1.0]])})
    with pytest.raises(BuildError):
        quad_block_solve(form, np.zeros(1), 1.0, extras=[L1(1.0)])
    with pytest.raises(BuildError):
        quad_block_solve(form, np.zeros(1), 1.0,
                         extras=[("nope", Quadratic(1.0))])
    curved = SmoothCustom(lambda v: float(np.sum(v ** 2)), lambda v: 2 * v,
                          lipschitz=2.0)
    with pytest.raises(BuildError):
        quad_block_solve(form, np.zeros(1), 1.0, extras=[curved])
    with pytest.raises(BuildError):
        quad_block_solve(form, np.zeros(1), 1.0, method="fancy")


@pytest.mark.parametrize("kind", ["quad_block_solve", "prox_block_step"])
def test_one_off_solvers_refuse_bad_duals_and_rho(kind):
    # As step refuses a state.  A dict without an equation the focus enters
    # raised a bare KeyError, a (4, 1) multiplier for a (2, 2) equation was
    # reshaped and used, a (3,) one raised numpy's reshape error, rho = inf
    # returned NaNs and rho of 0, -1 or NaN a SubproblemError.
    rng = np.random.default_rng(19)
    x = BlockId("x", "x", (2, 2), index=0)
    y = BlockId("y", "x", (2, 2), index=1)
    system = MultiaffineSystem()
    for block in (x, x, y):
        system.add_equation([MatChain([block]),
                             Constant(rng.standard_normal((2, 2)), sign=-1)])
    form = freeze(system, x, {y: np.zeros((2, 2))})

    def run(w, rho):
        if kind == "quad_block_solve":
            return quad_block_solve(form, w, rho, extras=[Quadratic(1.0)])
        return prox_block_step(form, w, rho, L1(0.5))

    good = {0: np.zeros((2, 2)), 1: np.ones((2, 2))}  # x does not enter 2
    assert np.all(np.isfinite(run(good, 1.0)))
    stacked = np.r_[np.zeros(4), np.ones(4), 7.0 * np.ones(4)]
    assert np.array_equal(run(good, 1.0), run(stacked, 1.0))
    for bad, eq_id, msg in (
            ({0: good[0]}, 1, "no multiplier for equation 1"),
            ({**good, 1: np.ones((4, 1))}, 1,
             "multiplier for equation 1 has shape (4, 1), expected (2, 2)"),
            ({**good, 0: np.ones(3)}, 0,
             "multiplier for equation 0 has shape (3,), expected (2, 2)")):
        with pytest.raises(ShapeMismatchError) as err:
            run(bad, 1.0)
        assert (err.value.eq_id, str(err.value)) == (eq_id, msg)
    for rho in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            run(good, rho)


def test_cg_failure_carries_residual_and_block():
    rng = np.random.default_rng(11)
    x = BlockId("x", "x", (4, 3), index=0)
    system = MultiaffineSystem()
    system.add_equation([
        LinearTerm(DenseOp(rng.standard_normal((12, 12)), (4, 3), (4, 3)), x),
        Constant(rng.standard_normal((4, 3)), sign=-1),
    ])
    form = freeze(system, x, {})
    w = rng.standard_normal(form.out_dim)
    with pytest.raises(SubproblemError) as exc:
        quad_block_solve(form, w, 1.0, extras=[Quadratic(0.1)],
                         method="cg", cg_maxit=1)
    assert exc.value.residual > 0
    assert exc.value.block == "x"
    got = quad_block_solve(form, w, 1.0, extras=[Quadratic(0.1)], method="cg")
    want = quad_block_solve(form, w, 1.0, extras=[Quadratic(0.1)], method="dense")
    assert np.allclose(got, want, atol=1e-7)


def test_cg_warm_start_converges_immediately():
    rng = np.random.default_rng(12)
    x = BlockId("x", "x", (3, 3), index=0)
    system = MultiaffineSystem()
    system.add_equation([
        LinearTerm(DenseOp(np.eye(9) + 0.1 * rng.standard_normal((9, 9)),
                           (3, 3), (3, 3)), x),
        Constant(rng.standard_normal((3, 3)), sign=-1),
    ])
    form = freeze(system, x, {})
    w = rng.standard_normal(form.out_dim)
    sol = quad_block_solve(form, w, 1.0, method="cg")
    again = quad_block_solve(form, w, 1.0, method="cg", y0=sol, cg_maxit=1)
    assert np.allclose(again, sol, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_every_accepting_path_matches_pinv_oracle(n, data):
    # Random systems of matrix chains, Hadamard pairs with and without a
    # dense post-map, linear terms and constants; every single block and the
    # whole block group when no term couples it, with a quadratic per block
    # through no map, a map with a scalar gram or a dense map.  Each method either
    # declines the form with BuildError (diag and sylvester only) or solves
    # the normal equations of the pinv oracle.
    system, rng = _random_system(data, n)
    blocks = sorted(system.blocks.values(), key=lambda b: b.name)
    point = {b: rng.standard_normal(b.shape) for b in blocks}
    group = tuple(blocks)
    coupled = any(sum(b in group for b in t.blocks()) > 1
                  for _, terms in system.equations for t in terms)
    rho = data.draw(st.floats(0.5, 3.0))
    for focus in blocks + ([group] if len(group) > 1 and not coupled else []):
        members = focus if isinstance(focus, tuple) else (focus,)
        form = freeze(system, focus, point)
        extras = []
        for b in members:
            # No map, a map with a scalar gram, or a dense map.
            post = data.draw(st.sampled_from([
                None, TransposeOp(b.shape), ScaledIdentity(-1.5, b.shape),
                DenseOp(rng.standard_normal((b.dim, b.dim)), b.shape, b.shape)]))
            quad = Quadratic(data.draw(st.floats(0.5, 2.0)),
                             center=rng.standard_normal(b.shape), linear_map=post)
            extras.append((b.name, quad) if isinstance(focus, tuple) else quad)
        w = rng.standard_normal(form.out_dim)
        normal, rhs = _oracle_normal(form, w, rho, extras)
        if np.linalg.cond(normal) > 1e7:
            continue
        want = np.linalg.pinv(normal) @ rhs
        accepted = []
        for method in ("diag", "sylvester", "dense", "cg"):
            try:
                got = quad_block_solve(form, w, rho, extras=extras, method=method,
                                       cg_tol=1e-9, cg_maxit=100 * form.in_dim)
            except BuildError:
                assert method in ("diag", "sylvester")
                continue
            accepted.append(method)
            gap = normal @ (_stacked(form, got) - want)
            assert np.linalg.norm(gap) <= 1e-7 * (1 + np.linalg.norm(rhs)), method
        assert accepted[-2:] == ["dense", "cg"]


def test_rp2_step_assembles_dense_blocks_without_probing(monkeypatch):
    # rp2's x and y blocks take the dense path.  Probing the normal operator
    # column by column took 12 normal_apply calls per step, one per column.
    from madmm import prox, solver, zoo

    inst = zoo.default_instance("rp2", 0)
    state, _, _ = solver.solve(inst.problem, max_iter=1)
    probes, dense = [], []
    real_apply = prox._SolvePlan.normal_apply
    real_dense = prox._SolvePlan.dense_normal

    def counting_apply(self, form, rho, y_vec):
        probes.append(y_vec)
        return real_apply(self, form, rho, y_vec)

    def counting_dense(self, form, rho):
        dense.append(form.focus)
        return real_dense(self, form, rho)

    monkeypatch.setattr(prox._SolvePlan, "normal_apply", counting_apply)
    monkeypatch.setattr(prox._SolvePlan, "dense_normal", counting_dense)
    solver.step(inst.problem, state)
    assert [b.name for (b,) in dense] == ["x", "y"]
    assert probes == []


def _prox_form(data, scalar):
    """A single-block form of x and its quadratic extras.

    With ``scalar`` every equation holds scaled identities of x, or one
    scaled identity or transpose of it, and every quadratic acts through
    such a map, so the normal operator is kappa * I.  Otherwise one piece
    of it is not: a dense map, a scaled identity beside a transpose in one
    equation, or a quadratic through ``DiagExtract``.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n = data.draw(st.integers(1 if scalar else 2, 3))
    m = data.draw(st.integers(1, 3)) if scalar else n
    x = BlockId("x", "x", (n, m), index=0)
    y = BlockId("y", "x", (n, m), index=1)
    alpha = st.sampled_from([1.0, -1.0, 0.5, 2.0])
    sign = st.sampled_from([1, -1])

    def scalar_piece():
        kind = data.draw(st.sampled_from(["chain", "scaled", "transpose"]))
        if kind == "chain":
            return MatChain([x], sign=data.draw(sign))
        if kind == "scaled":
            return LinearTerm(ScaledIdentity(data.draw(alpha), x.shape), x,
                              sign=data.draw(sign))
        return LinearTerm(TransposeOp(x.shape), x, sign=data.draw(sign))

    def scalar_map():
        kind = data.draw(st.sampled_from(["none", "scaled", "transpose"]))
        if kind == "none":
            return None
        if kind == "scaled":
            return ScaledIdentity(data.draw(alpha), x.shape)
        return TransposeOp(x.shape)

    system = MultiaffineSystem()
    for _ in range(data.draw(st.integers(1, 3))):
        if data.draw(st.booleans()):
            terms = [MatChain([x], sign=data.draw(sign)),
                     LinearTerm(ScaledIdentity(data.draw(alpha), x.shape), x,
                                sign=data.draw(sign))][:data.draw(st.integers(1, 2))]
        else:
            terms = [scalar_piece()]
        shape = terms[0].op.out_shape if isinstance(terms[0], LinearTerm) else x.shape
        if shape == y.shape and data.draw(st.booleans()):
            terms.append(MatChain([y], sign=data.draw(sign)))
        terms.append(Constant(rng.standard_normal(shape), sign=data.draw(sign)))
        system.add_equation(terms)
    extras = []
    for _ in range(data.draw(st.integers(0, 2))):
        lmap = scalar_map()
        out = x.shape if lmap is None else lmap.out_shape
        center = rng.standard_normal(out) if data.draw(st.booleans()) else None
        extras.append(Quadratic(data.draw(st.floats(0.1, 2.0)), center=center,
                                linear_map=lmap))
    if not scalar:
        kind = data.draw(st.sampled_from(["dense", "mixed", "quadratic"]))
        if kind == "dense":
            op = DenseOp(rng.standard_normal((x.dim, x.dim)), x.shape, x.shape)
            system.add_equation([LinearTerm(op, x), Constant(rng.standard_normal(x.shape))])
        elif kind == "mixed":
            system.add_equation([LinearTerm(ScaledIdentity(data.draw(alpha), x.shape), x),
                                 LinearTerm(TransposeOp(x.shape), x),
                                 Constant(rng.standard_normal(x.shape))])
        else:
            extras.append(Quadratic(1.0, linear_map=DiagExtract(n)))
    point = {y: rng.standard_normal(y.shape)}
    return freeze(system, x, point), extras, rng


@settings(max_examples=80, deadline=None)
@given(st.booleans(), st.data())
def test_prox_step_matches_scalar_oracle(scalar, data):
    # The prox step reads kappa from the assembled subproblem: where the
    # oracle's normal matrix is kappa * I it equals the term's prox at
    # rhs / kappa with step 1 / kappa, and otherwise it declines.
    form, extras, rng = _prox_form(data, scalar)
    x = form.focus[0]
    rho = data.draw(st.floats(0.5, 3.0))
    w = rng.standard_normal(form.out_dim)
    normal, rhs = _oracle_normal(form, w, rho, extras)
    kappa = normal[0, 0]
    is_scalar = np.allclose(normal, kappa * np.eye(x.dim), rtol=0,
                            atol=1e-12 * max(1.0, abs(kappa)))
    assert is_scalar == scalar
    for term in (L1(data.draw(st.floats(0.0, 2.0))), IndicatorNonneg(),
                 IndicatorBox(-0.5, 0.75)):
        if not (is_scalar and kappa > 0):
            # Not scalar, or identities that cancel: no curvature.
            with pytest.raises(BuildError):
                prox_block_step(form, form.split_dual(w), rho, term, extras)
            continue
        want = term.prox((rhs / kappa).reshape(x.shape), 1.0 / kappa)
        got = prox_block_step(form, form.split_dual(w), rho, term, extras)
        assert got.shape == x.shape
        assert np.linalg.norm(got - want) <= 1e-10 * (1 + np.linalg.norm(want))


def test_prox_step_refuses_a_form_of_two_blocks():
    # Each block alone in its own equation: N is a scalar per block, but a
    # prox step is over one block, so the form is refused by name.
    rng = np.random.default_rng(17)
    u = BlockId("u", "z1", (2, 2))
    v = BlockId("v", "z1", (2, 2))
    system = MultiaffineSystem()
    for b in (u, v):
        system.add_equation([LinearTerm(ScaledIdentity(1.0, (2, 2)), b),
                             Constant(rng.standard_normal((2, 2)), sign=-1)])
    form = freeze(system, (u, v), {})
    w = form.split_dual(rng.standard_normal(form.out_dim))
    with pytest.raises(BuildError, match="'u'"):
        prox_block_step(form, w, 1.0, L1(1.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_problem_builds_iff_the_prox_step_runs(n, data):
    # Build time and run time read one rule: a block given an L1 term, and
    # maybe a quadratic, builds exactly when prox_block_step solves its
    # subproblem at a Gaussian point, and both refuse with BuildError.
    system, rng = _random_system(data, n)
    for block in sorted(system.blocks.values(), key=lambda b: b.name):
        terms = [L1(1.0)] + data.draw(st.sampled_from([
            [], [Quadratic(2.0)], [Quadratic(1.0, linear_map=DiagExtract(n))],
            [Quadratic(1.0, linear_map=ScaledIdentity(-3.0, block.shape))]]))
        try:
            Problem(system, {block: terms})
            builds = True
        except BuildError:
            builds = False
        point = {b: rng.standard_normal(b.shape) for b in system.blocks.values()}
        form = freeze(system, block, point)
        w = form.split_dual(rng.standard_normal(form.out_dim))
        try:
            prox_block_step(form, w, 1.0, terms[0], terms[1:])
            steps = True
        except BuildError:
            steps = False
        assert builds == steps


def test_one_by_one_hadamard_block_takes_a_prox_step():
    # x * y with scalar blocks: x's gram is y^2, a scalar, so a box on x has
    # an exact proximal step and the problem builds and runs.  The box keeps
    # x, and so y's curvature, away from zero.
    x = BlockId("x", "x", (1, 1), index=0)
    y = BlockId("y", "x", (1, 1), index=1)
    z = BlockId("z", "z1", (1, 1))
    system = MultiaffineSystem()
    system.add_equation([HadamardPair(x, y),
                         LinearTerm(ScaledIdentity(1.0, (1, 1)), z, sign=-1),
                         Constant([[0.5]], sign=-1)])
    problem = Problem(system, {x: [IndicatorBox(0.5, 2.0)], y: [Quadratic(1.0)],
                               z: [Quadratic(1.0)]})
    state, traces, _ = solve(problem, rho=2.0, max_iter=20)
    assert all(np.isfinite(tr.L) for tr in traces)
    assert state.assignment[x].shape == (1, 1)
