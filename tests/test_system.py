"""Constraint-system tests: evaluation, freezing, adjoints, image sampling.

The frozen-map tests compare against a central finite-difference Jacobian
built directly from `evaluate`, which never goes through the freeze code
path; the convolution tests compare against a literal double-loop sum.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from madmm import (BlockId, BuildError, Constant, Conv2D, DenseOp, DiagExtract,
                   HadamardPair, LinearTerm, MatChain, MultiaffineSystem,
                   ScaledIdentity, ShapeMismatchError, TransposeOp, circ_conv2,
                   evaluate, freeze, jacobian_image_basis, stack_residual)
from madmm import prox, solver, zoo
from madmm.operators import LinearOp
from madmm.prox import Quadratic
from madmm.system import (_BLOCK_IDS, _ConvKernelPiece, _ConvSignalPiece,
                          _block_adjoints, _checked_values, _constant_part,
                          _term_index, step_memo)


def _fd_jacobian(system, assignment, block, h=1e-6):
    """Central-difference Jacobian of the stacked residual wrt one block."""
    base = dict(assignment)
    cols = []
    flat = np.ravel(base[block]).copy()
    for j in range(block.dim):
        bump = flat.copy()
        bump[j] += h
        base[block] = bump.reshape(block.shape)
        plus = stack_residual(evaluate(system, base))
        bump[j] -= 2 * h
        base[block] = bump.reshape(block.shape)
        minus = stack_residual(evaluate(system, base))
        cols.append((plus - minus) / (2 * h))
    base[block] = flat.reshape(block.shape)
    return np.column_stack(cols)


def _frozen_jacobian(form):
    cols = []
    basis = np.zeros(form.in_dim)
    for j in range(form.in_dim):
        basis[j] = 1.0
        cols.append(form.apply(basis))
        basis[j] = 0.0
    return np.column_stack(cols)


def _conv_direct(kernel, signal):
    """O(n^4) circular convolution with the kernel zero-padded to the signal."""
    n0, n1 = signal.shape
    padded = np.zeros_like(signal)
    padded[: kernel.shape[0], : kernel.shape[1]] = kernel
    out = np.zeros_like(signal)
    for i in range(n0):
        for j in range(n1):
            acc = 0.0
            for a in range(n0):
                for b in range(n1):
                    acc += padded[a, b] * signal[(i - a) % n0, (j - b) % n1]
            out[i, j] = acc
    return out


def _parity_system(n=2):
    """P(x o y) = z with P = [[0, 0], [1, -1]] for n = 2."""
    x = BlockId("x", "x", (n, 1), index=0)
    y = BlockId("y", "x", (n, 1), index=1)
    z = BlockId("z", "z1", (n, 1))
    p = np.zeros((n, n))
    p[1:, 0] = 1.0
    p[1:, 1:] = -np.eye(n - 1)
    system = MultiaffineSystem()
    system.add_equation([
        HadamardPair(x, y, post=DenseOp(p)),
        LinearTerm(ScaledIdentity(-1.0, (n, 1)), z),
    ])
    return system, x, y, z


def _rank_one_system(n=3):
    """Z - x y = 0 and x - y^T - s = 0 with y stored as a row vector."""
    x = BlockId("x", "x", (n, 1), index=0)
    y = BlockId("y", "x", (1, n), index=1)
    z = BlockId("Z", "z1", (n, n))
    s = BlockId("s", "z2", (n, 1))
    system = MultiaffineSystem()
    system.add_equation([
        LinearTerm(ScaledIdentity(1.0, (n, n)), z),
        MatChain([x, y], sign=-1),
    ])
    system.add_equation([
        MatChain([x]),
        LinearTerm(TransposeOp((1, n)), y, sign=-1),
        LinearTerm(ScaledIdentity(-1.0, (n, 1)), s),
    ])
    return system, x, y, z, s


def _conv_system(ks=(2, 2), ss=(4, 4)):
    a = BlockId("A", "x", ks, index=0)
    xs = BlockId("X", "x", ss, index=1)
    z = BlockId("Zs", "z1", ss)
    system = MultiaffineSystem()
    system.add_equation([
        Conv2D(a, xs),
        LinearTerm(ScaledIdentity(-1.0, ss), z),
    ])
    return system, a, xs, z


def _gaussian_assignment(system, seed):
    rng = np.random.default_rng(seed)
    return {b: rng.standard_normal(b.shape) for b in system.blocks.values()}


def test_evaluate_hand_example_parity():
    system, x, y, z = _parity_system()
    point = {x: np.array([[1.0], [2.0]]),
             y: np.array([[3.0], [4.0]]),
             z: np.zeros((2, 1))}
    (res,) = evaluate(system, point)
    np.testing.assert_allclose(res, np.array([[0.0], [3.0 * 1.0 - 8.0]]))


def test_evaluate_rank_one_residuals():
    system, x, y, z, s = _rank_one_system(2)
    point = {x: np.array([[1.0], [2.0]]),
             y: np.array([[3.0, 4.0]]),
             z: np.array([[3.0, 4.0], [6.0, 8.0]]),
             s: np.zeros((2, 1))}
    res = evaluate(system, point)
    np.testing.assert_allclose(res[0], np.zeros((2, 2)), atol=1e-14)
    np.testing.assert_allclose(res[1], np.array([[1.0 - 3.0], [2.0 - 4.0]]))


def test_evaluate_affine_in_each_block():
    system, x, y, z, s = _rank_one_system(3)
    rng = np.random.default_rng(5)
    for trial in range(20):
        point = _gaussian_assignment(system, 100 + trial)
        for block in (x, y, z, s):
            v1 = rng.standard_normal(block.shape)
            v2 = rng.standard_normal(block.shape)
            alpha = rng.uniform(-2, 2)
            pa = dict(point); pa[block] = v1
            pb = dict(point); pb[block] = v2
            pc = dict(point); pc[block] = alpha * v1 + (1 - alpha) * v2
            ra = stack_residual(evaluate(system, pa))
            rb = stack_residual(evaluate(system, pb))
            rc = stack_residual(evaluate(system, pc))
            np.testing.assert_allclose(rc, alpha * ra + (1 - alpha) * rb,
                                       rtol=1e-10, atol=1e-10)


def test_circ_conv2_matches_direct_sum():
    rng = np.random.default_rng(0)
    kernel = rng.standard_normal((2, 2))
    signal = rng.standard_normal((4, 4))
    np.testing.assert_allclose(circ_conv2(kernel, signal),
                               _conv_direct(kernel, signal), atol=1e-10)


def test_freeze_matches_finite_differences_rank_one():
    system, x, y, z, s = _rank_one_system(3)
    point = _gaussian_assignment(system, 1)
    for block in (x, y, z, s):
        form = freeze(system, block, point)
        jac = _frozen_jacobian(form)
        fd = _fd_jacobian(system, point, block)
        assert np.linalg.norm(jac - fd) <= 1e-6 * (1 + np.linalg.norm(jac))


def test_freeze_matches_finite_differences_conv():
    system, a, xs, z = _conv_system()
    point = _gaussian_assignment(system, 2)
    for block in (a, xs):
        form = freeze(system, block, point)
        jac = _frozen_jacobian(form)
        fd = _fd_jacobian(system, point, block)
        assert np.linalg.norm(jac - fd) <= 1e-6 * (1 + np.linalg.norm(jac))


@pytest.mark.parametrize("builder", [_parity_system, _rank_one_system, _conv_system])
def test_freeze_consistency_with_evaluate(builder):
    out = builder()
    system = out[0]
    point = _gaussian_assignment(system, 3)
    for block in system.blocks.values():
        form = freeze(system, block, point)
        rng = np.random.default_rng(hash(block.name) % 2 ** 16)
        for _ in range(20):
            yval = rng.standard_normal(block.shape)
            trial = dict(point)
            trial[block] = yval
            stacked = stack_residual(evaluate(system, trial))
            linear = form.apply(yval) - form.offset
            scale = 1 + np.linalg.norm(form.offset)
            assert np.linalg.norm(stacked - linear) <= 1e-10 * scale


def test_freeze_group_consistency():
    system, x, y, z, s = _rank_one_system(3)
    point = _gaussian_assignment(system, 4)
    form = freeze(system, [z, s], point)
    rng = np.random.default_rng(11)
    for _ in range(10):
        vals = {"Z": rng.standard_normal(z.shape), "s": rng.standard_normal(s.shape)}
        trial = dict(point)
        trial[z] = vals["Z"]
        trial[s] = vals["s"]
        stacked = stack_residual(evaluate(system, trial))
        # The focus vector: the blocks flattened row-major, in focus order.
        y = np.concatenate([np.ravel(vals["Z"]), np.ravel(vals["s"])])
        linear = form.apply(y) - form.offset
        assert np.linalg.norm(stacked - linear) <= 1e-10 * (1 + np.linalg.norm(form.offset))


def test_group_form_refuses_values_it_cannot_read():
    # Every vector has its layout's length, or is refused naming the focus:
    # a wrong shape used to broadcast (a 520-vector from a (1, 20) Z), and a
    # block-shaped array for a group is now one of the wrong length.
    from madmm.prox import quad_block_solve

    inst = zoo.default_instance("nmf3", 0)
    system = inst.problem.system
    Z, Xr = system.blocks["Z"], system.blocks["X_rem"]
    form = freeze(system, (Z, Xr), _gaussian_assignment(system, 0))
    assert form.apply(np.ones(form.in_dim)).shape == (form.out_dim,)
    assert form.adjoint(np.ones(form.out_dim)).shape == (form.in_dim,)
    for call, n, what in ((form.apply, form.in_dim, "focus vector"),
                          (form.adjoint, form.out_dim, "dual vector"),
                          (form.split_dual, form.out_dim, "dual vector")):
        for bad in (np.ones(n - 1), np.ones((1, n + 1)), np.ones(Z.shape)):
            with pytest.raises(ShapeMismatchError) as err:
                call(bad)
            assert str(err.value) == (f"{what} for focus ['Z', 'X_rem'] has "
                                      f"length {bad.size}, expected {n}")
    w = np.zeros(form.out_dim)
    with pytest.raises(ShapeMismatchError, match=r"start vector for focus \['Z'"):
        quad_block_solve(form, w, 1.0, method="cg", y0=np.ones(Z.shape))
    with pytest.raises(ShapeMismatchError, match=r"dual vector for focus \['Z'"):
        quad_block_solve(form, w[1:], 1.0)


@pytest.mark.parametrize("builder", [_rank_one_system, _conv_system])
def test_adjoint_identity(builder):
    out = builder()
    system = out[0]
    point = _gaussian_assignment(system, 6)
    rng = np.random.default_rng(7)
    for block in system.blocks.values():
        form = freeze(system, block, point)
        for _ in range(20):
            yv = rng.standard_normal(form.in_dim)
            wv = rng.standard_normal(form.out_dim)
            lhs = float(form.apply(yv) @ wv)
            rhs = float(yv @ form.adjoint(wv))
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


def test_conv_adjoint_both_arguments():
    system, a, xs, z = _conv_system((3, 2), (5, 4))
    point = _gaussian_assignment(system, 8)
    rng = np.random.default_rng(9)
    for block in (a, xs):
        form = freeze(system, block, point)
        yv = rng.standard_normal(form.in_dim)
        wv = rng.standard_normal(form.out_dim)
        lhs = float(form.apply(yv) @ wv)
        rhs = float(yv @ form.adjoint(wv))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 4),
       st.integers(0, 4), st.integers(0, 2 ** 32 - 1))
def test_conv_pieces_adjoint_and_memo_agree(k0, k1, extra0, extra1, seed):
    """<apply(y), w> = <y, adjoint(w)> for both frozen convolution pieces,
    and a memo scope changes no value, however often it is hit."""
    ss = (k0 + extra0, k1 + extra1)
    system, a, xs, _ = _conv_system((k0, k1), ss)
    point = _gaussian_assignment(system, seed)
    rng = np.random.default_rng(seed)
    mults = {0: rng.standard_normal(ss)}
    for block, kind in ((a, _ConvKernelPiece), (xs, _ConvSignalPiece)):
        y = rng.standard_normal(block.shape)
        form = freeze(system, block, point)
        assert [type(p) for p in form.pieces] == [kind]
        # One equation: the stacked vectors are its arrays flattened.
        applied = form.apply(y)
        back = form.adjoint(mults[0])
        lhs = float(applied @ np.ravel(mults[0]))
        rhs = float(np.ravel(y) @ back)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
        offset = form.offset_for(0)
        with step_memo(point, mults):
            for _ in range(2):
                inside = freeze(system, block, point)
                assert np.array_equal(inside.apply(y), applied)
                assert np.array_equal(inside.adjoint(mults[0]), back)
                assert np.array_equal(inside.offset_for(0), offset)


def test_circ_conv2_sees_in_place_changes_outside_a_step():
    rng = np.random.default_rng(12)
    kernel = rng.standard_normal((2, 3))
    signal = rng.standard_normal((5, 4))
    circ_conv2(kernel, signal)
    kernel[1, 2] += 1.0
    signal *= -2.0
    np.testing.assert_allclose(circ_conv2(kernel, signal),
                               _conv_direct(kernel, signal), atol=1e-10)


def test_spectrum_memo_keeps_a_spectrum_per_array():
    rng = np.random.default_rng(13)
    held = {name: rng.standard_normal(shape) for name, shape in
            (("k1", (2, 2)), ("k2", (2, 2)), ("s1", (4, 4)), ("s2", (4, 4)))}
    with step_memo(held):
        for _ in range(2):
            for k in ("k1", "k2"):
                for s in ("s1", "s2"):
                    np.testing.assert_allclose(
                        circ_conv2(held[k], held[s]),
                        _conv_direct(held[k], held[s]), atol=1e-10)


def test_memoised_convolution_is_read_only():
    rng = np.random.default_rng(14)
    held = {"k": rng.standard_normal((2, 3)), "s": rng.standard_normal((5, 4))}
    with step_memo(held):
        first = circ_conv2(held["k"], held["s"])
        assert circ_conv2(held["k"], held["s"]) is first
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
    np.testing.assert_allclose(first, _conv_direct(held["k"], held["s"]),
                               atol=1e-10)


def test_every_memoised_product_is_read_only():
    from madmm.system import _spectrum

    system, a, xs, _ = _conv_system((2, 3), (5, 4))
    point = _gaussian_assignment(system, 19)
    rng = np.random.default_rng(19)
    mults = {0: rng.standard_normal((5, 4))}
    with step_memo(point, mults):
        spec = _spectrum(point[a], (5, 4))
        assert _spectrum(point[a], (5, 4)) is spec
        conv = circ_conv2(point[a], point[xs])
        form = freeze(system, xs, point)
        target, hat = form.conv_target(form.pieces[0], mults, 2.0)
        for product in (spec, conv, target, hat):
            assert not product.flags.writeable
        # A spectrum the memo does not keep belongs to its caller.
        assert _spectrum(rng.standard_normal((5, 4)), (5, 4)).flags.writeable


def test_unkept_targets_and_terms_are_built_into_the_callers_arrays(monkeypatch):
    # A target or a product term that the memo does not keep, as no memo is
    # open or it holds no value read, is built into the arrays its caller
    # passes, as any other is, not into a new array.
    from contextlib import nullcontext

    x = BlockId("X", "x", (6, 4), index=0)
    y = BlockId("Y", "x", (4, 5), index=1)
    z = BlockId("Z", "z1", (6, 5))
    system = MultiaffineSystem()
    system.add_equation([MatChain([x, y]), LinearTerm(ScaledIdentity(-1.0, (6, 5)), z)])
    chain = system.equations[0][1][0]
    point = _gaussian_assignment(system, 21)
    mults = {0: np.random.default_rng(21).standard_normal((6, 5))}
    form = freeze(system, z, point)
    want = form.offset_for(0) * 2.0 - mults[0]
    outs, real = [], MatChain.unsigned

    def unsigned(self, values, out=None):
        outs.append(out)
        return real(self, values, out)

    monkeypatch.setattr(MatChain, "unsigned", unsigned)
    pair = (np.empty((6, 5)), np.empty((6, 5)))
    for memo in (None, step_memo({}, terms={id(chain): ((6, 5), 2)})):
        with memo or nullcontext():
            outs.clear()
            got = form.target(0, mults, 2.0, 2, out=pair)
            assert got is pair[0] and got.tobytes() == want.tobytes()
            assert len(outs) == 1 and outs[0] is pair[0]
            outs.clear()
            assert evaluate(system, point, out=[pair])[0] is pair[0]
            assert len(outs) == 1 and outs[0] is pair[0]


def test_spectrum_memo_drops_arrays_no_longer_held():
    # A value rebound through the memo is no longer held: what was read
    # from it is never handed out again, and is dropped when the next
    # product is kept.
    rng = np.random.default_rng(16)
    held = {"k": rng.standard_normal((2, 2)), "s": rng.standard_normal((5, 4))}
    with step_memo(held) as memo:
        old = held["s"]
        circ_conv2(held["k"], old)
        memo.rebind(held, "s", rng.standard_normal((5, 4)))
        new = circ_conv2(held["k"], held["s"])
        kept = [a for key, (arrays, *_) in memo.table.items()
                if key[0] in ("spectrum", "conv") for a in arrays]
        assert any(a is held["s"] for a in kept)
        assert not any(a is old for a in kept)
        again = circ_conv2(held["k"], old)
        assert again.flags.writeable and again.tobytes() != new.tobytes()


def test_conv_target_outside_a_step_is_built_afresh():
    system, a, xs, _ = _conv_system((2, 3), (5, 4))
    point = _gaussian_assignment(system, 17)
    rng = np.random.default_rng(17)
    w = rng.standard_normal((5, 4))
    for focus in (a, xs):
        form = freeze(system, focus, point)
        (piece,) = form.pieces
        for mults in ({0: w}, {0: rng.standard_normal((5, 4))}, {0: w}):
            target, hat = form.conv_target(piece, mults, 1.7)
            want = piece.sign * (form.offset_for(0) - mults[0] / 1.7)
            assert target.tobytes() == want.tobytes()
            assert hat.tobytes() == np.fft.rfft2(want).tobytes()
        w *= -3.0  # an in-place change is seen too


def test_conv_target_is_shared_in_a_step_and_dropped_once_stale():
    system, a, xs, z = _conv_system((2, 3), (5, 4))
    point = _gaussian_assignment(system, 18)
    rng = np.random.default_rng(18)
    mults = {0: rng.standard_normal((5, 4))}
    with step_memo(point, mults) as memo:
        kernel_form, signal_form = (freeze(system, b, point) for b in (a, xs))
        first = kernel_form.conv_target(kernel_form.pieces[0], mults, 2.0)
        assert signal_form.conv_target(signal_form.pieces[0], mults, 2.0) is first
        assert not any(arr.flags.writeable for arr in first)
        other_rho = signal_form.conv_target(signal_form.pieces[0], mults, 3.0)
        assert other_rho[0].tobytes() != first[0].tobytes()

        def targets():
            return [entry for key, entry in memo.table.items() if key[0] == "target"]

        assert len(targets()) == 2
        old_z = point[z]
        memo.rebind(point, z, rng.standard_normal(z.shape))
        form = freeze(system, xs, point)
        target, hat = form.conv_target(form.pieces[0], mults, 2.0)
        want = form.pieces[0].sign * (form.offset_for(0) - mults[0] / 2.0)
        assert target.tobytes() == want.tobytes()
        assert hat.tobytes() == np.fft.rfft2(want).tobytes()
        # Both entries built from the old Z are gone, dropped when the new
        # one was kept; only the new one stays.
        assert len(targets()) == 1
        assert not any(arr is old_z for arrays, *_ in targets() for arr in arrays)
        # A multiplier array the sources no longer hold is never kept.
        loose = {0: rng.standard_normal((5, 4))}
        form.conv_target(form.pieces[0], loose, 2.0)
        assert len(targets()) == 1


def test_circ_conv2_keeps_nothing_outside_a_step_nor_a_cg_iterate():
    from madmm.prox import quad_block_solve

    rng = np.random.default_rng(15)
    kernel = rng.standard_normal((2, 2))
    signal = rng.standard_normal((5, 4))
    first, again = circ_conv2(kernel, signal), circ_conv2(kernel, signal)
    assert first is not again and first.flags.writeable and again.flags.writeable

    system, a, xs, _ = _conv_system((2, 2), (5, 4))
    point = _gaussian_assignment(system, 15)
    mults = {0: rng.standard_normal((5, 4))}
    with step_memo(point, mults) as memo:
        # Conjugate gradients for the signal convolves the kernel with
        # every iterate.
        quad_block_solve(freeze(system, xs, point), mults, 1.0, method="cg")
        free = circ_conv2(point[a], rng.standard_normal((5, 4)))
        assert free.flags.writeable
        held = list(point.values()) + list(mults.values())
        kinds = [key[0] for key in memo.table]
        assert "spectrum" in kinds and "conv" not in kinds
        assert all(any(arr is h for h in held)
                   for arrays, *_ in memo.table.values() for arr in arrays)


def test_sbd1_step_transform_count_and_one_convolution(monkeypatch):
    # One 64^2 sbd1 step takes 16 forward and 17 inverse transforms.  Before
    # A (*) X was memoised, the offsets of b and Z and evaluate each
    # convolved anew: 19 inverses.  Before the signal update's zero-start
    # pass skipped its transform and the kernel and signal updates shared
    # the spectrum of their common target: 18 forward.
    import madmm.system as system_mod

    Y, *_ = zoo.gen_sbd_data(64, (16, 16), theta=0.05, bias=0.1, seed=0)
    inst = zoo.sbd1(Y, (16, 16))
    state, _, _ = solver.solve(inst.problem, rho=1.0, max_iter=1,
                               init=inst.init)
    counts = dict.fromkeys(("rfft2", "irfft2", "ifft", "irfft", "fft", "rfft",
                            "fft2", "ifft2", "fftn", "ifftn", "rfftn",
                            "irfftn"), 0)
    for fn in counts:
        real = getattr(np.fft, fn)

        def counting(*args, _real=real, _fn=fn, **kwargs):
            counts[_fn] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, fn, counting)
    convs = []
    real_conv = system_mod.circ_conv2

    def recording(kernel, signal):
        out = real_conv(kernel, signal)
        convs.append((kernel, signal, out))
        return out

    monkeypatch.setattr(system_mod, "circ_conv2", recording)
    new_state, _ = solver.step(inst.problem, state)
    # Every inverse is staged: ifft over the rows, then irfft over the
    # columns.  It counts once.
    assert counts.pop("ifft") == counts["irfft"]
    forward, inverse = counts.pop("rfft2"), counts.pop("irfft")
    assert (forward, inverse) == (16, 17)
    assert not any(counts.values())
    named = {b.name: v for b, v in new_state.assignment.items()}
    ax = [out for k, sig, out in convs if k is named["A"] and sig is named["X"]]
    # The offsets of b and Z and evaluate share one A (*) X.
    assert len(ax) == 3
    assert all(out is ax[0] for out in ax) and not ax[0].flags.writeable


@pytest.mark.parametrize("name,limit", [("sbd1", 33), ("sbd0", 33)])
def test_sbd_step_reuses_spectra(monkeypatch, name, limit):
    # Without reuse one step takes 46 (sbd1) and 43 (sbd0) transforms; with
    # spectra and A (*) X reused but not the updaters' shared target, and a
    # transform in the signal update's zero-start pass, 35 each.
    from madmm import solver, zoo

    inst = zoo.default_instance(name, 0)
    state, _, _ = solver.solve(inst.problem, rho=1.0, max_iter=1,
                               init=inst.init)
    calls = []
    # A staged inverse (ifft over the rows, irfft over the columns) counts
    # once, by its irfft.
    for fn in ("fft2", "ifft2", "rfft2", "irfft2",
               "fftn", "ifftn", "rfftn", "irfftn", "irfft"):
        real = getattr(np.fft, fn)

        def counting(*args, _real=real, **kwargs):
            calls.append(_real)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, fn, counting)
    solver.step(inst.problem, state)
    assert 0 < len(calls) <= limit


def test_offset_sign_convention():
    # Single equation 3*y - 1 = 0 frozen at y: apply(y) = 3y, offset = +1.
    xb = BlockId("xb", "x", (1, 1), index=0)
    yb = BlockId("yb", "x", (1, 1), index=1)
    system = MultiaffineSystem()
    system.add_equation([MatChain([xb, yb]), Constant(np.array([[-1.0]]))])
    form = freeze(system, yb, {xb: np.array([[3.0]]), yb: np.array([[0.0]])})
    np.testing.assert_allclose(form.apply(np.array([[1.0]])), np.array([3.0]))
    np.testing.assert_allclose(form.offset, np.array([1.0]))


def test_shape_error_names_block_and_equation():
    x = BlockId("x", "x", (2, 1))
    z = BlockId("z", "z1", (3, 1))
    system = MultiaffineSystem()
    with pytest.raises(ShapeMismatchError) as err:
        system.add_equation([MatChain([x]), LinearTerm(ScaledIdentity(1.0, (3, 1)), z)])
    assert err.value.eq_id == 0
    assert err.value.block == "z"


def test_value_shape_error_names_block():
    system, x, y, z = _parity_system()
    point = {x: np.zeros((3, 1)), y: np.zeros((2, 1)), z: np.zeros((2, 1))}
    with pytest.raises(ShapeMismatchError) as err:
        evaluate(system, point)
    assert err.value.block == "x"


def test_duplicate_block_in_term_rejected():
    x = BlockId("x", "x", (2, 2))
    system = MultiaffineSystem()
    with pytest.raises(BuildError):
        system.add_equation([MatChain([x, x])])


def test_linear_role_in_product_rejected():
    x = BlockId("x", "x", (2, 2))
    z = BlockId("z", "z1", (2, 2))
    system = MultiaffineSystem()
    with pytest.raises(BuildError):
        system.add_equation([MatChain([x, z])])


def test_add_equation_refuses_what_is_not_a_term():
    x = BlockId("x", "x", (2, 2))
    system = MultiaffineSystem()
    for stranger in (np.ones((2, 2)), x, "x"):
        with pytest.raises(BuildError, match=f"{type(stranger).__name__} is "
                                             "not a constraint term"):
            system.add_equation([MatChain([x]), stranger])
    assert system.equations == []


def test_add_equation_refuses_a_sign_other_than_plus_or_minus_one():
    # A numpy 2 was read as +1 by evaluate but scaled the frozen map by 2;
    # "+" and None failed later, inside evaluate, with a bare TypeError.
    x = BlockId("X", "x", (2, 2))
    z = BlockId("Z", "z1", (2, 2))
    system = MultiaffineSystem()
    for sign in (np.int64(2), 2, 0.5, 0, "+", None, np.array([1, 1])):
        with pytest.raises(BuildError, match=r"equation 0: sign must be \+1 or -1"):
            system.add_equation([MatChain([x], sign=sign),
                                 LinearTerm(ScaledIdentity(1.0, (2, 2)), z, sign=-1)])
    assert system.equations == []
    # numpy scalars of +1 and -1 are signs like any other.
    system.add_equation([MatChain([x], sign=np.int64(1)),
                         LinearTerm(ScaledIdentity(1.0, (2, 2)), z,
                                    sign=np.float64(-1.0))])
    point = {x: np.eye(2), z: np.zeros((2, 2))}
    form = freeze(system, x, point)
    assert np.array_equal(evaluate(system, point)[0], np.eye(2))
    assert np.array_equal(form.apply(np.eye(2)) - form.offset, np.ravel(np.eye(2)))


def test_freeze_unknown_focus_rejected():
    system, x, y, z = _parity_system()
    stranger = BlockId("w", "x", (2, 1))
    with pytest.raises(BuildError):
        freeze(system, stranger, _gaussian_assignment(system, 0))


def test_freeze_coupled_focus_pair_rejected():
    # A focus that fails its checks keeps no plan, so it fails every time.
    system, x, y, z, s = _rank_one_system(2)
    for _ in range(3):
        with pytest.raises(BuildError, match="couples"):
            freeze(system, [x, y], _gaussian_assignment(system, 0))


def test_jacobian_image_basis_pure_linear_is_zero():
    z = BlockId("z", "z1", (3, 1))
    system = MultiaffineSystem()
    system.add_equation([LinearTerm(ScaledIdentity(1.0, (3, 1)), z)])
    basis = jacobian_image_basis(system, {z: np.ones((3, 1))}, samples=5, seed=0)
    assert basis.shape == (3, 6)
    np.testing.assert_allclose(basis, 0.0, atol=1e-15)


def test_jacobian_image_basis_refuses_negative_samples():
    # It used to return the one column at the given assignment.
    z = BlockId("z", "z1", (3, 1))
    system = MultiaffineSystem()
    system.add_equation([LinearTerm(ScaledIdentity(1.0, (3, 1)), z)])
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        jacobian_image_basis(system, {z: np.ones((3, 1))}, samples=-3)


def test_jacobian_image_basis_rank_via_svd():
    # Factorization residual Z - X Y = 0: with the slack z1 block zeroed the
    # sampled columns are vectorized products -X Y, which span the full
    # equation space once enough samples are drawn (SVD rank oracle).
    m, r = 3, 2
    xb = BlockId("X", "x", (m, r), index=0)
    yb = BlockId("Y", "x", (r, m), index=1)
    zb = BlockId("Z", "z1", (m, m))
    system = MultiaffineSystem()
    system.add_equation([LinearTerm(ScaledIdentity(1.0, (m, m)), zb),
                         MatChain([xb, yb], sign=-1)])
    point = _gaussian_assignment(system, 12)
    basis = jacobian_image_basis(system, point, samples=20, seed=3)
    assert basis.shape == (9, 21)
    svals = np.linalg.svd(basis, compute_uv=False)
    assert int(np.sum(svals > 1e-10 * svals[0])) == 9


def test_jacobian_image_basis_deterministic():
    system, x, y, z, s = _rank_one_system(3)
    point = _gaussian_assignment(system, 13)
    b1 = jacobian_image_basis(system, point, samples=4, seed=21)
    b2 = jacobian_image_basis(system, point, samples=4, seed=21)
    np.testing.assert_array_equal(b1, b2)


def test_freeze_ignores_reassignment_after_the_call():
    # Offsets are computed on first use, from the values checked by freeze;
    # rebinding blocks in the caller's dict afterwards must not reach them.
    system, x, y, z, s = _rank_one_system(3)
    point = _gaussian_assignment(system, 4)
    for block in system.blocks.values():
        reference = freeze(system, block, dict(point))
        expected = {e: reference.offset_for(e).copy() for e in system.eq_ids}
        stacked = reference.offset.copy()
        moved = dict(point)
        by_eq = freeze(system, block, moved)
        whole = freeze(system, block, moved)
        for b in system.blocks.values():
            moved[b] = np.full(b.shape, 7.0)
        for e in system.eq_ids:
            np.testing.assert_array_equal(by_eq.offset_for(e), expected[e])
        np.testing.assert_array_equal(whole.offset, stacked)
        np.testing.assert_array_equal(by_eq.offset, stacked)


def test_freeze_checks_every_frozen_value_at_the_call():
    # s enters only terms that feed offsets (for x, an equation x shares;
    # for Z, one Z does not enter), never a focus piece.  The first freeze
    # of each focus builds its plan; the failing calls reuse it.
    system, x, y, z, s = _rank_one_system(3)
    point = _gaussian_assignment(system, 5)
    missing = dict(point)
    del missing[s]
    wrong = dict(point)
    wrong[s] = np.zeros((2, 1))
    for focus in (x, z):
        freeze(system, focus, point)
        for _ in range(2):
            with pytest.raises(KeyError, match="'s'"):
                freeze(system, focus, missing)
            with pytest.raises(ShapeMismatchError) as err:
                freeze(system, focus, wrong)
            assert err.value.block == "s"
        freeze(system, focus, point)


def test_add_equation_after_freeze_is_refused():
    # Equations join until the first freeze, which fixes the system whether
    # or not its focus passes; every later equation is refused, changing
    # nothing, so each kept plan stays valid.
    system, x, y, z, s = _rank_one_system(3)
    v = BlockId("v", "z2", (3, 1))
    third = [MatChain([x], sign=-1), LinearTerm(ScaledIdentity(2.0, (3, 1)), v),
             Constant(np.ones((3, 1)))]
    system.add_equation(third)
    point = _gaussian_assignment(system, 9)
    form = freeze(system, x, point)
    assert list(form.plan.rows) == [0, 1, 2]
    assert [p.eq_id for p in form.pieces if p.eq_id == 2] == [2]
    np.testing.assert_array_equal(form.offset_for(2),
                                  -(2.0 * point[v] + np.ones((3, 1))))
    np.testing.assert_allclose(form.apply(point[x]) - form.offset,
                               stack_residual(evaluate(system, point)),
                               rtol=1e-12, atol=1e-12)
    u = BlockId("u", "z2", (3, 1))
    with pytest.raises(BuildError, match="frozen"):
        system.add_equation([MatChain([x]), LinearTerm(ScaledIdentity(1.0, (3, 1)), u)])
    assert list(freeze(system, x, point).plan.rows) == [0, 1, 2]
    refused, x, *_ = _rank_one_system(3)
    with pytest.raises(BuildError, match="twice"):
        freeze(refused, [x, x], _gaussian_assignment(refused, 0))
    with pytest.raises(BuildError, match="frozen"):
        refused.add_equation([MatChain([x]), LinearTerm(ScaledIdentity(1.0, (3, 1)), u)])
    assert len(refused.equations) == 2 and "u" not in refused.blocks


def test_freeze_walks_the_terms_once_per_system(monkeypatch):
    # Every focus reads its plan from one walk of the terms, which fixes the
    # system: a later equation is refused before any term is walked.
    import madmm.system as system_mod

    system, x, y, z, s = _rank_one_system(3)
    n_terms = sum(len(terms) for _, terms in system.equations)
    walked = []

    def counting(real):
        def blocks(term):
            walked.append(term)
            return real(term)
        return blocks

    for kind in (system_mod.MatChain, system_mod.HadamardPair,
                 system_mod.Conv2D, system_mod.LinearTerm, system_mod.Constant):
        monkeypatch.setattr(kind, "blocks", counting(kind.blocks))
    for seed in range(5):
        freeze(system, y, _gaussian_assignment(system, seed))
    assert len(walked) == n_terms
    freeze(system, [z, s], _gaussian_assignment(system, 0))
    freeze(system, x, _gaussian_assignment(system, 0))
    assert len(walked) == n_terms
    with pytest.raises(BuildError, match="frozen"):
        system.add_equation([MatChain([x]), Constant(np.ones((3, 1)))])
    freeze(system, x, _gaussian_assignment(system, 0))
    assert len(walked) == n_terms


def _plan_by_walking(system, focus):
    """(reads, hits, frozen_terms) of `focus` by walking every term for it."""
    focus_set = frozenset(focus)
    reads, hits, frozen_terms = {}, [], {}
    for eq_id, terms in system.equations:
        rest = frozen_terms[eq_id] = []
        for term in terms:
            blocks = term.blocks()
            for b in blocks:
                if b not in focus_set:
                    reads.setdefault(b)
            if any(b in focus_set for b in blocks):
                hits.append((eq_id, term))
            else:
                rest.append(term)
    return tuple(reads), tuple(hits), frozen_terms


@pytest.mark.parametrize("name", zoo.zoo_names())
def test_unit_freeze_plans_match_a_walk_per_focus(name):
    problem = zoo.default_instance(name, 0).problem
    system = problem.system
    point = {b: np.zeros(b.shape) for b in system.blocks.values()}
    for focus, _ in problem._units:
        freeze(system, focus, point)  # a custom updater's unit has no plan yet
        plan = system._plans[focus]
        reads, hits, frozen_terms = _plan_by_walking(system, focus)
        assert plan.reads == reads
        # Each term the focus enters, in walk order: a term of one block by
        # its shared piece, any other by (index, eq_id, term) in ``varying``.
        walk = _term_index(system)
        at = [next(i for i, (_, u) in enumerate(walk.terms) if u is t) for _, t in hits]
        assert [id(p) for p in plan.pieces] == [id(walk.shared[i]) for i in at]
        assert ([(k, e, id(t)) for k, e, t in plan.varying]
                == [(k, e, id(t)) for k, ((e, t), i) in enumerate(zip(hits, at))
                    if walk.shared[i] is None])
        eq_pieces = {}
        for k, (e, _) in enumerate(hits):
            eq_pieces.setdefault(e, []).append(k)
        assert plan.eq_pieces == eq_pieces
        assert ({e: [id(t) for t in ts] for e, ts in plan.frozen_terms.items()}
                == {e: [id(t) for t in ts] for e, ts in frozen_terms.items()})
        # The blocks a convolution target's memo key names, first-use order.
        assert plan.eq_reads == {e: tuple(dict.fromkeys(b for t in ts for b in t.blocks()))
                                 for e, ts in frozen_terms.items()}


def test_sbd1_step_asks_no_term_for_its_blocks(monkeypatch):
    # Each equation's read blocks are kept on its freeze plan, and the
    # convolution targets of a step (the kernel and signal updates') read
    # them from there.  Rebuilt from the other terms' blocks() at every
    # target, they took 6 calls per step.
    import madmm.system as system_mod

    inst = zoo.default_instance("sbd1", 0)
    state, _, _ = solver.solve(inst.problem, rho=1.0, max_iter=1, init=inst.init)
    asked = []

    def counting(real):
        def blocks(term):
            asked.append(term)
            return real(term)
        return blocks

    for kind in (system_mod.MatChain, system_mod.HadamardPair,
                 system_mod.Conv2D, system_mod.LinearTerm, system_mod.Constant):
        monkeypatch.setattr(kind, "blocks", counting(kind.blocks))
    solver.step(inst.problem, state)
    assert asked == []


def test_freeze_names_the_first_term_coupling_focus_blocks():
    system, x, y, z, s = _rank_one_system(2)
    v = BlockId("v", "x", (2, 1), index=2)
    system.add_equation([HadamardPair(x, v), MatChain([x], sign=-1)])
    point = _gaussian_assignment(system, 0)
    with pytest.raises(BuildError, match=r"^equation 0: term couples focus "
                       r"blocks \['x', 'y'\]; the frozen map would not be affine$"):
        freeze(system, [y, v, x], point)
    with pytest.raises(BuildError, match=r"^equation 2: term couples focus "
                       r"blocks \['x', 'v'\]"):
        freeze(system, [v, x], point)
    with pytest.raises(BuildError, match="focus block 'w' is not part"):
        freeze(system, [x, BlockId("w", "x", (2, 1))], point)


def test_freeze_refuses_a_focus_that_names_a_block_twice():
    # Such a focus froze to a form of twice the block's size with one piece
    # per occurrence in a term, whose solves failed or fitted the wrong map.
    system, x, y, z, s = _rank_one_system(2)
    point = _gaussian_assignment(system, 0)
    for focus, name in (([z, z], "Z"), ([x, s, x], "x")):
        with pytest.raises(BuildError, match=f"focus names block '{name}' twice"):
            freeze(system, focus, point)
    assert not system._plans


def test_equal_blocks_are_one_object():
    # Block ids are hash-consed, so a dict keyed by them hashes and compares
    # in C: equal fields give one object, however the id was made.
    a = BlockId("a", "x", (2, 2))
    assert BlockId("a", "x", [2, 2]) is a and BlockId("a", "x", (2, 2), 0) is a
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert pickle.loads(pickle.dumps(a)) is a
    assert dataclasses.replace(a) is a
    other_role = dataclasses.replace(a, role="z1")
    assert other_role is BlockId("a", "z1", (2, 2)) and other_role != a
    keyed = {a: 1, other_role: 2}
    assert len(keyed) == 2
    assert keyed[BlockId("a", "x", (2, 2))] == 1
    assert keyed[BlockId("a", "z1", (2, 2))] == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.name = "b"
    # A refused id is never stored.
    for role, shape in (("y", (2, 2)), ("x", (0, 2)), ("x", (2, 2, 1))):
        with pytest.raises(BuildError):
            BlockId("refused", role, shape)
    assert not [b for b in _BLOCK_IDS.values() if b.name == "refused"]


def test_threads_building_equal_blocks_get_one_object():
    # The table is shared by every thread: a check-then-insert without its
    # lock would let two threads each store an object for one field tuple.
    names = [f"race{i}" for i in range(2000)]
    got = [[] for _ in range(8)]
    start = threading.Barrier(len(got), timeout=30)

    def build(out):
        start.wait()
        out.extend(BlockId(name, "x", (1, 1)) for name in names)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(len(out) == len(names) for out in got)
    for i, name in enumerate(names):
        assert len({id(out[i]) for out in got}) == 1
        assert got[0][i] is BlockId(name, "x", (1, 1))


def _random_system(data, n, roles=("x",)):
    """Random multiaffine system over 2-4 square n x n blocks, each of a
    role drawn from ``roles`` (no draw for one role)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    blocks = [BlockId(f"b{i}", data.draw(st.sampled_from(roles)) if len(roles) > 1
                      else roles[0], (n, n), index=i)
              for i in range(data.draw(st.integers(2, 4)))]
    pick = st.sampled_from(blocks)

    def draw_term():
        kind = data.draw(st.sampled_from(["chain", "hadamard", "linear", "constant",
                                          "constant chain"]))
        sign = data.draw(st.sampled_from([1, -1]))
        if kind == "chain":
            chosen = data.draw(st.lists(pick, min_size=1, max_size=3, unique=True))
            factors = []
            for b in chosen:
                if data.draw(st.booleans()):
                    factors.append(rng.standard_normal((n, n)))
                factors.append(b)
            return MatChain(factors, sign=sign)
        if kind == "hadamard":
            left, right = data.draw(st.lists(pick, min_size=2, max_size=2, unique=True))
            post = (DenseOp(rng.standard_normal((n * n, n * n)), (n, n), (n, n))
                    if data.draw(st.booleans()) else None)
            return HadamardPair(left, right, post=post, sign=sign)
        if kind == "linear":
            op = DenseOp(rng.standard_normal((n * n, n * n)), (n, n), (n, n))
            return LinearTerm(op, data.draw(pick), sign=sign)
        if kind == "constant chain":
            return MatChain([rng.standard_normal((n, n))
                             for _ in range(data.draw(st.integers(1, 2)))], sign=sign)
        return Constant(rng.standard_normal((n, n)), sign=sign)

    system = MultiaffineSystem()
    for _ in range(data.draw(st.integers(1, 3))):
        system.add_equation([draw_term() for _ in range(data.draw(st.integers(1, 4)))])
    return system, rng


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_freeze_plan_matches_evaluate_and_adjoint(n, data):
    # Every focus is frozen at two independent assignments: the second
    # call reuses the plan the first one built.
    system, rng = _random_system(data, n)
    blocks = sorted(system.blocks.values(), key=lambda b: b.name)
    foci = blocks + [group for size in range(2, len(blocks) + 1)
                     for group in itertools.combinations(blocks, size)]
    for focus in foci:
        group = focus if isinstance(focus, tuple) else (focus,)
        coupled = any(sum(b in group for b in t.blocks()) > 1
                      for _, terms in system.equations for t in terms)
        for _ in range(2):
            point = {b: rng.standard_normal(b.shape) for b in system.blocks.values()}
            if coupled:
                with pytest.raises(BuildError):
                    freeze(system, focus, point)
                continue
            form = freeze(system, focus, point)
            y = {b.name: rng.standard_normal(b.shape) for b in group}
            for b in group:
                point[b] = y[b.name]
            stacked = stack_residual(evaluate(system, point))
            # The focus vector: the blocks flattened row-major, in focus order.
            linear = form.apply(np.concatenate([np.ravel(y[b.name]) for b in group]))
            linear -= form.offset
            np.testing.assert_allclose(
                linear, stacked, rtol=0,
                atol=1e-10 * max(1.0, np.linalg.norm(stacked)))
            yv = rng.standard_normal(form.in_dim)
            wv = rng.standard_normal(form.out_dim)
            image = form.apply(yv)
            back = form.adjoint(wv)
            scale = max(1.0, np.linalg.norm(image) * np.linalg.norm(wv),
                        np.linalg.norm(yv) * np.linalg.norm(back))
            assert abs(image @ wv - yv @ back) <= 1e-10 * scale


def _assert_constant_part_is_evaluate_at_zeros(system):
    zeros = {b: np.zeros(b.shape) for b in system.blocks.values()}
    got, want = _constant_part(system), evaluate(system, zeros)
    assert [g.dtype for g in got] == [w.dtype for w in want]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def _signed_zero_system():
    """Constants with negative zeros, first and after a product, with
    either sign, beside an equation without a constant, and matrix chains
    of constant factors alone."""
    a, b = BlockId("a", "x", (2, 2)), BlockId("b", "x", (2, 2), 1)
    c = np.array([[-0.0, 0.0], [1.5, -2.0]])
    system = MultiaffineSystem()
    system.add_equation([Constant(c), MatChain([a, b], sign=-1), Constant(c, sign=-1)])
    system.add_equation([LinearTerm(TransposeOp((2, 2)), a, sign=-1), MatChain([b])])
    system.add_equation([MatChain([a, -np.eye(2)]), Constant(-c, sign=-1), Constant(c)])
    system.add_equation([MatChain([np.eye(2), c]), MatChain([a], sign=-1),
                         MatChain([-c], sign=-1)])
    return system


@pytest.mark.parametrize("name", ["signed zeros", *zoo.zoo_names()])
def test_constant_part_is_evaluate_at_zeros_to_the_bit(name):
    # ``solve`` scales its tolerance by ||C(0)||, read from the constant
    # terms alone: evaluating every term at zeros convolved zero arrays.
    _assert_constant_part_is_evaluate_at_zeros(
        _signed_zero_system() if name == "signed zeros"
        else zoo.default_instance(name, 0).problem.system)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_constant_part_of_a_random_system_is_evaluate_at_zeros(n, data):
    system, _ = _random_system(data, n)
    _assert_constant_part_is_evaluate_at_zeros(system)


def _counting_checks(monkeypatch):
    """A list that ``system._value_of`` appends each block it checks to."""
    import madmm.system as system_mod

    checked, real = [], system_mod._value_of

    def counting(assignment, block):
        checked.append(block)
        return real(assignment, block)

    monkeypatch.setattr(system_mod, "_value_of", counting)
    return checked


@pytest.mark.parametrize("name", zoo.zoo_names())
def test_evaluate_checks_each_block_once_and_terms_check_none(name, monkeypatch):
    inst = zoo.default_instance(name, 0)
    system = inst.problem.system
    point = {b: np.ones(b.shape) for b in system.blocks.values()}
    checked = _counting_checks(monkeypatch)
    evaluate(system, point)
    assert sorted(checked, key=lambda b: b.name) == sorted(
        system.blocks.values(), key=lambda b: b.name)
    checked.clear()
    for _, terms in system.equations:
        for term in terms:
            term.unsigned(point)
    assert checked == []


def test_a_steady_step_checks_each_value_once_per_entry_and_freeze_read(monkeypatch):
    # The step checks its state's blocks once, at entry, and reads the
    # checked values after; each unit's freeze checks the blocks it reads.
    # Before, a desk nmf3 step checked 74 values (evaluate and the
    # block adjoints checked every block again) and augmented_lagrangian 9.
    problem = zoo.default_instance("nmf3", 0).problem
    state, _, _ = solver.solve(problem, max_iter=3)
    system = problem.system
    checked = _counting_checks(monkeypatch)
    new, _ = solver.step(problem, state)
    reads = sum(len(system._plans[focus].reads) for focus, _ in problem._units)
    assert len(checked) == reads + len(system.blocks) == 49
    # The other entries that take a state check each of its blocks once.
    from madmm.diagnostics import assert_iteration, stationarity

    for entry in (solver.augmented_lagrangian, stationarity):
        checked.clear()
        entry(problem, new)
        assert sorted(b.name for b in checked) == sorted(system.blocks)
    checked.clear()
    assert_iteration(problem, state, new)
    assert len(checked) == 2 * len(system.blocks)


def test_stationarity_evaluates_no_terms(monkeypatch):
    # The stationarity estimate reads only adjoints of the frozen forms, so
    # freezing for it must not evaluate any term into an offset.
    import madmm.system as system_mod
    from madmm import solver, zoo

    inst = zoo.default_instance("nmf3", 0)
    state, _, _ = solver.solve(inst.problem, max_iter=2, init=inst.init)
    calls = []
    real = system_mod._eval_term

    def counting(term, assignment, out=None):
        calls.append(term)
        return real(term, assignment, out)

    monkeypatch.setattr(system_mod, "_eval_term", counting)
    solver._stationarity(inst.problem, state.assignment, state.multipliers)
    assert calls == []
    evaluate(inst.problem.system, state.assignment)
    assert calls, "the counter must see the evaluations evaluate() makes"


def _probed(fn, shape):
    """Columns fn(e_j).ravel() over the row-major basis of ``shape``."""
    basis = np.zeros(shape)
    flat = basis.reshape(-1)
    cols = []
    for j in range(flat.size):
        flat[j] = 1.0
        cols.append(np.ravel(fn(basis)))
        flat[j] = 0.0
    return np.column_stack(cols)


def _assert_dense_matches_probes(piece, out_shape):
    dense = piece.dense()
    scale = 1e-12 * max(1.0, float(np.max(np.abs(dense))))
    np.testing.assert_allclose(dense, _probed(piece.apply, piece.block.shape),
                               rtol=0, atol=scale)
    np.testing.assert_allclose(dense.T, _probed(piece.adjoint, out_shape),
                               rtol=0, atol=scale)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_piece_dense_matches_probed_apply_and_adjoint(n, data):
    system, rng = _random_system(data, n)
    point = {b: rng.standard_normal(b.shape) for b in system.blocks.values()}
    for block in system.blocks.values():
        for piece in freeze(system, block, point).pieces:
            _assert_dense_matches_probes(piece, system.eq_shape(piece.eq_id))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3),
       st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_conv_piece_dense_matches_probed_apply_and_adjoint(k0, k1, extra0,
                                                           extra1, seed):
    ss = (k0 + extra0, k1 + extra1)
    system, a, xs, _ = _conv_system((k0, k1), ss)
    point = _gaussian_assignment(system, seed)
    for block in (a, xs):
        (piece,) = freeze(system, block, point).pieces
        _assert_dense_matches_probes(piece, ss)


@pytest.mark.parametrize("name", zoo.zoo_names())
def test_block_adjoints_match_freeze_bit_for_bit(name):
    inst = zoo.default_instance(name, 0)
    state, _, _ = solver.solve(inst.problem, max_iter=3, init=inst.init)
    system = inst.problem.system
    got = _block_adjoints(system, _checked_values(system, state.assignment),
                          state.multipliers)
    assert set(got) == set(system.blocks.values())
    w = stack_residual([state.multipliers[e] for e in system.eq_ids])
    for block in system.blocks.values():
        want = freeze(system, block, state.assignment).adjoint(w)
        assert np.array_equal(np.ravel(got[block]), want), block.name


def _every_term_system():
    """Every term type with both signs, over 3 x 2 equations, among them
    identities of scale 1 from a chain and an operator and a scaled
    identity of 2.5; returns (system, assignment, multipliers)."""
    rng = np.random.default_rng(21)
    shapes = {"X": (3, 4), "Y": (4, 2), "H": (3, 2), "G": (3, 2),
              "K": (2, 2), "S": (3, 2), "U": (3, 2), "V": (3, 2)}
    b = {name: BlockId(name, "x", shape, index=i)
         for i, (name, shape) in enumerate(shapes.items())}
    eye = ScaledIdentity(1.0, (3, 2))
    system = MultiaffineSystem()
    system.add_equation([MatChain([b["X"], b["Y"]]),
                         MatChain([rng.standard_normal((3, 4)), b["Y"]], sign=-1),
                         Constant(rng.standard_normal((3, 2))),
                         Constant(rng.standard_normal((3, 2)), sign=-1)])
    system.add_equation([HadamardPair(b["H"], b["G"]),
                         HadamardPair(b["G"], b["U"], sign=-1)])
    system.add_equation([Conv2D(b["K"], b["S"]),
                         Conv2D(b["K"], b["V"], sign=-1)])
    system.add_equation([LinearTerm(ScaledIdentity(2.5, (3, 2)), b["U"]),
                         LinearTerm(ScaledIdentity(2.5, (3, 2)), b["G"], sign=-1),
                         LinearTerm(eye, b["V"]), LinearTerm(eye, b["H"], sign=-1),
                         MatChain([b["S"]]), MatChain([b["U"]], sign=-1),
                         LinearTerm(DenseOp(rng.standard_normal((6, 6)), (3, 2), (3, 2)),
                                    b["S"], sign=-1)])
    assignment = {blk: rng.standard_normal(blk.shape) for blk in b.values()}
    mults = {e: rng.standard_normal(system.eq_shape(e)) for e in system.eq_ids}
    return system, assignment, mults


def _signed_sum(terms, values, shape):
    """The sum of sign * value over ``terms``, a linear term's value taken
    from its operator."""
    total = np.zeros(shape)
    for t in terms:
        value = (t.op.apply(values[t.block]) if isinstance(t, LinearTerm)
                 else t.unsigned(values))
        total = total + t.sign * value
    return total


@pytest.mark.parametrize("name", ["every term", *zoo.zoo_names()])
def test_sums_fold_signs_and_write_no_input(name):
    # A term's unsigned value may be a block value or a constant's own
    # array, and its sign is folded into the sums by adding or subtracting:
    # the sums equal sign * value summed apart, and no input is written.
    # Two steps from one state agree to the bit.
    problem = None
    if name == "every term":
        system, assignment, mults = _every_term_system()
    else:
        inst = zoo.default_instance(name, 0)
        problem, system = inst.problem, inst.problem.system
        state, _, _ = solver.solve(problem, max_iter=2, init=inst.init)
        assignment, mults = state.assignment, state.multipliers
    inputs = [*assignment.values(), *mults.values(),
              *(t.value for _, terms in system.equations for t in terms
                if isinstance(t, Constant))]
    if problem is not None:
        inputs += [t.center for terms in problem.objective.values()
                   for t in terms if isinstance(t, Quadratic) and t.center is not None]
    before = [a.tobytes() for a in inputs]
    for r, (_, terms) in zip(evaluate(system, assignment), system.equations):
        assert np.array_equal(r, _signed_sum(terms, assignment, r.shape))
    grads = _block_adjoints(system, _checked_values(system, assignment), mults)
    for block in system.blocks.values():
        form = freeze(system, block, assignment)
        for eq_id, terms in system.equations:
            others = [t for t in terms if block not in t.blocks()]
            assert np.array_equal(form.offset_for(eq_id), -_signed_sum(
                others, assignment, system.eq_shape(eq_id)))
        want = np.zeros(block.shape)
        for p in form.pieces:
            want = want + p.adjoint(mults[p.eq_id])
        assert np.array_equal(grads[block], want), block.name
    if problem is not None:
        one, trace_one = solver.step(problem, state)
        two, trace_two = solver.step(problem, state)
        for got, want in ((two.assignment, one.assignment),
                          (two.multipliers, one.multipliers)):
            assert list(got) == list(want)
            assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        fields = [f.name for f in dataclasses.fields(trace_one) if f.name != "wall_ms"]
        assert ([getattr(trace_two, f) for f in fields]
                == [getattr(trace_one, f) for f in fields])
    assert [a.tobytes() for a in inputs] == before


def _positive_zero(a) -> bool:
    return not np.any(a) and not np.any(np.signbit(a))


def test_an_output_is_handed_out_again_only_once_nothing_holds_it():
    # A step takes its new values from system._output, which may hand out
    # an array of an old state again; anything that still reaches that
    # array, the array itself, a view or a memoryview, must keep it.
    from madmm.system import _output

    kept = []
    first = _output(kept, (2, 3))
    second = _output(kept, (2, 3))
    assert second is not first and kept == [first, second]
    for hold in (lambda a: a, lambda a: a[1:], memoryview):
        holder = hold(first)
        del first
        third = _output(kept, (2, 3))
        assert all(third is not a for a in kept) and len(kept) == 2
        del holder
        first = _output(kept, (2, 3))
        assert first is kept[0]
    del second
    assert _output(kept, (2, 3)) is kept[1]


def test_sums_turn_a_first_negative_zero_into_positive_zero():
    # Every sum starts from 0.0 + its first signed addend (see
    # system._accumulate), so an exact -0.0 there comes out as +0.0, as
    # adding into zeros did.  Each case below starts its sum from -0.0 and
    # adds only addends that would keep a -0.0; a regrouped sum must keep
    # this rule or settle that dropping it changes no iterate.
    x = BlockId("x", "x", (2, 2), index=0)
    y = BlockId("y", "x", (2, 2), index=1)
    system = MultiaffineSystem()
    system.add_equation([MatChain([x], sign=-1), MatChain([y])])  # -x + y
    pos, neg = np.zeros((2, 2)), np.full((2, 2), -0.0)
    assert np.all(np.signbit(-pos)) and np.all(np.signbit(neg + neg))
    # evaluate: -x is -0.0 at x = +0.0, and y = -0.0 would keep it.
    (r,) = evaluate(system, {x: pos, y: neg})
    assert _positive_zero(r)
    # offset_for: minus y is -0.0 at y = +0.0.
    form = freeze(system, x, {y: pos})
    assert _positive_zero(form.offset_for(0))
    # _SolvePlan.rhs: x's piece is -I, so its first addend is minus the
    # target rho * offset - w, -0.0 at w = +0.0.
    plan = prox._SolvePlan(form)
    assert _positive_zero(plan.rhs(form, {0: pos}, 1.0))
    # _block_adjoints: x's first addend is -w.
    grads = _block_adjoints(system, {x: pos, y: pos}, {0: pos})
    assert _positive_zero(grads[x]) and _positive_zero(grads[y])


def _held_arrays(piece):
    """The arrays a piece holds: its own, its factors' and its operator's."""
    for value in vars(piece).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                yield item
            elif isinstance(item, LinearOp):
                yield from (a for a in vars(item).values() if isinstance(a, np.ndarray))


@pytest.mark.parametrize("name", zoo.zoo_names())
def test_fixed_pieces_are_shared_and_never_written(name):
    # A piece that reads no other block's value is built once per system:
    # two freezes of a unit at different values share it, and share no
    # piece that reads a value.  _block_adjoints reads the same objects, and
    # a step writes none of their arrays.
    inst = zoo.default_instance(name, 0)
    problem, system = inst.problem, inst.problem.system
    state, _, _ = solver.solve(problem, max_iter=2, init=inst.init)
    other = _gaussian_assignment(system, 1)
    shared = set()
    for focus, _ in problem._units:
        one, two = freeze(system, focus, state.assignment), freeze(system, focus, other)
        assert len(one.pieces) == len(two.pieces)
        for p, q in zip(one.pieces, two.pieces):
            assert (p is q) == p.fixed, (focus, type(p).__name__)
            if p.fixed:
                shared.add(id(p))
    adjoint_pieces = [p for *_, p in system._terms.adjoints if p is not None]
    assert all(p.fixed for p in adjoint_pieces)
    assert shared <= {id(p) for p in adjoint_pieces}
    arrays = [a for p in adjoint_pieces for a in _held_arrays(p)]
    before = [a.tobytes() for a in arrays]
    solver.step(problem, state)
    solver._stationarity(problem, other, state.multipliers)
    assert [a.tobytes() for a in arrays] == before


@pytest.mark.parametrize("name", zoo.zoo_names())
def test_stationarity_freezes_nothing(monkeypatch, name):
    inst = zoo.default_instance(name, 0)
    state, _, _ = solver.solve(inst.problem, max_iter=2, init=inst.init)
    calls = []
    real = solver.freeze

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "freeze", counting)
    solver._stationarity(inst.problem, state.assignment, state.multipliers)
    assert calls == []
    solver.step(inst.problem, state)
    assert calls, "the counter must see the freezes a step makes"


def test_refused_equation_registers_nothing():
    x = BlockId("x", "x", (2, 2), index=0)
    y = BlockId("y", "x", (2, 2), index=1)
    system = MultiaffineSystem()
    with pytest.raises(BuildError, match="twice"):
        system.add_equation([MatChain([x]), MatChain([y, y])])
    assert system.blocks == {} and system.equations == []
    system, x, y, z, s = _rank_one_system(3)
    blocks = dict(system.blocks)
    stranger = BlockId("u", "z1", (3, 1))
    with pytest.raises(BuildError, match="linear terms"):
        system.add_equation([MatChain([x]),
                             LinearTerm(ScaledIdentity(1.0, (3, 1)), stranger),
                             HadamardPair(stranger, stranger)])
    assert system.blocks == blocks and len(system.equations) == 2
    # Once frozen, the system refuses even a valid equation, unchanged.
    freeze(system, x, _gaussian_assignment(system, 0))
    plans = dict(system._plans)
    with pytest.raises(BuildError, match="frozen"):
        system.add_equation([MatChain([x]),
                             LinearTerm(ScaledIdentity(1.0, (3, 1)), stranger)])
    assert system.blocks == blocks and system._plans == plans
    assert len(system.equations) == 2
