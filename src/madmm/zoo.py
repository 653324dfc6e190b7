"""Ready-made problem instances with multiaffine constraints.

Each builder takes the problem data and returns a ZooInstance wrapping a
validated Problem together with the data arrays and, for generated data, the
planted ground truth.  The shared design across families: nonsmooth or
constrained pieces live on their own split blocks so every sequential update
is an exact projection or proximal step, and every shadow (z-role) block
enters its equation through the identity, keeping the final joint update in
closed form.

Families
--------
nmf3    nonnegative matrix factorization with split factors
dl3     sparse dictionary learning with unit-norm atoms
rp2     equal-risk portfolio selection with box and budget slacks
mc1     graph cut relaxation through a rank-one model matrix
rpca2   robust factorization with a sparse outlier matrix
sbd1    sparse blind deconvolution with a noise shadow (sbd0: without it)

The curvature constants that certify a penalty weight are stored in each
problem's metadata when they hold structurally; builders whose constants
would depend on the iterates omit them, which routes automatic penalty
selection to the probing path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BuildError, require_finite
from .operators import (BroadcastOnes, DenseOp, DiagExtract, ScaledIdentity,
                        TransposeOp)
from .prox import (IndicatorBox, IndicatorNonneg, IndicatorUnitColumns, L1,
                   Quadratic, SmoothCustom, soft_threshold)
from .solver import Problem
from .system import (BlockId, Constant, Conv2D, HadamardPair, LinearTerm,
                     MatChain, MultiaffineSystem, _ConvKernelPiece,
                     _ConvSignalPiece, _conv_adjoint_kernel, _irfft2,
                     _spectrum, circ_conv2, freeze)

_INNER_TOL = 1e-11
# Passes of the split solver granted to the sparse-signal update per outer
# iteration.  The update restarts from zero each call, so the budget is a
# hard accuracy cap rather than a warm-start top-up; a fixed budget is how
# this subproblem is run at any realistic scale.
_SBD_INNER_BUDGET = 12
# Proximal weight of the kernel update's anchor.  Any positive weight keeps
# the same stationary points; larger values slow the kernel's scale drift.
_KERNEL_PROX_WEIGHT = 0.5


@dataclass
class ZooInstance:
    """A named problem plus the data it was built from.

    ``truth`` holds planted block values (name -> array) when the data came
    from a generator, empty otherwise.  ``init`` is a recommended starting
    point (name -> array) for families where the solver's random start is
    poorly scaled; pass it to solve() or leave it out to use random starts.
    """

    name: str
    problem: Problem
    data: dict = field(default_factory=dict)
    truth: dict = field(default_factory=dict)
    init: dict = field(default_factory=dict)


def _ident(shape):
    return ScaledIdentity(1.0, shape)


# ---------------------------------------------------------------------------
# Nonnegative factorization.

def nmf3(B, r: int, mu: float = 1.0) -> ZooInstance:
    """Nonnegative factorization of B (m x n) at rank r.

    min  1/2 ||Z - B||^2 + mu/2 (||X_rem||^2 + ||Y_rem||^2)
         + nonneg(X_pos) + nonneg(Y_pos)
    s.t. Z = X Y,  X = X_pos + X_rem,  Y = Y_pos + Y_rem.

    The shadow blocks make every curvature constant structural, so the
    certified penalty bound applies.
    """
    B = np.asarray(B, dtype=float)
    m, n = B.shape
    if r < 1 or r > min(m, n):
        raise BuildError(f"rank {r} out of range for a {m} x {n} matrix")
    Y = BlockId("Y", "x", (r, n), index=0)
    Yp = BlockId("Y_pos", "x", (r, n), index=1)
    X = BlockId("X", "x", (m, r), index=2)
    Xp = BlockId("X_pos", "x", (m, r), index=3)
    Z = BlockId("Z", "z1", (m, n))
    Xr = BlockId("X_rem", "z1", (m, r))
    Yr = BlockId("Y_rem", "z1", (r, n))
    system = MultiaffineSystem()
    system.add_equation([LinearTerm(_ident((m, n)), Z),
                         MatChain([X, Y], sign=-1)])
    system.add_equation([MatChain([X]), MatChain([Xp], sign=-1),
                         LinearTerm(_ident((m, r)), Xr, sign=-1)])
    system.add_equation([MatChain([Y]), MatChain([Yp], sign=-1),
                         LinearTerm(_ident((r, n)), Yr, sign=-1)])
    objective = {Z: [Quadratic(1.0, center=B)],
                 Xr: [Quadratic(mu)], Yr: [Quadratic(mu)],
                 Xp: [IndicatorNonneg()], Yp: [IndicatorNonneg()]}
    metadata = {"m1": min(1.0, mu), "M1": max(1.0, mu), "M2": 0.0, "M_F": 0.0}
    problem = Problem(system, objective, metadata=metadata)
    return ZooInstance("nmf3", problem, data={"B": B})


def gen_nmf_data(m: int, n: int, r: int, seed: int = 0):
    """(B, X0, Y0) with B = X0 @ Y0 and planted factors drawn uniformly from
    [0.5, 1.5], bounded away from zero so the factorization is well
    conditioned."""
    rng = np.random.default_rng(seed)
    X0 = rng.uniform(0.5, 1.5, size=(m, r))
    Y0 = rng.uniform(0.5, 1.5, size=(r, n))
    return X0 @ Y0, X0, Y0


# ---------------------------------------------------------------------------
# Dictionary learning.

def dl3(B, r: int, mu_fit: float = 50.0, mu_dict: float = 50.0,
        mu_code: float = 50.0, l1_weight: float = 1.0) -> ZooInstance:
    """Sparse coding of B (m x n) with a dictionary of r unit-norm atoms.

    min  mu_fit/2 ||Z - B||^2 + mu_dict/2 ||D_rem||^2 + mu_code/2 ||C_rem||^2
         + l1_weight ||C_sparse||_1 + unit_columns(D_unit)
    s.t. Z = D C,  D = D_unit + D_rem,  C = C_sparse + C_rem.
    """
    B = np.asarray(B, dtype=float)
    m, n = B.shape
    if r < 1:
        raise BuildError("dictionary needs at least one atom")
    C = BlockId("C", "x", (r, n), index=0)
    Cs = BlockId("C_sparse", "x", (r, n), index=1)
    D = BlockId("D", "x", (m, r), index=2)
    Du = BlockId("D_unit", "x", (m, r), index=3)
    Z = BlockId("Z", "z1", (m, n))
    Dr = BlockId("D_rem", "z1", (m, r))
    Cr = BlockId("C_rem", "z1", (r, n))
    system = MultiaffineSystem()
    system.add_equation([LinearTerm(_ident((m, n)), Z),
                         MatChain([D, C], sign=-1)])
    system.add_equation([MatChain([D]), MatChain([Du], sign=-1),
                         LinearTerm(_ident((m, r)), Dr, sign=-1)])
    system.add_equation([MatChain([C]), MatChain([Cs], sign=-1),
                         LinearTerm(_ident((r, n)), Cr, sign=-1)])
    objective = {Z: [Quadratic(mu_fit, center=B)],
                 Dr: [Quadratic(mu_dict)], Cr: [Quadratic(mu_code)],
                 Cs: [L1(l1_weight)], Du: [IndicatorUnitColumns()]}
    weights = (mu_fit, mu_dict, mu_code)
    metadata = {"m1": min(weights), "M1": max(weights), "M2": 0.0, "M_F": 0.0}
    problem = Problem(system, objective, metadata=metadata)
    return ZooInstance("dl3", problem, data={"B": B})


def gen_dl_data(m: int, n: int, r: int, density: float = 0.3, seed: int = 0):
    """(B, D0, C0): unit-column dictionary times a sparse code."""
    rng = np.random.default_rng(seed)
    D0 = rng.standard_normal((m, r))
    D0 = D0 / np.linalg.norm(D0, axis=0, keepdims=True)
    mask = rng.uniform(size=(r, n)) < density
    C0 = 3.0 * mask * rng.standard_normal((r, n))
    return D0 @ C0, D0, C0


# ---------------------------------------------------------------------------
# Equal-risk portfolio selection.

def rp2(covariance, lo, hi, mu: float = 1000.0) -> ZooInstance:
    """Equal risk contributions under box and budget constraints.

    Writing y = covariance @ x, the risk contribution of asset i is
    x_i * y_i; the map P sends that vector to the gaps against asset 0.  All
    four couplings carry quadratic slack blocks weighted by mu:

    min  box(x_box; lo, hi) + mu/2 (||gap||^2 + ||y_slack||^2
         + ||box_slack||^2 + ||budget_slack||^2)
    s.t. P(x * y) = gap,        y = covariance x + y_slack,
         x = x_box + box_slack, sum(x) = 1 + budget_slack.
    """
    cov = np.asarray(covariance, dtype=float)
    n = cov.shape[0]
    if cov.shape != (n, n):
        raise BuildError("covariance must be square")
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (n, 1)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (n, 1)).copy()
    if np.any(lo > hi) or np.sum(lo) > 1.0 or np.sum(hi) < 1.0:
        raise ValueError("infeasible box")
    x = BlockId("x", "x", (n, 1), index=0)
    xb = BlockId("x_box", "x", (n, 1), index=1)
    y = BlockId("y", "x", (n, 1), index=2)
    gap = BlockId("gap", "z1", (n, 1))
    ys = BlockId("y_slack", "z2", (n, 1))
    bs = BlockId("box_slack", "z2", (n, 1))
    gs = BlockId("budget_slack", "z2", (1, 1))
    parity = np.zeros((n, n))
    parity[1:, 0] = 1.0
    parity[1:, 1:] = -np.eye(n - 1)
    system = MultiaffineSystem()
    system.add_equation([HadamardPair(x, y, post=DenseOp(parity, (n, 1), (n, 1))),
                         LinearTerm(_ident((n, 1)), gap, sign=-1)])
    system.add_equation([MatChain([y]), MatChain([cov, x], sign=-1),
                         LinearTerm(_ident((n, 1)), ys, sign=-1)])
    system.add_equation([MatChain([x]), MatChain([xb], sign=-1),
                         LinearTerm(_ident((n, 1)), bs, sign=-1)])
    system.add_equation([MatChain([np.ones((1, n)), x]),
                         Constant([[1.0]], sign=-1),
                         LinearTerm(_ident((1, 1)), gs, sign=-1)])
    objective = {xb: [IndicatorBox(lo, hi)],
                 gap: [Quadratic(mu)], ys: [Quadratic(mu)],
                 bs: [Quadratic(mu)], gs: [Quadratic(mu)]}
    metadata = {"m1": mu, "M1": mu, "M2": mu, "M_F": 0.0}
    problem = Problem(system, objective, metadata=metadata)
    return ZooInstance("rp2", problem,
                       data={"covariance": cov, "lo": lo, "hi": hi})


def gen_rp_data(n: int, seed: int = 0):
    """(covariance, lo, hi): a well-conditioned covariance and a feasible box."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    cov = A @ A.T / n + 0.1 * np.eye(n)
    lo = np.zeros((n, 1))
    hi = np.full((n, 1), 0.5)
    return cov, lo, hi


# ---------------------------------------------------------------------------
# Graph cut relaxation.

def mc1(weights, mu_diag: float = 1000.0, mu_tie: float = 1000.0) -> ZooInstance:
    """Cut maximization on a weighted graph through a rank-one model.

    The model matrix factors as Z = row_factor^T-compatible product x y with
    y tied to x^T by a quadratic slack; diag(Z) is pulled to one so the
    factors approach sign vectors:

    min  1/4 <weights, Z - 1> + mu_diag/2 ||diag(Z) - 1||^2 + mu_tie/2 ||s||^2
    s.t. Z = x y,  x = y^T + s.

    Lower values of the linear term correspond to heavier cuts; use
    cut_value to read off the cut weight of a model matrix.
    """
    W = np.asarray(weights, dtype=float)
    n = W.shape[0]
    if W.shape != (n, n):
        raise BuildError("weights must be square")
    # NaN compares False, so the symmetry check below would let it through.
    require_finite(W, "weight matrix")
    if np.max(np.abs(W - W.T)) > 1e-12 * (1.0 + np.max(np.abs(W))):
        raise BuildError("weights must be symmetric")
    if np.any(np.diag(W) != 0.0):
        raise BuildError("weights must have a zero diagonal")
    x = BlockId("x", "x", (n, 1), index=0)
    y = BlockId("y", "x", (1, n), index=1)
    Z = BlockId("Z", "z1", (n, n))
    s = BlockId("s", "z2", (n, 1))
    system = MultiaffineSystem()
    system.add_equation([LinearTerm(_ident((n, n)), Z),
                         MatChain([x, y], sign=-1)])
    system.add_equation([MatChain([x]),
                         LinearTerm(TransposeOp((1, n)), y, sign=-1),
                         LinearTerm(_ident((n, 1)), s, sign=-1)])
    total = float(np.sum(W))
    cut_term = SmoothCustom(
        lambda Zv: 0.25 * float(np.sum(W * Zv)) - 0.25 * total,
        lambda Zv: 0.25 * W, lipschitz=0.0)
    objective = {Z: [Quadratic(mu_diag, center=np.ones((n, 1)),
                               linear_map=DiagExtract(n)), cut_term],
                 s: [Quadratic(mu_tie)]}
    # The smooth curvature on Z acts on its diagonal only; off-diagonal
    # directions carry just the linear cut term.  The diagonal pull is
    # declared as the governing constant, so the step bound it certifies is
    # heuristic for this family and is validated by tests, not structure.
    metadata = {"m1": mu_diag, "M1": mu_diag, "M2": mu_tie, "M_F": 0.0}
    problem = Problem(system, objective, metadata=metadata)
    return ZooInstance("mc1", problem, data={"weights": W})


def cut_value(weights, Z) -> float:
    """Cut weight read from a model matrix with +-1 entries (each edge is
    counted once)."""
    W = np.asarray(weights, dtype=float)
    return 0.25 * float(np.sum(W * (1.0 - np.asarray(Z, dtype=float))))


def triangle_graph() -> np.ndarray:
    return np.ones((3, 3)) - np.eye(3)


# ---------------------------------------------------------------------------
# Robust factorization.

def rpca2(B, k: int, lam: float = 0.5, variant: str = "slack",
          mu: float = 1.0) -> ZooInstance:
    """Split B (m x n) into a rank-k product plus a sparse outlier matrix.

    variant="slack" (default):

        min  1/2 (||U||^2 + ||Vt||^2) + lam ||S||_1 + mu/2 ||Z||^2
        s.t. U Vt + S - Z = B,

    with S swept last so its update is a plain shrinkage, and the shadow Z
    carrying the strongly convex final block.  variant="raw" drops Z and
    puts the sparse matrix itself in the final position:

        min  1/2 (||U||^2 + ||Vt||^2) + lam ||S||_1   s.t.  U Vt + S = B.

    The raw variant intentionally breaks the smooth-final-block requirement;
    the structure checker reports it and it exists for exactly that
    demonstration.  Neither variant
    declares certified curvature constants: the factor blocks' coefficient
    maps depend on the iterates, so automatic penalty selection probes.
    """
    B = np.asarray(B, dtype=float)
    m, n = B.shape
    if k < 1 or k > min(m, n):
        raise BuildError(f"rank {k} out of range for a {m} x {n} matrix")
    if variant not in ("slack", "raw"):
        raise BuildError(f"unknown variant {variant!r}; use 'slack' or 'raw'")
    U = BlockId("U", "x", (m, k), index=0)
    Vt = BlockId("Vt", "x", (k, n), index=1)
    system = MultiaffineSystem()
    if variant == "slack":
        S = BlockId("S", "x", (m, n), index=2)
        Z = BlockId("Z", "z1", (m, n))
        system.add_equation([MatChain([U, Vt]), MatChain([S]),
                             LinearTerm(_ident((m, n)), Z, sign=-1),
                             Constant(B, sign=-1)])
        objective = {U: [Quadratic(1.0)], Vt: [Quadratic(1.0)],
                     S: [L1(lam)], Z: [Quadratic(mu)]}
    else:
        # The final block is nonsmooth on purpose.
        S = BlockId("S", "z1", (m, n))
        system.add_equation([MatChain([U, Vt]),
                             LinearTerm(_ident((m, n)), S),
                             Constant(B, sign=-1)])
        objective = {U: [Quadratic(1.0)], Vt: [Quadratic(1.0)], S: [L1(lam)]}
    problem = Problem(system, objective)
    return ZooInstance(f"rpca2_{variant}" if variant != "slack" else "rpca2",
                       problem, data={"B": B})


def gen_rpca_data(m: int, n: int, k: int, spike_density: float = 0.05,
                  seed: int = 0):
    """(B, L0, S0): a rank-k matrix plus sparse +-5 spikes."""
    rng = np.random.default_rng(seed)
    L0 = rng.standard_normal((m, k)) @ rng.standard_normal((k, n)) / np.sqrt(k)
    mask = rng.uniform(size=(m, n)) < spike_density
    S0 = mask * rng.choice([-5.0, 5.0], size=(m, n))
    return L0 + S0, L0, S0


# ---------------------------------------------------------------------------
# Sparse blind deconvolution.

def _inverse_denominator(spectrum, rho, eta):
    """1 / (rho * spectrum + eta), in one array."""
    out = np.multiply(spectrum, rho)
    out += eta
    return np.divide(1.0, out, out=out)


def _max_abs(a) -> float:
    """max |a|, read from the extremes without writing an array; NaN when
    ``a`` holds one, since then both extremes are NaN."""
    return max(float(a.max()), -float(a.min()))


def _sparse_conv_updater(l1_weight: float, max_passes: int = _SBD_INNER_BUDGET):
    """Budgeted update for the sparse signal in a convolution.

    Splits the signal against a shadow copy and alternates a Fourier-diagonal
    quadratic step with shrinkage, running at most ``max_passes`` passes per
    call from the zero signal, the anchor of the sparsity term.  The split
    weight starts at the mean squared kernel spectrum and is rebalanced
    against the consensus residuals.  Returns the shrinkage iterate, so the
    result is exactly sparse.

    The first pass starts from v = u = 0, so it takes no forward transform:
    its spectrum is the scaled target's alone.  The loop stops once
    max(max|x - v_new|, eta * max|v_new - v|) falls to the tolerance, which
    needs its first part to, so the drift v_new - v is formed only on a
    pass where that part passes and on the passes that rebalance eta.  The
    target and its spectrum come from ``FrozenLinearForm.conv_target``:
    inside a step, whichever of this and the kernel update runs second
    reads them from the first.

    Each call is a self-contained bounded-work approximation of the
    subproblem: signal content the kernel transfers strongly is recovered
    within the budget, while content aligned with the kernel's weakest
    frequencies is not, mirroring how this update behaves at any realistic
    scale.  Formulations whose remaining blocks can absorb that leftover
    stay stable; formulations with a hard constraint push it into the
    multipliers.
    """

    def update(problem, block, assignment, multipliers, rho):
        form = freeze(problem.system, block, assignment)
        piece = form.pieces[0] if len(form.pieces) == 1 else None
        if not isinstance(piece, _ConvSignalPiece):
            raise BuildError("sparse convolution block must appear exactly "
                             "once, as a convolution signal")
        kernel = np.asarray(piece.kernel, dtype=float)
        target, target_hat = form.conv_target(piece, multipliers, rho)
        shape = block.shape
        ker_hat = _spectrum(kernel, shape)
        spectrum = (ker_hat.conj() * ker_hat).real.copy()
        # mean of the full two-sided spectrum, by Parseval
        mean_spec = float(np.sum(kernel * kernel))
        eta = rho * max(1.0, mean_spec)
        # Multiplying real and imaginary parts by 1/denom gives the same bits
        # as numpy's complex-by-real division, which scales by the reciprocal.
        inv_denom = _inverse_denominator(spectrum, rho, eta)
        quad_hat = np.conj(ker_hat)
        quad_hat *= rho
        quad_hat *= target_hat
        tol = _INNER_TOL * (1.0 + float(np.linalg.norm(target)))
        del ker_hat, target, target_hat
        # Every pass writes into these buffers, allocated once per call.
        v, v_new, u, tmp, x = (np.zeros(shape), np.empty(shape), np.zeros(shape),
                               np.empty(shape), np.empty(shape))
        hat = np.empty(quad_hat.shape, complex)
        for it in range(max_passes):
            if it == 0:
                # v = u = 0: the transform of eta * v - u is zero, and
                # u / eta + x is x + 0.0 (which turns -0.0 into 0.0, as
                # 0.0 + x does).
                np.multiply(quad_hat.real, inv_denom, out=hat.real)
                np.multiply(quad_hat.imag, inv_denom, out=hat.imag)
                _irfft2(hat, shape, out=x)
                np.add(x, 0.0, out=tmp)
            else:
                np.multiply(v, eta, out=tmp)
                tmp -= u
                np.fft.rfft2(tmp, out=hat)
                hat += quad_hat
                hat.real *= inv_denom
                hat.imag *= inv_denom
                _irfft2(hat, shape, out=x)
                np.divide(u, eta, out=tmp)
                tmp += x
            soft_threshold(tmp, l1_weight / eta, out=v_new)
            # x turns into d = x - v_new and, when formed, the old v into
            # v_new - v; neither is read again in its old form.
            d = np.subtract(x, v_new, out=x)
            u += np.multiply(d, eta, out=tmp)
            split_max = _max_abs(d)
            rebalance = it % 10 == 9
            if split_max <= tol or rebalance:
                dv = np.subtract(v_new, v, out=v)
                if max(split_max, eta * _max_abs(dv)) <= tol:
                    return v_new
            v, v_new = v_new, v
            if rebalance:
                split_res = float(np.linalg.norm(d))
                drift_res = eta * float(np.linalg.norm(dv))
                if split_res > 10.0 * drift_res:
                    eta *= 2.0
                    inv_denom = _inverse_denominator(spectrum, rho, eta)
                elif drift_res > 10.0 * split_res:
                    eta *= 0.5
                    inv_denom = _inverse_denominator(spectrum, rho, eta)
        return v

    return update


def _conv_kernel_updater():
    """Proximally damped update for a small kernel convolved with a fixed
    signal.

    The normal matrix of A -> conv(A, X) has entries given by the circular
    autocorrelation of X, so it is assembled from one Fourier transform and
    solved densely.  The solve carries a proximal term anchored at the
    current kernel, the collapsed form of coupling the kernel to an inert
    copy block (see add_prox_constraint): stationary points are unchanged,
    the system stays positive definite even while the signal is zero, and
    the kernel cannot take unbounded rescaling jumps.  Without the damping,
    alternating exact steps drift the kernel scale up without limit to pay
    down the signal's sparsity cost.
    """

    # Flat index into the autocorrelation of each entry of the normal
    # matrix, built once per (kernel shape, signal shape).
    gathers = {}

    def update(problem, block, assignment, multipliers, rho):
        form = freeze(problem.system, block, assignment)
        piece = form.pieces[0] if len(form.pieces) == 1 else None
        if not isinstance(piece, _ConvKernelPiece):
            raise BuildError("kernel block must appear exactly once, in a "
                             "convolution")
        signal = np.asarray(piece.signal, dtype=float)
        _, target_hat = form.conv_target(piece, multipliers, rho)
        p, q = block.shape
        n1, n2 = signal.shape
        sig_hat = _spectrum(signal, signal.shape)
        # |sig_hat|^2 built in the real part of one complex array, as the
        # square of abs and its cast to complex would give it.
        power = np.zeros(sig_hat.shape, complex)
        np.square(np.abs(sig_hat, out=power.real), out=power.real)
        autocorr = _irfft2(power, (n1, n2))
        index = gathers.get((p, q, n1, n2))
        if index is None:
            # Entry ((i, j), (k, l)) reads autocorr[(i - k) % n1, (j - l) % n2].
            d1 = (np.arange(p)[:, None] - np.arange(p)[None, :]) % n1
            d2 = (np.arange(q)[:, None] - np.arange(q)[None, :]) % n2
            index = gathers[(p, q, n1, n2)] = (
                d1[:, None, :, None] * n2 + d2[None, :, None, :]).reshape(p * q, p * q)
        normal = np.take(autocorr, index)
        rhs = np.ravel(_conv_adjoint_kernel(signal, target_hat, (p, q)))
        current = np.ravel(assignment[block])
        gap = rhs - normal @ current
        normal.flat[:: p * q + 1] += _KERNEL_PROX_WEIGHT
        delta = np.linalg.solve(normal, gap)
        return (current + delta).reshape(p, q)

    return update


def _sbd_instance(Y, kernel_shape, mu, l1_weight, with_shadow: bool) -> ZooInstance:
    Y = np.asarray(Y, dtype=float)
    n1, n2 = Y.shape
    p, q = kernel_shape
    if p > n1 or q > n2:
        raise BuildError(f"kernel {kernel_shape} larger than the signal {Y.shape}")
    A = BlockId("A", "x", (p, q), index=0)
    X = BlockId("X", "x", (n1, n2), index=1)
    b = BlockId("b", "x", (1, 1), index=2)
    terms = [Conv2D(A, X), LinearTerm(BroadcastOnes((n1, n2)), b),
             Constant(Y, sign=-1)]
    objective = {X: [L1(l1_weight)]}
    if with_shadow:
        Z = BlockId("Z", "z1", (n1, n2))
        terms.insert(2, LinearTerm(_ident((n1, n2)), Z, sign=-1))
        objective[Z] = [Quadratic(mu)]
        metadata = {"m1": mu, "M1": mu, "M2": 0.0, "M_F": 0.0}
        name = "sbd1"
    else:
        # No block spans the constraint image: multipliers can escape.
        metadata = {}
        name = "sbd0"
    system = MultiaffineSystem()
    system.add_equation(terms)
    problem = Problem(system, objective,
                      custom_updaters={"X": _sparse_conv_updater(l1_weight),
                                       "A": _conv_kernel_updater()},
                      metadata=metadata)
    delta = np.zeros((p, q))
    delta[0, 0] = 1.0
    init = {"A": delta, "X": np.zeros((n1, n2)),
            "b": np.array([[float(np.mean(Y))]])}
    if with_shadow:
        init["Z"] = np.zeros((n1, n2))
    return ZooInstance(name, problem,
                       data={"Y": Y, "kernel_shape": (p, q)}, init=init)


def sbd1(Y, kernel_shape, mu: float = 500.0, l1_weight: float = 1.0) -> ZooInstance:
    """Blind deconvolution of Y into a small kernel, a sparse signal, and a
    bias, with a shadow block absorbing what the model cannot represent.

    min  ||X||_1 + mu/2 ||Z||^2
    s.t. A (*) X + b 1 - Z = Y     ((*) is circular 2-D convolution).
    """
    return _sbd_instance(Y, kernel_shape, mu, l1_weight, with_shadow=True)


def sbd0(Y, kernel_shape, l1_weight: float = 1.0) -> ZooInstance:
    """sbd1 without the shadow block: A (*) X + b 1 = Y must hold exactly.

    No block spans the constraint image, so with data the model cannot
    represent the multipliers lose every anchor the theory provides; the
    structure checker rejects this variant, and it exists to demonstrate
    that rejection.
    """
    return _sbd_instance(Y, kernel_shape, 0.0, l1_weight, with_shadow=False)


def gen_sbd_data(n: int, kernel_shape, theta: float = 0.05,
                 sigma: float = 0.0, bias: float = 0.0, seed: int = 0):
    """(Y, A0, X0, b0): unit-norm kernel, Bernoulli-Gaussian signal, bias,
    and Gaussian noise at level sigma.  Raises BuildError, before any draw,
    unless each kernel side lies in 1..n."""
    p, q = kernel_shape
    if not (1 <= p <= n and 1 <= q <= n):
        raise BuildError(f"kernel shape {(p, q)} does not fit the signal shape "
                         f"{(n, n)}: each kernel side must lie in 1..{n}")
    rng = np.random.default_rng(seed)
    A0 = rng.standard_normal((p, q))
    A0 = A0 / np.linalg.norm(A0)
    X0 = (rng.uniform(size=(n, n)) < theta) * rng.standard_normal((n, n))
    Y = circ_conv2(A0, X0) + bias
    if sigma > 0.0:
        Y = Y + sigma * rng.standard_normal((n, n))
    return Y, A0, X0, np.array([[float(bias)]])


# ---------------------------------------------------------------------------
# Default instances at desk scale.

# Desk sizes of the generated families, keyed by the command line's parameter
# names.  The command line's sbd default is 64 with kernel 16, not the entry
# here.
DEFAULT_SIZES = {"nmf3": {"rows": 20, "cols": 20, "rank": 3},
                 "dl3": {"rows": 50, "cols": 50, "rank": 10},
                 "rp2": {"size": 6},
                 "rpca2": {"rows": 20, "cols": 16, "rank": 3},
                 "sbd": {"size": 32, "kernel": 8}}
_NAMES = ("dl3", "mc1", "nmf3", "rp2", "rpca2", "rpca2_raw", "sbd0", "sbd1")


def _build(name, seed, params=None, data=None) -> ZooInstance:
    """The instance of family ``name``: the one builder behind
    :func:`default_instance` and ``cli.build_instance``.  Its data is
    ``data`` when given, else the family generator's at ``seed``, whose
    planted truth it then carries.  ``params`` overrides, under the command
    line's keys, the sizes of DEFAULT_SIZES and the family's default
    weights; a weight it does not set keeps the default of the builder's
    or generator's signature."""
    if name not in _NAMES:
        raise BuildError(
            f"unknown zoo problem {name!r}; choose from {zoo_names()}")
    family = {"rpca2_raw": "rpca2", "sbd1": "sbd", "sbd0": "sbd"}.get(name, name)
    p = {**DEFAULT_SIZES.get(family, {}), **(params or {})}

    def geti(key):
        return int(p[key])

    def given(**keys):
        """Keyword -> float(p[key]) for each keyword whose key p sets."""
        return {kw: float(p[key]) for kw, key in keys.items() if key in p}

    truth = {}
    if family == "nmf3":
        rank = geti("rank")
        if data is None:
            data, X0, Y0 = gen_nmf_data(geti("rows"), geti("cols"), rank, seed=seed)
            truth = {"X": X0, "Y": Y0}
        inst = nmf3(data, rank, **given(mu="mu"))
    elif family == "dl3":
        rank = geti("rank")
        if data is None:
            data, D0, C0 = gen_dl_data(geti("rows"), geti("cols"), rank,
                                       **given(density="density"), seed=seed)
            truth = {"D": D0, "C": C0}
        inst = dl3(data, rank, **given(mu_fit="mu", mu_dict="mu", mu_code="mu",
                                       l1_weight="l1"))
    elif family == "rp2":
        if data is None:
            cov, lo, hi = gen_rp_data(geti("size"), seed=seed)
        else:
            cov = data
            lo = np.zeros((cov.shape[0], 1))
            hi = np.full((cov.shape[0], 1), 0.5)
        inst = rp2(cov, lo, hi, **given(mu="mu"))
    elif family == "mc1":
        inst = mc1(triangle_graph() if data is None else data,
                   **given(mu_diag="mu", mu_tie="mu"))
    elif family == "rpca2":
        rank = geti("rank")
        if data is None:
            data, L0, S0 = gen_rpca_data(geti("rows"), geti("cols"), rank, seed=seed)
            truth = {"L": L0, "S": S0}
        inst = rpca2(data, rank, variant="raw" if name == "rpca2_raw" else "slack",
                     **given(lam="l1", mu="mu"))
    else:
        ks = geti("kernel")
        if data is None:
            data, A0, X0, b0 = gen_sbd_data(geti("size"), (ks, ks),
                                            **given(theta="theta", sigma="sigma"),
                                            bias=0.1, seed=seed)
            truth = {"A": A0, "X": X0, "b": b0}
        if name == "sbd1":
            inst = sbd1(data, (ks, ks), **given(mu="mu", l1_weight="l1"))
        else:
            inst = sbd0(data, (ks, ks), **given(l1_weight="l1"))
    inst.truth.update(truth)
    return inst


def zoo_names():
    return sorted(_NAMES)


def default_instance(name: str, seed: int = 0) -> ZooInstance:
    """Canonical desk-scale instance of a family, with planted truth where
    the family has one."""
    return _build(name, seed)
