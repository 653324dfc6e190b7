"""Runtime verification for the block solver.

Three kinds of tooling live here.  ``assert_iteration`` replays the algebraic
identities that every correct iteration must satisfy (exact dual-step
bookkeeping, the multiplier-step bound, monotone descent under a certified
penalty) and returns the violations instead of trusting the solver's own
arithmetic.  ``check_assumptions`` probes a built problem for the structural
requirements the convergence guarantees rest on, reporting pass, fail, or
unverifiable per requirement.  ``run_counterexample`` reproduces the
two-variable bilinear program whose multipliers run away, the standard
demonstration that the guarantees need those requirements.

The checks share structure with the solver: the Problem's slack maps and
their spectra, and its curvature constants as ``solver._curvature`` reads
them.  They never share an iterate accumulator: each identity is recomputed
from the states through the public evaluation entry points, so these checks
catch bookkeeping bugs rather than inheriting them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prox import Quadratic, _SolvePlan, conjugate_gradients
from .solver import (Problem, SolverState, Violation, _al, _curvature,
                     _fail_on, _gram_eigenvalues, _stationarity)
from .system import evaluate, freeze, jacobian_image_basis, stack_residual


@dataclass
class StationarityEstimate:
    """First-order residual per block and its maximum."""

    per_block: dict
    aggregate: float


def stationarity(problem: Problem, state: SolverState) -> StationarityEstimate:
    """Measure how far a state is from a constrained stationary point.

    Smooth blocks report the gradient norm of the full Lagrangian; blocks
    with a separable nonsmooth term report the distance from the negative
    smooth gradient to the subdifferential.  Constraint violations are not
    included; read those from the residual.
    """
    parts, aggregate = _stationarity(problem, state.assignment,
                                     state.multipliers)
    return StationarityEstimate(parts, aggregate)


def _sq(arrays) -> float:
    return float(sum(np.sum(a * a) for a in arrays))


def _least_squares_residual(form, target: np.ndarray, maxit: int = 500) -> float:
    """Distance from target to the image of a frozen linear form.

    Within the dense solve bounds (see ``prox``) the form's stacked map is
    built from its pieces' dense blocks and solved by ``lstsq``.  Larger
    forms run conjugate gradients on the normal equations A^T A x =
    A^T target from zero, stopped once ||A^T (target - A x)||^2 <= 1e-20 (1 +
    ||A^T target||^2) or after ``maxit`` steps; a target in the image then
    comes back within that bound's square root over A's smallest nonzero
    singular value.
    """
    plan = _SolvePlan(form)
    if plan.densify_ok:
        parts = form.split_dual(target)
        entered = np.concatenate([np.ravel(parts[e]) for e in form.by_eq])
        x, *_ = np.linalg.lstsq(plan.dense_map(form), entered, rcond=None)
    else:
        rhs = form.adjoint_vec(target)
        tol_abs = float(np.sqrt(1e-20 * (1.0 + float(rhs @ rhs))))
        x, _, _ = conjugate_gradients(lambda v: form.adjoint_vec(form.apply_vec(v)),
                                      rhs, np.zeros(form.in_dim), tol_abs, maxit)
    return float(np.linalg.norm(target - form.apply_vec(x)))


def assert_iteration(problem: Problem, state: SolverState,
                     state_new: SolverState, level: str = "basic",
                     rho_certified: bool = False):
    """Re-derive the identities one iteration must satisfy.

    ``state`` and ``state_new`` bracket the iteration.  Checks that
    need declared curvature constants (m1, M1, M2; see ``Problem``) or
    slack blocks are skipped when those are absent.  Returns the violations
    found; at level "strict" a nonempty result raises AssertionError
    instead, and the image-membership check of the multiplier step (which
    needs an iterative solve) is added.
    """
    if level not in ("basic", "strict"):
        raise ValueError(f"unknown level {level!r}; use 'basic' or 'strict'")
    maps = problem._slack_maps()
    rho = state_new.rho
    violations = []

    residuals = evaluate(problem.system, state_new.assignment)
    penalty = rho * _sq(residuals)
    dual_sq = _sq([state_new.multipliers[e] - state.multipliers[e]
                   for e in state.multipliers]) / rho
    tol = 1e-12 * max(1.0, penalty, dual_sq)
    if abs(penalty - dual_sq) > tol:
        violations.append(Violation(
            "dual_step_identity", abs(penalty - dual_sq), tol,
            "rho * ||C||^2 and ||dW||^2 / rho disagree"))

    l_new = _al(problem, state_new.assignment, state_new.multipliers, rho)
    # L at the new assignment and the old multipliers: also L after the z
    # update in the z_decrease check below.
    l_mid = _al(problem, state_new.assignment, state.multipliers, rho)
    if np.isfinite(l_new) and np.isfinite(l_mid):
        tol = 1e-9 * (1.0 + abs(l_new))
        gap = abs((l_new - l_mid) - penalty)
        if gap > tol:
            violations.append(Violation(
                "dual_ascent_value", gap, tol,
                "multiplier step changed the Lagrangian by a value other "
                "than rho * ||C||^2"))

    m1, M1, M2, _, _ = _curvature(problem)
    z1 = problem.system.blocks_with_role("z1")
    z2 = problem.system.blocks_with_role("z2")
    # The step bound needs slack optimality at both ends of the transition,
    # so the first step away from an arbitrary init is exempt.
    have_bound = ((not z1 or (M1 is not None and maps.lambda_pp))
                  and (not z2 or (M2 is not None and maps.sigma))
                  and (z1 or z2) and state.k >= 1)
    dz1 = _sq([state_new.assignment[b] - state.assignment[b] for b in z1])
    dz2 = _sq([state_new.assignment[b] - state.assignment[b] for b in z2])
    if have_bound:
        dw = dual_sq * rho
        bound = 0.0
        if z1:
            bound += M1 ** 2 / maps.lambda_pp * dz1
        if z2:
            bound += M2 ** 2 / maps.sigma * dz2
        slack = 1e-8 * (1.0 + dw)
        if dw > bound + slack:
            violations.append(Violation(
                "multiplier_bound", dw - bound, slack,
                "||dW||^2 exceeds the curvature bound from the slack steps"))

    if rho_certified and state.k >= 1:
        l_old = _al(problem, state.assignment, state.multipliers, rho)
        if np.isfinite(l_old) and np.isfinite(l_new):
            tol = 1e-8 * (1.0 + abs(l_old))
            if l_new > l_old + tol:
                violations.append(Violation(
                    "monotone_decrease", l_new - l_old, tol,
                    "Lagrangian increased under a certified penalty"))

    if (m1 is not None and (z1 or z2)
            and (not z2 or (M2 is not None and maps.sigma))):
        hybrid = dict(state_new.assignment)
        for b in z1 + z2:
            hybrid[b] = state.assignment[b]
        l_before_z = _al(problem, hybrid, state.multipliers, rho)
        if np.isfinite(l_before_z) and np.isfinite(l_mid):
            required = 0.5 * m1 * dz1
            if z2:
                required += 0.5 * (rho * maps.sigma - M2) * dz2
            slack = 1e-8 * (1.0 + abs(l_before_z))
            drop = l_before_z - l_mid
            if drop < required - slack:
                violations.append(Violation(
                    "z_decrease", required - drop, slack,
                    "joint slack update decreased the Lagrangian by less "
                    "than its curvature guarantees"))

    if level == "strict" and maps.z is not None:
        dual_step = stack_residual([state_new.multipliers[e] - state.multipliers[e]
                                    for e in sorted(state.multipliers)])
        norm = float(np.linalg.norm(dual_step))
        if norm > 0.0:
            resid = _least_squares_residual(maps.z, dual_step)
            tol = 1e-8 * (1.0 + norm)
            if resid > tol:
                violations.append(Violation(
                    "multiplier_image", resid, tol,
                    "multiplier step left the image of the slack maps"))

    if level == "strict":
        _fail_on(violations)
    return violations


@dataclass
class AssumptionReport:
    """Outcome of the structural checks, one (name, status, detail) per
    requirement; status is "pass", "fail", or "unverifiable"."""

    checks: list

    @property
    def overall(self) -> str:
        return "fail" if any(s == "fail" for _, s, _ in self.checks) else "pass"

    def failures(self):
        return [(n, d) for n, s, d in self.checks if s == "fail"]

    def as_dict(self) -> dict:
        return {"overall": self.overall,
                "checks": [{"name": n, "status": s, "detail": d}
                           for n, s, d in self.checks]}


def check_assumptions(problem: Problem, samples: int = 20,
                      seed: int = 0) -> AssumptionReport:
    """Probe a problem for the structure the convergence theory requires.

    Checks, in order: the sampled constraint image is spanned by the slack
    maps; the pure-slack map is injective; every final-position block is
    smooth with strongly convex evidence; declared final-position
    coefficient maps are injective at random points; coercivity (always
    unverifiable by sampling).  Failing the first three is what separates
    formulations that need slack blocks from those already in solvable
    shape.
    """
    maps = problem._slack_maps()
    system = problem.system
    rng = np.random.default_rng(seed)
    checks = []
    m1, _, _, _, declared = _curvature(problem)

    base = {b: rng.standard_normal(b.shape) for b in problem.all_blocks}
    cols = jacobian_image_basis(system, base, samples=samples, seed=seed)
    if maps.z is not None:
        worst = 0.0
        for j in range(cols.shape[1]):
            col = cols[:, j]
            norm = float(np.linalg.norm(col))
            resid = _least_squares_residual(maps.z, col)
            worst = max(worst, resid / (1.0 + norm))
        if worst <= 1e-8:
            checks.append(("image_containment", "pass",
                           f"sampled constraint values resolved by the slack "
                           f"maps (worst relative residual {worst:.2e})"))
        else:
            checks.append(("image_containment", "fail",
                           f"slack maps miss sampled constraint directions "
                           f"(relative residual {worst:.2e}); add slack "
                           "blocks to span the image"))
    else:
        worst = max(float(np.linalg.norm(cols[:, j]))
                    for j in range(cols.shape[1]))
        if worst <= 1e-10:
            checks.append(("image_containment", "pass",
                           "constraints vanish identically without slack "
                           "blocks"))
        else:
            checks.append(("image_containment", "fail",
                           "no slack block spans the constraint image; "
                           "multipliers can run away on infeasible data"))

    z2 = problem.system.blocks_with_role("z2")
    if not z2:
        checks.append(("slack_injectivity", "pass",
                       "no pure-slack blocks; requirement is vacuous"))
    elif maps.sigma:
        checks.append(("slack_injectivity", "pass",
                       f"smallest eigenvalue {maps.sigma:.3e}"))
    else:
        checks.append(("slack_injectivity", "fail",
                       "pure-slack coefficient map is not injective"))

    z1 = problem.system.blocks_with_role("z1")
    bad = next(((b.name, "carries a nonsmooth term") for b in z1 + z2
                if problem.nonsmooth_term(b) is not None), None)
    if bad is None and (m1 is None or not m1 > 0.0):
        bad = next(((b.name, "has no strongly convex smooth term and no "
                             "declared curvature") for b in z1
                    if not any(isinstance(t, Quadratic)
                               and (t.identity_curvature or 0.0) > 0.0
                               for t in problem.terms_for(b))), None)
    if bad is None:
        checks.append(("final_block_structure", "pass",
                       "final-position blocks are smooth with curvature "
                       "evidence"))
    else:
        checks.append(("final_block_structure", "fail",
                       f"final-position block {bad[0]!r} {bad[1]}; move the "
                       "term onto a swept block and couple through a slack"))

    if not declared:
        checks.append(("final_block_injectivity", "unverifiable",
                       "no final-position coefficient maps declared"))
    else:
        def loses_rank(name):  # at one of three points, drawn in turn
            points = ({b: rng.standard_normal(b.shape) for b in problem.all_blocks}
                      for _ in range(3))
            return any(np.min(_gram_eigenvalues(freeze(system, system.blocks[name], p)))
                       <= 1e-10 for p in points)

        worst_name = next((name for name, _ in declared if loses_rank(name)), None)
        if worst_name:
            checks.append(("final_block_injectivity", "fail",
                           f"coefficient map of {worst_name!r} lost rank at "
                           "a sampled point"))
        else:
            checks.append(("final_block_injectivity", "pass",
                           "declared coefficient maps kept rank at sampled "
                           "points"))

    checks.append(("coercivity", "unverifiable",
                   "cannot be decided by sampling; verify for your "
                   "objective"))
    return AssumptionReport(checks)


def run_counterexample(x0: float, w0: float, rho: float, iters: int,
                       y0: float = 0.0):
    """Iterate the two-variable escape demo and record (x, y, w).

    The program min x^2 + y^2 subject to x * y = 1 admits no multiplier
    that certifies a solution, and the alternating scheme started at
    (x, y) = (1, 0) collapses to the origin while the multiplier walks off
    linearly: w at step k equals -k * rho exactly.  Started at (1, 1) with
    w = -2 and rho = 1 it sits at a fixed point instead.  Returns the
    trajectory as a list of (x, y, w), entry k per iteration, including the
    starting point.
    """
    if iters < 0:
        raise ValueError("iters must be nonnegative")
    x, y, w = float(x0), float(y0), float(w0)
    points = [(x, y, w)]
    for _ in range(iters):
        x = (rho - w) * y / (2.0 + rho * y * y)
        y = (rho - w) * x / (2.0 + rho * x * x)
        w = w + rho * (x * y - 1.0)
        points.append((x, y, w))
    return points
