"""Measurement core of the benchmark: groups, correctness gate, metrics.

A run solves one group of jobs after another, each group from fresh inputs,
until its time budget is spent.  Every group is set up and solved once, so
set-up and solve times are sampled once per group and the quality figures
average over independent inputs.

With tracing off the run reports the end-to-end metrics.  With tracing on
it installs the layer wrappers and reports the per-layer metrics of the
traced groups.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import layers
import madmm
import workloads

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "iters": "count", "step_ms_p50": "ms",
    "step_ms_tail": "ms", "peak_rss_mb": "MB", "final_primal_res": "norm",
    "final_stat_est": "norm", "pass_share": "ratio",
}

# Percentile of the step times reported as step_ms_tail: the highest with at
# least ten samples beyond it per problem kind in ``min_groups`` groups, the
# fewest any run solves (sbd-256: 34 jobs of 6 steps, 204 steps).
TAIL_PCT = 95.0


@dataclass
class JobResult:
    """Outcome of one set-up and solve of one job."""

    label: str
    setup_s: float = 0.0
    rho_select_s: float = 0.0
    rho_probe_steps: int = 0
    solve_s: float = 0.0
    status: str = ""
    steps: int = 0
    L: float = math.nan
    primal_res: float = math.nan
    stat_est: float = math.nan
    wall_ms: list = field(default_factory=list)
    # Factor that scales this job's times to the calibrated host speed.
    scale: float = 1.0
    al_ms: float = 0.0
    stationarity_ms: float = 0.0
    errors: list = field(default_factory=list)

    def outcome(self):
        """What is compared with the references."""
        return [self.label, self.status, self.steps, self.L, self.primal_res]


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _primal_norm(problem, assignment) -> float:
    return float(np.linalg.norm(madmm.stack_residual(
        madmm.evaluate(problem.system, assignment))))


def check_solve(job, problem, state, traces, status) -> list:
    """Independent checks of one finished solve; returns what failed."""
    errors = []
    if status != job.expect:
        errors.append(f"status {status}, expected {job.expect}")
    if not traces:
        return errors + ["no iterations ran"]
    last = traces[-1]
    L = madmm.augmented_lagrangian(problem, state)
    primal = _primal_norm(problem, state.assignment)
    if not _close(L, last.L, 1e-9):
        errors.append(f"recomputed L {L!r} differs from traced {last.L!r}")
    if not _close(primal, last.primal_res, 1e-9):
        errors.append(f"recomputed primal residual {primal!r} differs from "
                      f"traced {last.primal_res!r}")
    if job.tol > 0.0:
        zeros = {b: np.zeros(b.shape) for b in state.assignment}
        limit = job.tol * (1.0 + _primal_norm(problem, zeros))
        if status == job.expect and not primal <= limit:
            errors.append(f"primal residual {primal:.3e} above the "
                          f"tolerance {limit:.3e}")
    elif not primal < traces[0].primal_res:
        errors.append("primal residual did not fall over the run")
    return errors


def run_job(job, tracer=None) -> JobResult:
    """Set up and solve one job; never raises for a library failure."""
    res = JobResult(job.label)
    try:
        if tracer:
            tracer.use("setup")
            probes_before = tracer.bucket["solver.step"].calls
        t0 = time.perf_counter()
        inst = job.build()
        if tracer:
            tracer.wrap_custom_updaters(inst.problem)
        init = inst.init or None
        t1 = time.perf_counter()
        state0, _, _ = madmm.solve(inst.problem, max_iter=0, seed=job.seed,
                                   init=init)
        t2 = time.perf_counter()
        res.setup_s, res.rho_select_s = t2 - t0, t2 - t1
        if tracer:
            res.rho_probe_steps = (tracer.bucket["solver.step"].calls
                                   - probes_before)
            tracer.use("solve")
        t0 = time.perf_counter()
        state, traces, status = madmm.solve(
            inst.problem, rho=state0.rho, seed=job.seed, init=init,
            max_iter=job.max_iter, tol_primal=job.tol, tol_step=job.tol)
        res.solve_s = time.perf_counter() - t0
        if tracer:
            tracer.use("final")
        res.status, res.steps = status, len(traces)
        res.wall_ms = [t.wall_ms for t in traces]
        if traces:
            res.L = traces[-1].L
            res.primal_res = traces[-1].primal_res
            res.stat_est = traces[-1].stat_est
        res.errors = check_solve(job, inst.problem, state, traces, status)
        if tracer:
            t0 = time.perf_counter()
            madmm.stationarity(inst.problem, state)
            res.stationarity_ms = (time.perf_counter() - t0) * 1e3
            t0 = time.perf_counter()
            madmm.augmented_lagrangian(inst.problem, state)
            res.al_ms = (time.perf_counter() - t0) * 1e3
    except Exception:  # noqa: BLE001 - one failed solve must not end the run
        res.errors.append(traceback.format_exc(limit=3).strip())
    return res


def measure(workload, seed: int, seconds: float, workdir: str,
            trace: bool = False) -> dict:
    """Solve groups 0, 1, 2, ... of the workload until ``seconds`` are spent.

    Group 0 is solved once first, untimed, so that lazy imports and caches
    are filled.  At least ``min_groups`` groups run; another starts only
    when one more of the same length as the last still fits.  Untraced, the
    workload's calibration kernel is timed before the first job and after
    each one, and sets each job's ``scale``.  A traced run solves exactly
    ``min_groups`` groups and then group 0 untraced again, the baseline of
    the tracing overhead.
    """
    def group(g):
        return workload.group(workloads.instance_seed(seed, g), workdir)

    start = time.perf_counter()
    for job in group(0):
        run_job(job)
    tracer = None
    if trace:
        tracer = layers.Tracer()
        tracer.install()
    calibration = None if trace else workload.calibration
    if calibration:
        calibration.kernel()   # warm-up: first-call costs are not host speed
        calibration_ms = [calibration.time_ms()]
    groups = []
    try:
        while True:
            t0 = time.perf_counter()
            results = []
            for job in group(len(groups)):
                results.append(run_job(job, tracer))
                if calibration:
                    calibration_ms.append(calibration.time_ms())
            groups.append(results)
            now = time.perf_counter()
            if len(groups) >= workload.min_groups and (
                    trace or now - start + (now - t0) > seconds):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    if calibration:
        jobs = [r for results in groups for r in results]
        for res, scale in zip(jobs, calibration.scales(calibration_ms)):
            res.scale = scale
    baseline = [run_job(job) for job in group(0)] if trace else None
    return {"groups": groups, "baseline": baseline, "tracer": tracer}


# ---------------------------------------------------------------------------
# Correctness gate.

def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def reference_errors(expected, got) -> list:
    """Compare one job's outcome with its reference.

    Fixed-step runs must match closely; a run to tolerance may stop a step
    or two apart when a different BLAS kernel rounds differently.
    """
    label, status, steps, L, primal = expected
    if got[0] != label:
        return [f"reference is for {label}, ran {got[0]}"]
    errors = []
    if got[1] != status:
        errors.append(f"{label}: status {got[1]}, reference {status}")
    if got[2] != steps and abs(got[2] - steps) > max(2, 0.01 * steps):
        errors.append(f"{label}: {got[2]} steps, reference {steps}")
    if not _close(got[3], L, 1e-6):
        errors.append(f"{label}: final L {got[3]!r}, reference {L!r}")
    if got[2] == steps and not _close(got[4], primal, 1e-3):
        errors.append(f"{label}: primal residual {got[4]!r}, "
                      f"reference {primal!r}")
    return errors


def gate(workload_name: str, seed: int, groups: list, references) -> tuple:
    """(attempted, failed, messages) over every solve of the run."""
    recorded = references.get(workload_name, {}).get(str(seed), [])
    attempted = failed = 0
    messages = []
    for g, group in enumerate(groups):
        expected = recorded[g] if g < len(recorded) else None
        for i, res in enumerate(group):
            attempted += 1
            errors = [f"{res.label}: {e}" for e in res.errors]
            if expected is not None:
                errors += reference_errors(expected[i], res.outcome())
            if errors:
                failed += 1
                messages += errors
    return attempted, failed, messages


# ---------------------------------------------------------------------------
# Metrics.

def _geomean(values) -> float:
    """Geometric mean of the positive finite values (a failed solve's NaN
    is left out; the gate already counts it)."""
    logs = [math.log(v) for v in values if 0.0 < v < math.inf]
    return math.exp(statistics.fmean(logs)) if logs else math.nan


def _kind_median(jobs: list, attr: str) -> float:
    by_kind = {}
    for r in jobs:
        by_kind.setdefault(r.label, []).append(getattr(r, attr))
    return _geomean(statistics.median(v) for v in by_kind.values())


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def step_ms(groups: list, pct: float, scaled: bool = True) -> float:
    """Percentile ``pct`` of the steps' wall times per problem kind,
    averaged geometrically over the kinds."""
    by_kind = {}
    for group in groups:
        for r in group:
            scale = r.scale if scaled else 1.0
            by_kind.setdefault(r.label, []).extend(ms * scale
                                                   for ms in r.wall_ms)
    return _geomean(float(np.percentile(v, pct))
                    for v in by_kind.values() if v)


def end_to_end(groups: list, attempted: int, failed: int) -> dict:
    """Times are scaled to the calibrated host speed job by job.
    Set-up, solve time and steps are summed over a group's jobs; set-up is
    the median over groups, solve time and steps the mean.  Step-time
    percentiles are taken per problem kind and averaged geometrically over
    the kinds, so the mix of steps an input draws does not move them.
    Quality is the median over each kind's solves, averaged geometrically
    over the kinds: after 100 steps the residual of desk ``nmf3`` spans
    orders of magnitude from input to input, which a mean would follow.
    """
    jobs = [r for group in groups for r in group if r.steps]
    if not jobs:
        return {}
    values = {
        "setup_s": statistics.median(sum(r.scale * r.setup_s for r in group)
                                     for group in groups),
        "solve_s": statistics.fmean(sum(r.scale * r.solve_s for r in group)
                                    for group in groups),
        "iters": statistics.fmean(sum(r.steps for r in group)
                                  for group in groups),
        "step_ms_p50": step_ms(groups, 50.0),
        "step_ms_tail": step_ms(groups, TAIL_PCT),
        "peak_rss_mb": peak_rss_mb(),
        "final_primal_res": _kind_median(jobs, "primal_res"),
        "final_stat_est": _kind_median(jobs, "stat_est"),
        "pass_share": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


PER_LAYER_UNITS = {
    "system.freeze.calls": "calls/step", "system.freeze.ms": "ms/step",
    "system.evaluate.calls": "calls/step", "system.evaluate.ms": "ms/step",
    "system.term_evals": "calls/step", "system.circ_conv2.calls": "calls/step",
    "numpy.fft.calls": "calls/step", "numpy.fft.ms": "ms/step",
    "prox.quad_block_solve.calls": "calls/step",
    "prox.quad_block_solve.ms": "ms/step",
    "prox.prox_map.calls": "calls/step", "prox.prox_map.ms": "ms/step",
    "prox.term_value.calls": "calls/step",
    "prox.term_grad.calls": "calls/step",
    "solver.step.self_ms": "ms/step", "solver.rho_select.ms": "ms/solve",
    "solver.rho_probe_steps": "steps/solve",
    "solver.augmented_lagrangian.ms": "ms/call",
    "diagnostics.stationarity.ms": "ms/call",
    "zoo.build.ms": "ms/instance", "zoo.custom_update.X.ms": "ms/step",
    "zoo.custom_update.A.ms": "ms/step", "trace.overhead_pct": "%",
}


def per_layer(groups: list, baseline: list, tracer) -> dict:
    """Counts and times per solve step from the traced solves; the set-up
    and final-state figures per solve, call or instance."""
    jobs = [r for group in groups for r in group]
    steps = sum(r.steps for r in jobs)
    solve = tracer.buckets["solve"]
    setup = tracer.buckets["setup"]

    def per_step(layer, attr):
        if layer in tracer.missing:
            return None
        value = getattr(solve[layer], attr)
        return value / steps if attr == "calls" else value * 1e3 / steps

    untraced = [ms for r in baseline for ms in r.wall_ms]
    traced = [ms for r in groups[0] for ms in r.wall_ms]
    values = {
        "system.freeze.calls": per_step("system.freeze", "calls"),
        "system.freeze.ms": per_step("system.freeze", "total"),
        "system.evaluate.calls": per_step("system.evaluate", "calls"),
        "system.evaluate.ms": per_step("system.evaluate", "total"),
        "system.term_evals": per_step("system.term_evals", "calls"),
        "system.circ_conv2.calls": per_step("system.circ_conv2", "calls"),
        "numpy.fft.calls": per_step("numpy.fft", "calls"),
        "numpy.fft.ms": per_step("numpy.fft", "total"),
        "prox.quad_block_solve.calls": per_step("prox.quad_block_solve",
                                                "calls"),
        "prox.quad_block_solve.ms": per_step("prox.quad_block_solve", "total"),
        "prox.prox_map.calls": per_step("prox.prox_map", "calls"),
        "prox.prox_map.ms": per_step("prox.prox_map", "total"),
        "prox.term_value.calls": per_step("prox.term_value", "calls"),
        "prox.term_grad.calls": per_step("prox.term_grad", "calls"),
        "solver.step.self_ms": per_step("solver.step", "self_time"),
        "solver.rho_select.ms": statistics.fmean(r.rho_select_s
                                                 for r in jobs) * 1e3,
        "solver.rho_probe_steps": statistics.fmean(r.rho_probe_steps
                                                   for r in jobs),
        "solver.augmented_lagrangian.ms": statistics.fmean(r.al_ms
                                                           for r in jobs),
        "diagnostics.stationarity.ms": statistics.fmean(r.stationarity_ms
                                                        for r in jobs),
        "zoo.build.ms": (setup["zoo.build"].total * 1e3
                         / max(1, setup["zoo.build"].calls)),
        "zoo.custom_update.X.ms": per_step("zoo.custom_update.X", "total"),
        "zoo.custom_update.A.ms": per_step("zoo.custom_update.A", "total"),
        "trace.overhead_pct": (statistics.median(traced)
                               / statistics.median(untraced) - 1.0) * 100.0,
    }
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
            for k, v in values.items() if v is not None}


def environment() -> dict:
    """What the figures depend on besides the code: versions, threads, CPU."""
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }
