"""Command-line front end: solve, check, bench, and the escape demo.

Runs are described by a RunConfig that round-trips losslessly through JSON,
so a bench or solve can be archived and replayed; command-line flags
override fields loaded from --config.  All file output goes through
write-to-temp plus atomic rename, so no command leaves a partial file on
error.  Exit codes: 0 solved (or check passed), 1 usage or config error,
2 iteration budget exhausted, 3 diverged, 4 assumption check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import diagnostics, matio, zoo
from .errors import BuildError, ShapeMismatchError, SubproblemError
from .solver import (STATUS_CONVERGED, STATUS_DIVERGED, STATUS_MAXITER,
                     solve, step)
from .system import circ_conv2, evaluate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MAXITER = 2
EXIT_DIVERGED = 3
EXIT_CHECK_FAILED = 4

_STATUS_EXIT = {STATUS_CONVERGED: EXIT_OK, STATUS_MAXITER: EXIT_MAXITER,
                STATUS_DIVERGED: EXIT_DIVERGED}

TRACE_HEADER = "k,L,primal_res,dual_step,stat_est,wall_ms"
BENCH_HEADER = "k,objective,primal_res,dual_step,w_norm"

# Family parameters settable from the command line; everything else keeps
# the zoo defaults.
_PARAM_FLAGS = (("rows", int), ("cols", int), ("rank", int), ("size", int),
                ("kernel", int), ("theta", float), ("density", float),
                ("sigma", float), ("mu", float), ("l1", float))
_ASSERT_LEVELS = ("none", "basic", "strict")
# The accepted types of each scalar config field, and how to name them; a
# bool, which Python counts as an int, is refused everywhere.
_INTEGER = ((int,), "an integer")
_NUMBER = ((int, float), "a number")
_STRING_OR_NULL = ((str, type(None)), "a string or null")
_FIELD_TYPES = {"max_iter": _INTEGER, "seed": _INTEGER,
                "tol_primal": _NUMBER, "tol_step": _NUMBER,
                "rho": ((int, float, type(None)), "a number or null"),
                "zoo": _STRING_OR_NULL, "data": _STRING_OR_NULL,
                "trace": _STRING_OR_NULL, "out": _STRING_OR_NULL}


@dataclass
class RunConfig:
    """Everything a solve or check run needs, in archivable form."""

    # Looser than the library defaults: a command-line run should finish on
    # mid-size problems without tolerance tuning.
    zoo: str | None = None
    data: str | None = None
    params: dict = field(default_factory=dict)
    rho: float | None = None
    max_iter: int = 5000
    tol_primal: float = 1e-6
    tol_step: float = 1e-6
    seed: int = 0
    assert_level: str = "none"
    trace: str | None = None
    out: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        for key in raw:
            if key not in known:
                raise ValueError(f"unknown config field {key!r}")
        cfg = cls(**raw)
        for name, (types, what) in _FIELD_TYPES.items():
            value = getattr(cfg, name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(
                    f"config field {name!r} must be {what}, got {value!r}")
        if cfg.params is None:
            cfg.params = {}
        if not isinstance(cfg.params, dict):
            raise ValueError("config field 'params' must be an object")
        kinds = dict(_PARAM_FLAGS)
        for key, value in cfg.params.items():
            if key not in kinds:
                raise ValueError(f"unknown config field 'params.{key}'")
            types, what = _INTEGER if kinds[key] is int else _NUMBER
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"config field 'params.{key}' must be {what}, "
                                 f"got {value!r}")
        if cfg.assert_level not in _ASSERT_LEVELS:
            raise ValueError(
                f"config field 'assert_level' must be one of {_ASSERT_LEVELS}")
        if cfg.max_iter < 0:
            raise ValueError("config field 'max_iter' must be nonnegative")
        return cfg

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls.from_dict(json.loads(text))


def _resolve_config(args) -> RunConfig:
    raw = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    cfg = RunConfig.from_dict(raw)
    for name in ("zoo", "data", "rho", "max_iter", "tol_primal", "tol_step",
                 "seed", "assert_level", "trace", "out"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    for name, _typ in _PARAM_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            cfg.params[name] = value
    return RunConfig.from_dict(cfg.to_dict())


def build_instance(cfg: RunConfig) -> zoo.ZooInstance:
    """Construct the configured zoo instance, honoring size and weight
    overrides and an optional data file."""
    if not cfg.zoo:
        raise ValueError("config field 'zoo' is required")
    data = matio.load_matrix(cfg.data) if cfg.data else None
    params = cfg.params
    if cfg.zoo in ("sbd1", "sbd0"):
        # Not the zoo's sbd sizes: criterion 08 and ``madmm bench`` run at
        # these.
        params = {"size": 64, "kernel": 16, **params}
    return zoo._build(cfg.zoo, cfg.seed, params, data)


def _format_row(values) -> str:
    return ",".join(repr(float(v)) if isinstance(v, float) else str(int(v))
                    for v in values)


def write_trace(path: str, traces) -> None:
    """Trace CSV: the documented header and one row per iteration."""
    lines = [TRACE_HEADER]
    for t in traces:
        lines.append(_format_row((t.k, float(t.L), float(t.primal_res),
                                  float(t.dual_step), float(t.stat_est),
                                  float(t.wall_ms))))
    matio.save_text(path, "\n".join(lines) + "\n")


def _write_state(out_dir: str, inst, state, traces, status) -> None:
    os.makedirs(out_dir, exist_ok=True)
    blocks = {}
    for block, value in state.assignment.items():
        fname = f"{block.name}.bin"
        matio.save_matrix(os.path.join(out_dir, fname), value)
        blocks[block.name] = fname
    mults = {}
    for eq_id, w in sorted(state.multipliers.items()):
        fname = f"multiplier_{eq_id}.bin"
        matio.save_matrix(os.path.join(out_dir, fname), w)
        mults[str(eq_id)] = fname
    meta = {"problem": inst.name, "status": status, "iterations": len(traces),
            "rho": state.rho, "blocks": blocks, "multipliers": mults}
    if traces:
        meta["final_L"] = float(traces[-1].L)
        meta["final_primal_res"] = float(traces[-1].primal_res)
        meta["final_stat_est"] = float(traces[-1].stat_est)
    matio.save_text(os.path.join(out_dir, "state.json"),
                    json.dumps(meta, sort_keys=True, indent=2) + "\n")


def cmd_solve(args) -> int:
    cfg = _resolve_config(args)
    inst = build_instance(cfg)
    state, traces, status = solve(
        inst.problem, rho=cfg.rho, max_iter=cfg.max_iter,
        tol_primal=cfg.tol_primal, tol_step=cfg.tol_step, seed=cfg.seed,
        assert_level=cfg.assert_level, init=inst.init or None)
    if cfg.trace:
        write_trace(cfg.trace, traces)
    if cfg.out:
        _write_state(cfg.out, inst, state, traces, status)
    last = traces[-1] if traces else None
    print(f"problem={inst.name} status={status} iterations={len(traces)} "
          f"rho={state.rho:.6g}"
          + (f" L={last.L:.9e} primal_res={last.primal_res:.3e} "
             f"stat_est={last.stat_est:.3e}" if last else ""))
    return _STATUS_EXIT[status]


def cmd_check(args) -> int:
    cfg = _resolve_config(args)
    inst = build_instance(cfg)
    report = diagnostics.check_assumptions(inst.problem, samples=args.samples,
                                           seed=cfg.seed)
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK if report.overall == "pass" else EXIT_CHECK_FAILED


def cmd_demo_counterexample(args) -> int:
    points = diagnostics.run_counterexample(args.x0, args.w0, args.rho,
                                            args.iters, y0=args.y0)
    print("k,x,y,w")
    # A zero-iteration run has no trajectory to report, not even the start.
    if args.iters > 0:
        for k, (x, y, w) in enumerate(points):
            print(_format_row((k, x, y, w)))
    return EXIT_OK


# Bench defaults; the two formulations share data, penalties, and step size
# so their runs differ only in how the fit enters the constraint.
BENCH_L1 = 1.0
BENCH_MU = 500.0
BENCH_MU_NOISY = 25.0
BENCH_RHO1 = 1.0
BENCH_RHO0 = 1.0


def _fit_objective(named: dict, Y: np.ndarray) -> float:
    """Reported yardstick: a tenth of the signal's l1 mass plus half the
    squared fit residual.  Coefficients are fixed so runs with different
    penalty weights stay comparable."""
    r = circ_conv2(named["A"], named["X"]) + float(named["b"][0, 0]) - Y
    return 0.5 * float(np.sum(r * r)) + 0.1 * float(
        np.sum(np.abs(named["X"])))


def _bench_one(job) -> dict:
    label, inst, rho, iters, Y, path = job
    state, _, _ = solve(inst.problem, rho=rho, max_iter=0, seed=0,
                        init=inst.init)
    named = {b.name: v for b, v in state.assignment.items()}
    res0 = math.sqrt(sum(float(np.sum(r * r)) for r in
                         evaluate(inst.problem.system, state.assignment)))
    rows = [_format_row((0, _fit_objective(named, Y), res0, 0.0, 0.0))]
    w_norms = []
    for k in range(1, iters + 1):
        state, tr = step(inst.problem, state)
        named = {b.name: v for b, v in state.assignment.items()}
        w_sq = sum(float(np.sum(w * w)) for w in state.multipliers.values())
        w_norm = math.sqrt(w_sq)
        w_norms.append(w_norm)
        rows.append(_format_row((k, _fit_objective(named, Y),
                                 float(tr.primal_res), float(tr.dual_step),
                                 w_norm)))
    matio.save_text(path, BENCH_HEADER + "\n" + "\n".join(rows) + "\n")
    burn = iters // 2
    ks = np.arange(burn + 1, iters + 1, dtype=float)
    tail = np.array(w_norms[burn:])
    slope = float(np.polyfit(ks, tail, 1)[0]) if len(tail) > 1 else 0.0
    named = {b.name: v for b, v in state.assignment.items()}
    resid = math.sqrt(sum(float(np.sum(r * r)) for r in
                          evaluate(inst.problem.system, state.assignment)))
    return {"label": label, "trace": os.path.basename(path),
            "final_objective": _fit_objective(named, Y),
            "final_residual": resid,
            "w_norm_slope": slope,
            "w_norm_final": w_norms[-1]}


def cmd_bench(args) -> int:
    if args.iters < 1:
        raise ValueError(f"--iters must be at least 1, got {args.iters}")
    out_dir = args.out_dir
    os.makedirs(out_dir, exist_ok=True)
    n, ks = args.size, args.kernel
    Y0 = zoo.gen_sbd_data(n, (ks, ks), theta=args.theta, bias=0.1,
                          seed=args.seed)[0]
    sigma = 0.05 * float(np.linalg.norm(Y0)) / n
    Yn = zoo.gen_sbd_data(n, (ks, ks), theta=args.theta, sigma=sigma,
                          bias=0.1, seed=args.seed)[0]
    l1 = args.l1 if args.l1 is not None else BENCH_L1
    jobs = []
    for noise, Y in (("noiseless", Y0), ("noisy", Yn)):
        mu = BENCH_MU if noise == "noiseless" else BENCH_MU_NOISY
        jobs.append((f"sbd1_{noise}",
                     zoo.sbd1(Y, (ks, ks), mu=mu, l1_weight=l1),
                     BENCH_RHO1, args.iters, Y,
                     os.path.join(out_dir, f"bench_sbd1_{noise}.csv")))
        jobs.append((f"sbd0_{noise}",
                     zoo.sbd0(Y, (ks, ks), l1_weight=l1),
                     BENCH_RHO0, args.iters, Y,
                     os.path.join(out_dir, f"bench_sbd0_{noise}.csv")))
    results = [_bench_one(j) for j in jobs]
    summary = {"config": {"size": n, "kernel": ks, "iters": args.iters,
                          "seed": args.seed, "theta": args.theta,
                          "sigma": sigma, "l1": l1,
                          "mu_noiseless": BENCH_MU,
                          "mu_noisy": BENCH_MU_NOISY,
                          "rho_sbd1": BENCH_RHO1, "rho_sbd0": BENCH_RHO0},
               "runs": {r["label"]: {k: v for k, v in r.items()
                                     if k != "label"} for r in results}}
    matio.save_text(os.path.join(out_dir, "summary.json"),
                    json.dumps(summary, sort_keys=True, indent=2) + "\n")
    for r in results:
        print(f"{r['label']}: objective={r['final_objective']:.6e} "
              f"residual={r['final_residual']:.3e} "
              f"w_slope={r['w_norm_slope']:+.3e}")
    return EXIT_OK


def _add_problem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run config; flags override fields")
    p.add_argument("--zoo", help="problem family "
                   f"({', '.join(zoo.zoo_names())})")
    p.add_argument("--data", help="matrix file (.csv or .bin) with the "
                   "family's data term")
    for name, typ in _PARAM_FLAGS:
        p.add_argument(f"--{name}", type=typ)
    p.add_argument("--seed", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="madmm",
        description="Block-coordinate solver for multiaffine problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the solver on a zoo problem")
    _add_problem_flags(p)
    p.add_argument("--rho", type=float, help="penalty; omit for automatic")
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--tol-primal", dest="tol_primal", type=float)
    p.add_argument("--tol-step", dest="tol_step", type=float)
    p.add_argument("--assert-level", dest="assert_level",
                   choices=_ASSERT_LEVELS)
    p.add_argument("--trace", help="write per-iteration CSV here")
    p.add_argument("--out", help="write final blocks and multipliers here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="report which solver assumptions hold")
    _add_problem_flags(p)
    p.add_argument("--samples", type=int, default=20)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("demo-counterexample",
                       help="print the multiplier-escape trajectory")
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--x0", type=float, default=1.0)
    p.add_argument("--y0", type=float, default=0.0)
    p.add_argument("--w0", type=float, default=0.0)
    p.set_defaults(func=cmd_demo_counterexample)

    p = sub.add_parser("bench", help="compare the two deconvolution "
                       "formulations on shared data")
    p.add_argument("--out-dir", dest="out_dir", required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--kernel", type=int, default=16)
    p.add_argument("--iters", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--theta", type=float, default=0.05)
    p.add_argument("--l1", type=float, default=None)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed usage plus the offending flag; fold
        # its exit code into the documented mapping (2 is taken by MaxIter).
        code = 0 if exc.code is None else exc.code
        return EXIT_OK if code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (BuildError, ShapeMismatchError, SubproblemError, ValueError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
