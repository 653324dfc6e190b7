"""Run one workload of the madmm benchmark and print its result.

    python3 perfbench/run.py --workload nmf-300 --seed 0 --seconds 40 --trace 0

Run from the root of a checkout: the library is imported from its ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines above it name every metric with its unit and describe the machine.
The exit code is 1 when a solve failed the correctness gate, 2 when the
library cannot be found.
"""

import os

# Pinned before numpy loads: iterates, and so step counts and the reference
# values, depend on how many threads a BLAS call splits over.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return value


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=_nonneg_int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "madmm" / "__init__.py").is_file():
        print(f"madmm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=ROOT) as workdir:
        run = bench.measure(workload, args.seed, args.seconds, workdir,
                            trace=bool(args.trace))
    groups = run["groups"]
    attempted, failed, messages = bench.gate(
        args.workload, args.seed, groups, bench.load_references())
    if args.trace:
        metrics = bench.per_layer(groups, run["baseline"], run["tracer"])
        for layer in sorted(run["tracer"].missing):
            print(f"absent: {layer} (entry point not found)")
    else:
        metrics = bench.end_to_end(groups, attempted, failed)
        steps = sum(r.steps for group in groups for r in group)
        scales = [r.scale for group in groups for r in group]
        print(f"step_ms_tail is p{bench.TAIL_PCT:g} per problem kind, over "
              f"{steps} steps in {len(groups)} groups; host-speed scale "
              f"{min(scales):.3g} to {max(scales):.3g}; unscaled step "
              f"median {bench.step_ms(groups, 50.0, scaled=False):.4g} ms, "
              f"p{bench.TAIL_PCT:g} "
              f"{bench.step_ms(groups, bench.TAIL_PCT, scaled=False):.4g} ms")
    for message in messages:
        print(f"FAILED: {message}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"environment": bench.environment(),
                      "workload": args.workload, "seed": args.seed,
                      "groups": len(groups)}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
