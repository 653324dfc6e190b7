"""Record the correctness references of the benchmark.

    python3 perfbench/record_refs.py 0 1 2 ...

For each seed and workload, solves the ``min_groups`` groups every run
solves and stores each solve's (label, status, steps, final L, final primal
residual) in ``references.json``, keeping the seeds already recorded.
Record only from a commit whose iterates are trusted: later runs are
checked against these.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import workloads  # noqa: E402


def main(seeds) -> int:
    try:
        refs = bench.load_references()
    except FileNotFoundError:
        refs = {}
    failed = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=HERE.parent) as workdir:
        for name, workload in sorted(workloads.WORKLOADS.items()):
            for seed in seeds:
                groups = [[bench.run_job(job) for job in workload.group(
                    workloads.instance_seed(seed, g), workdir)]
                    for g in range(workload.min_groups)]
                errors = [f"{r.label}: {e}" for group in groups
                          for r in group for e in r.errors]
                for error in errors:
                    print(f"{name} seed {seed}: {error}", file=sys.stderr)
                if errors:
                    failed += 1
                    continue
                refs.setdefault(name, {})[str(seed)] = [
                    [r.outcome() for r in group] for group in groups]
                print(f"{name} seed {seed}: recorded {len(groups)} groups")
    with open(bench.REFERENCES, "w", encoding="utf-8") as fh:
        fh.write(format_references(refs))
    return 1 if failed else 0


def format_references(refs) -> str:
    """JSON with one line per group, workloads and seeds in order."""
    blocks = []
    for name in sorted(refs):
        seeds = []
        for seed in sorted(refs[name], key=int):
            groups = ",\n".join(f"   {json.dumps(group)}"
                                 for group in refs[name][seed])
            seeds.append(f'  "{seed}": [\n{groups}\n  ]')
        blocks.append(f' "{name}": {{\n' + ",\n".join(seeds) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
