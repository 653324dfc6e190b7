"""Golden trace: the iterates of every zoo family must not drift.

``golden_trace.json`` holds ``(k, L, primal_res, stat_est, block_steps)``
for the first 50 iterations of ``solve(inst.problem, max_iter=50, init=inst.init)`` (auto
rho, seed 0) on ``zoo.default_instance(name, 0)`` for every zoo family;
``block_steps`` maps each block's name to the norm of its step, so a step
recorded against the wrong block shows.  A change that only reorganises computation must reproduce it to 1e-12
relative.  Re-record it, after a change that is meant to move the iterates,
with

    PYTHONPATH=src python tests/test_golden_trace.py --record

A change meant to keep the iterates to the bit can print, per family, the
SHA-256 of the final assignment (blocks in name order) and multiplier
(ascending eq_id) bytes of the same runs, and under ``<family>/trace`` the
SHA-256 of every trace row's L, primal_res and stat_est and its block steps
in block name order, to compare against its parent's:

    PYTHONPATH=src python tests/test_golden_trace.py --digest

The stationarity estimate feeds only the traces, so only the trace digests
show a change to it.  Saved to a file at the parent, that output is checked
in one command, which names each entry of the file whose digest differs or
is missing and then exits 1:

    PYTHONPATH=src python tests/test_golden_trace.py --compare FILE

or, with no file, against a git revision REV (a commit, branch or tag):

    PYTHONPATH=src python tests/test_golden_trace.py --compare-rev REV

which extracts REV's ``src`` into a temporary directory (``git archive REV
src``), prints ``--digest`` for that tree and for the working tree's
``src``, each in a subprocess with OPENBLAS_NUM_THREADS=1, and reports and
exits as ``--compare`` does, REV's digests taking the file's place.

Digests depend on the BLAS build and its thread count (pin it, e.g. with
OPENBLAS_NUM_THREADS=1), so they are only printed or compared on request,
never asserted under pytest.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from madmm import zoo
from madmm.solver import solve

GOLDEN = Path(__file__).with_name("golden_trace.json")
ITERS = 50
RTOL = 1e-12


def _run(name):
    inst = zoo.default_instance(name, 0)
    return solve(inst.problem, max_iter=ITERS, init=inst.init)


def _trace(name):
    _, traces, status = _run(name)
    rows = [[t.k, t.L, t.primal_res, t.stat_est, t.block_steps] for t in traces]
    return {"status": status, "rows": rows}


def _digests(name):
    """{name: state digest, name/trace: trace digest} of one run."""
    state, traces, _ = _run(name)
    h = hashlib.sha256()
    for block in sorted(state.assignment, key=lambda b: b.name):
        h.update(state.assignment[block].tobytes())
    for e in sorted(state.multipliers):
        h.update(state.multipliers[e].tobytes())
    rows = hashlib.sha256()
    for t in traces:
        steps = [t.block_steps[b] for b in sorted(t.block_steps)]
        rows.update(struct.pack(f"<{3 + len(steps)}d", t.L, t.primal_res,
                                t.stat_est, *steps))
    return {name: h.hexdigest(), f"{name}/trace": rows.hexdigest()}


def _compare(saved, got, source):
    """Name each entry of ``saved`` whose digest in ``got`` differs or is
    missing, then how many match; 1 when any differs, else 0."""
    differ = [key for key in saved if got.get(key) != saved[key]]
    for key in differ:
        print(f"{key}: digest differs from {source}")
    print(f"{len(saved) - len(differ)} of {len(saved)} entries match")
    return 1 if differ else 0


def _digests_of(src):
    """The ``--digest`` lines of the library in ``src``, as a dict, printed
    by a subprocess with one BLAS thread."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, __file__, "--digest"], env=env,
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return dict(line.split() for line in out.splitlines() if line.strip())


def _compare_rev(rev):
    """``--compare`` of the working tree's ``src`` against ``rev``'s."""
    root = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(["git", "-C", str(root), "archive", rev, "src"],
                             stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=tar, check=True)
        saved = _digests_of(Path(tmp) / "src")
    return _compare(saved, _digests_of(root / "src"), rev)


def _close(a, b):
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


@pytest.mark.parametrize("name", zoo.zoo_names())
def test_golden_trace(name):
    golden = json.loads(GOLDEN.read_text())[name]
    got = _trace(name)
    assert got["status"] == golden["status"]
    assert len(got["rows"]) == len(golden["rows"])
    for row, ref in zip(got["rows"], golden["rows"]):
        assert row[0] == ref[0]
        for label, a, b in zip(("L", "primal_res", "stat_est"), row[1:4], ref[1:4]):
            assert _close(a, b), f"{name} k={row[0]} {label}: {a!r} != {b!r}"
        assert list(row[4]) == list(ref[4]), f"{name} k={row[0]} block order"
        for block, a in row[4].items():
            b = ref[4][block]
            assert _close(a, b), f"{name} k={row[0]} step of {block}: {a!r} != {b!r}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        GOLDEN.write_text(json.dumps({n: _trace(n) for n in zoo.zoo_names()},
                                     indent=1) + "\n")
    elif sys.argv[1:] == ["--digest"]:
        for n in zoo.zoo_names():
            for key, digest in _digests(n).items():
                print(key, digest)
    elif len(sys.argv) == 3 and sys.argv[1] == "--compare":
        saved = dict(line.split() for line in
                     Path(sys.argv[2]).read_text().splitlines() if line.strip())
        got = {}
        for n in zoo.zoo_names():
            got.update(_digests(n))
        sys.exit(_compare(saved, got, sys.argv[2]))
    elif len(sys.argv) == 3 and sys.argv[1] == "--compare-rev":
        sys.exit(_compare_rev(sys.argv[2]))
    else:
        sys.exit(__doc__)
