"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import bench  # noqa: E402
import hostspeed  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNT_UNITS = ("calls/step", "steps/solve")


def _small_workloads():
    return (workloads.nmf_workload(size=12, rank=2, steps=4, min_groups=2),
            workloads.sbd_workload(size=16, kernel=4, steps=3, min_groups=1))


def _traced_counts(workload, tmp_path):
    run = bench.measure(workload, seed=3, seconds=0.0, workdir=str(tmp_path),
                        trace=True)
    attempted, failed, messages = bench.gate(workload.name, 3, run["groups"],
                                             {})
    assert failed == 0, messages
    metrics = bench.per_layer(run["groups"], run["baseline"], run["tracer"])
    return {k: m["value"] for k, m in metrics.items()
            if m["unit"] in COUNT_UNITS}


def test_traced_runs_repeat_their_counts(tmp_path):
    for workload in _small_workloads():
        first = _traced_counts(workload, tmp_path)
        second = _traced_counts(workload, tmp_path)
        assert first == second
        assert first["system.freeze.calls"] > 0
        assert first["system.term_evals"] > 0


def test_fft_counts_only_where_there_are_convolutions(tmp_path):
    nmf, sbd = _small_workloads()
    assert _traced_counts(nmf, tmp_path)["numpy.fft.calls"] == 0
    assert _traced_counts(sbd, tmp_path)["numpy.fft.calls"] > 0


def test_metric_names_and_declaration_agree():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared_e2e == bench.END_TO_END_UNITS
    assert declared_layer == bench.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in list(declared_e2e) + list(declared_layer):
        assert NAME.fullmatch(name), name


def _first_inputs(workload, seed, tmp_path):
    jobs = workload.group(workloads.instance_seed(seed, 0), str(tmp_path))
    return [inst.data for inst in (job.build() for job in jobs)]


def _same(a, b):
    return all(all(np.array_equal(x[k], y[k]) for k in x)
               for x, y in zip(a, b))


def test_seed_decides_the_inputs(tmp_path):
    for workload in workloads.WORKLOADS.values():
        base = _first_inputs(workload, 0, tmp_path)
        assert _same(base, _first_inputs(workload, 0, tmp_path))
        assert not _same(base, _first_inputs(workload, 1, tmp_path))


def test_gate_counts_a_reference_mismatch(tmp_path):
    workload = _small_workloads()[0]
    groups = bench.measure(workload, 5, 0.0, str(tmp_path))["groups"]
    outcomes = [[r.outcome() for r in group] for group in groups]
    refs = {workload.name: {"5": outcomes}}
    assert bench.gate(workload.name, 5, groups, refs)[1] == 0
    outcomes[1][0][3] *= 1.01
    attempted, failed, _ = bench.gate(workload.name, 5, groups, refs)
    assert (attempted, failed) == (2, 1)


def test_scales_follow_the_calibration_around_each_group():
    calibration = hostspeed.Calibration(lambda: None, ref_ms=2.0)
    # Quiet before group 0, twice as slow after it and around group 1.
    assert calibration.scales([2.0, 4.0, 4.0]) == [2.0 / 3.0, 0.5]
