"""The benchmark's workloads: what each one generates, builds and solves.

A run solves groups of jobs, each group from its own instance seed derived
from the run seed, until its time budget is spent.  A group is the unit that
``setup_s``, ``solve_s`` and ``iters`` are reported for: one problem for
``nmf-300`` and ``sbd-256``, the set of four desk problems for
``desk-to-tol``.  Averaging over many independent inputs keeps the figures
of two seeds comparable.  The library gets generated arrays, or for the
desk problems a run config as the command line would build it, with the
desk graph in a matrix file the benchmark wrote.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import madmm
from hostspeed import Calibration, fourier, matrix_chains, small_arrays
from madmm import cli, zoo

DESK_TOL = 1e-4
DESK_MAX_ITER = 5000
# Steps of the desk problems that run a fixed number of steps (see
# ``desk_jobs``).
DESK_STEPS = 100
# Quiet-host times of the calibration kernels, in ms (see hostspeed.py).
REF_MS_NMF = 7.2
REF_MS_SBD = 10.5
REF_MS_DESK = 10.6


@dataclass
class Job:
    """One solve: how to build the problem and how long to run it.

    ``build`` generates the data and builds the problem; the benchmark times
    it as part of set-up.  ``tol`` 0 runs exactly ``max_iter`` steps.
    """

    label: str
    seed: int
    build: Callable[[], "zoo.ZooInstance"]
    max_iter: int
    tol: float
    expect: str


@dataclass
class Workload:
    name: str
    group: Callable[[int, str], list]   # (instance seed, workdir) -> [Job]
    # Groups every run solves, however short its time budget; a traced run
    # solves exactly these, so its per-step counts repeat exactly.
    min_groups: int
    # Kernel of the same kind of work as the steps, timed between jobs to
    # scale each job's times to a fixed host speed.
    calibration: Calibration


def instance_seed(seed: int, group: int) -> int:
    """Seed of one group's inputs; distinct for every (seed, group) pair."""
    return seed * 10_000 + group


def nmf_job(seed: int, size: int, rank: int, steps: int) -> Job:
    def build():
        B, _, _ = zoo.gen_nmf_data(size, size, rank, seed=seed)
        return zoo.nmf3(B, rank)
    return Job(f"nmf3-{size}", seed, build, steps, 0.0, madmm.STATUS_MAXITER)


def sbd_job(seed: int, size: int, kernel: int, steps: int) -> Job:
    def build():
        Y, _, _, _ = zoo.gen_sbd_data(size, (kernel, kernel), bias=0.1,
                                      seed=seed)
        return zoo.sbd1(Y, (kernel, kernel))
    return Job(f"sbd1-{size}", seed, build, steps, 0.0, madmm.STATUS_MAXITER)


def random_graph(n: int, seed: int) -> np.ndarray:
    """Symmetric weights uniform on [0, 1) with a zero diagonal."""
    upper = np.triu(np.random.default_rng(seed).uniform(size=(n, n)), 1)
    return upper + upper.T


def desk_jobs(seed: int, workdir: str) -> list:
    """The four desk problems, each built through the command-line config
    path.  ``rpca2`` is solved to tolerance; the other three run
    ``DESK_STEPS`` steps, because their iterations to tolerance depend on
    the input too much for a run to average them out."""
    graph = os.path.join(workdir, f"graph-{seed}.bin")
    madmm.save_matrix(graph, random_graph(30, seed))
    fixed = (
        ("nmf3-20", cli.RunConfig(zoo="nmf3", seed=seed,
                                  params={"rows": 20, "cols": 20, "rank": 3})),
        ("rp2-6", cli.RunConfig(zoo="rp2", seed=seed, params={"size": 6})),
        ("mc1-30", cli.RunConfig(zoo="mc1", seed=seed, data=graph)),
    )
    to_tol = cli.RunConfig(zoo="rpca2", seed=seed,
                           params={"rows": 100, "cols": 80, "rank": 5})
    jobs = [Job(label, seed, (lambda c=cfg: cli.build_instance(c)),
                DESK_STEPS, 0.0, madmm.STATUS_MAXITER)
            for label, cfg in fixed]
    jobs.append(Job("rpca2-100x80", seed,
                    lambda: cli.build_instance(to_tol), DESK_MAX_ITER,
                    DESK_TOL, madmm.STATUS_CONVERGED))
    return jobs


def nmf_workload(size=300, rank=10, steps=30, min_groups=20):
    return Workload(f"nmf-{size}",
                    lambda seed, workdir: [nmf_job(seed, size, rank, steps)],
                    min_groups, Calibration(matrix_chains, REF_MS_NMF))


def sbd_workload(size=256, kernel=16, steps=6, min_groups=34):
    return Workload(f"sbd-{size}",
                    lambda seed, workdir: [sbd_job(seed, size, kernel, steps)],
                    min_groups, Calibration(fourier, REF_MS_SBD))


def desk_workload(min_groups=8):
    return Workload("desk-to-tol", desk_jobs, min_groups,
                    Calibration(small_arrays, REF_MS_DESK))


WORKLOADS = {w.name: w for w in (nmf_workload(), sbd_workload(),
                                 desk_workload())}
