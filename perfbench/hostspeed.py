"""Host-speed calibration: fixed numpy kernels timed between groups.

The benchmark shares its host.  The host's speed alternates every second or
few between a fast phase and one up to 1.7x slower, and the share of slow
phases drifts from minute to minute, so the same 40-second run of the same
code can read 1.4x slower a few minutes later, at its median and at its
10th percentile alike.  No statistic over one run's own times removes that.

Each workload therefore has a calibration kernel: a fixed computation of the
same kind of work as its steps (matrix chains and a small solve for
``nmf-300``, 2-D FFTs for ``sbd-256``, small-array calls for
``desk-to-tol``), built from numpy alone so that no change to the library
moves it.  An untraced run times the kernel before its first job and after
every job.  A job's times are multiplied by ``ref_ms`` over the mean of the
kernel's times on both sides of the job: they read as if the host ran at
the speed at which the kernel takes ``ref_ms``.  Contention that slows the
steps slows the kernel next to them about as much.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Fixed inputs: the kernels must do the same work in every run.
_RNG = np.random.default_rng(20180226)
_B = _RNG.random((300, 300))
_U = _RNG.random((300, 10))
_V = _RNG.random((10, 300))
_Y = _RNG.random((256, 256))
_K = _RNG.random((16, 16))
_A = _RNG.random((20, 20))
_X = _RNG.random((20, 1))


def _python_overhead(calls: int) -> None:
    """Many calls on tiny arrays, like the per-term bookkeeping of a step."""
    y = np.zeros((10, 10))
    for _ in range(calls):
        y = y + 1.0


def matrix_chains() -> None:
    """Products of a 300x300 matrix with rank-10 factors and a 10x10 solve,
    the shapes of an ``nmf3`` step on ``nmf-300``."""
    for _ in range(12):
        R = _U @ _V - _B
        G = R @ _V.T
        H = _U.T @ R
        np.linalg.solve(_V @ _V.T + np.eye(10), H)
        np.linalg.norm(R)
        np.abs(G).sum()
    _python_overhead(1200)


def fourier() -> None:
    """2-D real FFTs of a 256x256 signal against a 16x16 kernel, the shapes
    of an ``sbd1`` step on ``sbd-256``."""
    kernel_hat = np.fft.rfft2(_K, _Y.shape)
    for _ in range(6):
        signal_hat = np.fft.rfft2(_Y)
        X = np.fft.irfft2(signal_hat * kernel_hat.conj()
                          / (np.abs(kernel_hat) ** 2 + 1.0), _Y.shape)
        np.maximum(X - 0.1, 0.0)
    _python_overhead(600)


def small_arrays() -> None:
    """Calls on 20x20 arrays, where Python overhead outweighs the flops, as
    in the desk problems."""
    x = _X
    for _ in range(1500):
        x = _A @ x
        x = x / np.linalg.norm(x)
        x = np.clip(x, -1.0, 1.0)


@dataclass
class Calibration:
    kernel: Callable[[], None]
    # The kernel's time in ms on a quiet host: its 5th percentile over 200
    # calls on a 2-vCPU Intel Xeon (Sapphire Rapids) VM, OpenBLAS 0.3.31
    # pinned to one thread.
    ref_ms: float

    def time_ms(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return (time.perf_counter() - t0) * 1e3

    def scales(self, times_ms: list) -> list:
        """Scale factor of each job from the kernel's times around it;
        ``times_ms`` has one more entry than there are jobs, the first
        taken before the first job."""
        return [2.0 * self.ref_ms / (before + after)
                for before, after in zip(times_ms, times_ms[1:])]
