"""Exception types shared across the package."""

from __future__ import annotations

import numpy as np


class ShapeMismatchError(ValueError):
    """A term, value, or multiplier is inconsistent with its equation.

    Carries the offending block name and equation id so the caller can point
    at the exact spot in the system definition.
    """

    def __init__(self, message: str, block: str | None = None, eq_id: int | None = None):
        super().__init__(message)
        self.block = block
        self.eq_id = eq_id


class BuildError(ValueError):
    """A problem definition violates a structural requirement."""


def require_finite(value, what: str) -> None:
    """Raise BuildError unless every entry of ``value`` is finite."""
    if not np.all(np.isfinite(value)):
        raise BuildError(f"{what} has NaN or infinite entries")


class SubproblemError(RuntimeError):
    """An iterative block solve failed to reach its tolerance.

    Attributes
    ----------
    block : str or None
        Name of the block being updated.
    k : int
        Outer iteration index; -1 when raised outside the solver loop.
    residual : float
        Final residual achieved before giving up.
    """

    def __init__(self, message: str, block: str | None = None, k: int = -1,
                 residual: float = float("nan")):
        super().__init__(message)
        self.block = block
        self.k = k
        self.residual = residual
