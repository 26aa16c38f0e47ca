"""Trial model and log-scale calibration of the ruin barrier.

Each trial multiplies the bankroll by ``1 + gain_factor`` with probability
``p_gain``, or by ``1 + loss_factor`` otherwise.  Because losses compound
multiplicatively, a ruin threshold expressed as a fraction of the starting
bankroll maps to an integer count of net losses on the log scale.  That
count (the "distance") is the absorbing barrier of an equivalent +/-1
lattice walk, which is what every other module in this package operates on.
:func:`calibrate` is the one place where a loss level becomes a distance.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError

# Distances within this of an integer snap to it before the ceiling is
# taken, so exact powers such as 0.5**3 calibrate to 3, not 4.
_SNAP = 1e-9


class _TrialModelFields(NamedTuple):
    p_gain: float
    gain_factor: float
    loss_factor: float

    @property
    def p_loss(self) -> float:
        return 1.0 - self.p_gain


class TrialModel(_TrialModelFields):
    """Per-trial gain probability and multiplicative move sizes.

    ``gain_factor`` is a finite signed fraction > 0 (+1.00 means a 100% gain);
    ``loss_factor`` is a signed fraction in (-1, 0) (-0.50 means a 50%
    loss).  A single loss can therefore never wipe out the bankroll.
    Construction, ``_make``, ``_replace`` and unpickling all validate.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs) -> TrialModel:
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 <= self.p_gain <= 1.0:
            raise DomainError(f"p_gain must be in [0, 1], got {self.p_gain}")
        if not 0.0 < self.gain_factor < math.inf:
            raise DomainError(
                f"gain_factor must be finite and > 0, got {self.gain_factor}"
            )
        if not -1.0 < self.loss_factor < 0.0:
            raise DomainError(
                f"loss_factor must be in (-1, 0), got {self.loss_factor}"
            )
        return self


class RuinSpec(NamedTuple):
    """A ruin threshold and its integer lattice distance.

    ``distance_exact`` is the real-valued solution of
    ``(1 + loss_factor) ** x = loss_level``; ``distance`` is its
    snap-guarded ceiling, so declaring ruin after ``distance`` net losses
    leaves at most ``loss_level`` of the bankroll.  ``implied_loss_level``
    is the level actually reached by the integer distance.
    """

    loss_level: float
    loss_factor: float
    distance_exact: float
    distance: int
    implied_loss_level: float


def lattice_distance(distance_exact: float) -> int:
    """Integer barrier for a real-valued distance: ceiling with a snap
    guard, never below 1.  A fractional step cannot occur on the lattice
    and rounding up keeps the barrier at or below the requested level."""
    return max(1, math.ceil(distance_exact - _SNAP))


def calibrate(loss_level: float, loss_factor: float) -> RuinSpec:
    """Calibrate the ruin barrier for losses of ``loss_factor`` at ``loss_level``.

    The exact distance is ``log(loss_level) / log(1 + loss_factor)``, the
    number of losses needed to reach the level (strictly decreasing in
    ``loss_level``; a factor of -0.5 counts halvings).  The integer distance
    rounds it up with :func:`lattice_distance`, so ruin is declared at or
    below the requested level and evaluated on the integer lattice (net
    loss count >= distance), never on floating-point bankrolls.
    """
    # 0 and 1 are rejected rather than treated as instant ruin / classic
    # zero-chip ruin: zero chips are unreachable under multiplicative losses.
    if not 0.0 < loss_level < 1.0:
        raise DomainError(
            f"loss_level must be a strict fraction of the initial bankroll "
            f"(0 < loss_level < 1), got {loss_level}"
        )
    # checked on the float factor whose log is the divisor (log, not log1p:
    # the bankroll walk multiplies by this float); a factor within ~1.1e-16
    # of 0 rounds it to 1.0, which loses nothing
    if not 0.0 < 1.0 + loss_factor < 1.0:
        raise DomainError(
            f"loss_factor must be in (-1, 0) and shrink the bankroll in "
            f"floating point (1 + loss_factor < 1), got {loss_factor}"
        )
    exact = math.log(loss_level) / math.log(1.0 + loss_factor)
    distance = lattice_distance(exact)
    return RuinSpec(
        loss_level=loss_level,
        loss_factor=loss_factor,
        distance_exact=exact,
        distance=distance,
        implied_loss_level=(1.0 + loss_factor) ** distance,
    )
