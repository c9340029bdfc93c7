"""Receiver mobility: where a node's photodiode is at time ``t``.

The multi-luminaire network needs receivers that *move* — the paper's
smart-lit building serves phones carried between desks, not only fixed
ones.  Three models cover the evaluation's needs:

* :class:`StaticPosition` — a desk (the degenerate trace).
* :class:`LinearTrace` — constant-velocity motion, the deterministic
  way to walk a receiver across a cell boundary in tests.
* :class:`RandomWaypoint` — the classical random-waypoint process over
  a rectangular floor: pick a uniform destination, walk at a uniform
  speed, pause, repeat.  Legs are generated lazily from a private
  seeded generator, so ``position(t)`` is deterministic per seed and
  independent of query order.  The walker holds only the leg under its
  last query, so its memory is one leg however long the run.

Positions are floor-plane ``(x, y)`` metres; the vertical drop to the
luminaire plane is a property of the network, not the trace.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..core.params import require_finite

#: waypoint legs drawn per ``Generator.random`` call (three doubles each)
_BLOCK_LEGS = 64


class MobilityModel(ABC):
    """A deterministic floor-plane trajectory."""

    @abstractmethod
    def position(self, t: float) -> tuple[float, float]:
        """The ``(x, y)`` position in metres at time ``t`` seconds."""

    def speed(self, t: float, dt: float = 0.5) -> float:
        """Finite-difference speed in m/s around time ``t``."""
        x0, y0 = self.position(max(t - dt, 0.0))
        x1, y1 = self.position(t + dt)
        return math.hypot(x1 - x0, y1 - y0) / (dt + min(t, dt))


@dataclass(frozen=True)
class StaticPosition(MobilityModel):
    """A receiver that never moves (a desk)."""

    x_m: float
    y_m: float

    def __post_init__(self) -> None:
        require_finite(self)

    def position(self, t: float) -> tuple[float, float]:
        """The fixed ``(x, y)`` regardless of ``t``."""
        return (self.x_m, self.y_m)


@dataclass(frozen=True)
class LinearTrace(MobilityModel):
    """Constant-velocity motion from a start point.

    ``end_t_s`` (optional) freezes the position after that time, so a
    test can walk a node from cell A to cell B and let it dwell there.
    """

    start_x_m: float
    start_y_m: float
    velocity_x_mps: float = 0.0
    velocity_y_mps: float = 0.0
    end_t_s: float | None = None

    def __post_init__(self) -> None:
        require_finite(self)
        if self.end_t_s is not None and self.end_t_s < 0:
            raise ValueError("end_t_s must be non-negative")

    def position(self, t: float) -> tuple[float, float]:
        """Start + velocity · t, frozen at ``end_t_s`` if set."""
        t = max(t, 0.0)
        if self.end_t_s is not None:
            t = min(t, self.end_t_s)
        return (self.start_x_m + self.velocity_x_mps * t,
                self.start_y_m + self.velocity_y_mps * t)


@dataclass
class RandomWaypoint(MobilityModel):
    """Random-waypoint mobility over a rectangular floor.

    The node starts at a uniform point, repeatedly draws a uniform
    destination and a uniform speed in ``[speed_min_mps,
    speed_max_mps]``, walks there in a straight line, pauses for
    ``pause_s``, and repeats.  All draws come from a private generator
    seeded with ``seed``: the trace is a pure function of the seed.
    Legs take their draws from blocks of standard uniforms, scaled as
    ``lo + (hi - lo)·u`` — what ``Generator.uniform(lo, hi)`` computes
    from the same stream, so the trace equals one drawn a call per
    coordinate.  The walker holds one leg, its generator and the unused
    draws of the current block: a later ``t`` draws the legs in between,
    an earlier one replays the trace from the seed.
    """

    width_m: float
    depth_m: float
    speed_min_mps: float = 0.2
    speed_max_mps: float = 1.0
    pause_s: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.width_m <= 0 or self.depth_m <= 0:
            raise ValueError("floor dimensions must be positive")
        if not 0.0 < self.speed_min_mps <= self.speed_max_mps:
            raise ValueError("need 0 < speed_min_mps <= speed_max_mps")
        if self.pause_s < 0:
            raise ValueError("pause_s must be non-negative")
        self._rewind()

    def _rewind(self) -> None:
        """Restart the trace from the seed, before its first leg."""
        self._rng = np.random.default_rng(self.seed)
        u, v = self._rng.random(2).tolist()
        start = (self.width_m * u, self.depth_m * v)
        #: unused draws of the current block, the next one last
        self._block: list[float] = []
        #: the leg under the last query: (t_start, walk, (x0, y0), (x1, y1))
        self._leg = (0.0, 0.0, start, start)
        #: when the next leg starts (its walk plus pause after this one)
        self._next_t = 0.0

    def _advance(self) -> None:
        """Draw the leg after the current one, from where it ended."""
        block = self._block
        if not block:
            block.extend(reversed(self._rng.random(3 * _BLOCK_LEGS).tolist()))
        x1 = self.width_m * block.pop()
        y1 = self.depth_m * block.pop()
        speed = self.speed_min_mps + (
            self.speed_max_mps - self.speed_min_mps) * block.pop()
        x0, y0 = self._leg[3]
        walk = math.hypot(x1 - x0, y1 - y0) / speed
        self._leg = (self._next_t, walk, (x0, y0), (x1, y1))
        self._next_t += walk + self.pause_s

    def position(self, t: float) -> tuple[float, float]:
        """The waypoint-interpolated position at time ``t``."""
        t = max(t, 0.0)
        if t < self._leg[0]:
            self._rewind()
        while self._next_t <= t:
            self._advance()
        t_start, walk, (x0, y0), (x1, y1) = self._leg
        if walk <= 0.0:
            return (x1, y1)
        frac = min((t - t_start) / walk, 1.0)
        return (x0 + (x1 - x0) * frac, y0 + (y1 - y0) * frac)
