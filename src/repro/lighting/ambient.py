"""Ambient light environments (Section 6.1, "Ambient light control").

The paper controls ambient light with an electrically driven window
blind: fixed position for the static scenario, a constant-speed 67 s
pull for the dynamic one (Fig. 19), with the caveat that real ambient
light "does not change perfectly linearly with the blind's position".

All profiles expose a normalized intensity in [0, 1] as a function of
time, where 1.0 is the paper's brightest condition (sunny day, blind at
the top, ceiling lights on — L1, 8900-9760 lux).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..core.params import require_finite


def _cloud_cover(knots: tuple[float, ...], time_scale_s: float,
                 t: float) -> float:
    """Cosine-interpolated cloud cover in [0, 1] at time ``t``.

    ``knots`` are seeded cover levels ``time_scale_s`` apart; the
    sequence repeats once ``t`` runs past its last knot.
    """
    position = (t / time_scale_s) % (len(knots) - 1)
    i = int(position)
    frac = position - i
    w = 0.5 - 0.5 * math.cos(math.pi * frac)
    return knots[i] * (1.0 - w) + knots[i + 1] * w


class AmbientProfile(ABC):
    """A deterministic ambient-light trajectory."""

    @abstractmethod
    def intensity(self, t: float) -> float:
        """Normalized ambient level in [0, 1] at time ``t`` seconds."""


@dataclass(frozen=True)
class StaticAmbient(AmbientProfile):
    """Blind fixed at one position (the static scenario)."""

    level: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.0:
            raise ValueError("ambient level must lie in [0, 1]")

    def intensity(self, t: float) -> float:
        return self.level


@dataclass(frozen=True)
class BlindRampAmbient(AmbientProfile):
    """The 67-second constant-speed blind pull of Fig. 19.

    The blind position moves linearly, but the admitted light does not:
    a gentle S-shape (direct sun enters fastest mid-travel) plus a
    seeded, smooth perturbation reproduce the paper's observation that
    the throughput trace is not perfectly smooth.
    """

    start_level: float = 0.10
    end_level: float = 0.90
    duration_s: float = 67.0
    curvature: float = 0.25
    wobble: float = 0.03
    seed: int = 2017

    def __post_init__(self) -> None:
        require_finite(self)
        for name, level in (("start_level", self.start_level),
                            ("end_level", self.end_level)):
            if not 0.0 <= level <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0.0 <= self.curvature < 0.5:
            raise ValueError("curvature must lie in [0, 0.5)")
        if self.wobble < 0:
            raise ValueError("wobble must be non-negative")
        # Smooth perturbation: a few seeded sinusoids (deterministic,
        # differentiable, zero-mean).
        rng = np.random.default_rng(self.seed)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=4)
        weights = rng.uniform(0.4, 1.0, size=4)
        object.__setattr__(self, "_phases", tuple(phases.tolist()))
        object.__setattr__(self, "_weights",
                           tuple((weights / weights.sum()).tolist()))

    def intensity(self, t: float) -> float:
        x = min(max(t / self.duration_s, 0.0), 1.0)
        # S-curve: blend linear travel with a smoothstep.
        smooth = x * x * (3.0 - 2.0 * x)
        shaped = (1.0 - self.curvature) * x + self.curvature * smooth
        level = self.start_level + (self.end_level - self.start_level) * shaped
        if self.wobble and 0.0 < x < 1.0:
            # Left to right, not builtin sum(): from Python 3.12 that
            # compensates float sums, so the ripple would depend on the
            # interpreter.
            ripple = 0.0
            for k, (w, p) in enumerate(zip(self._weights, self._phases)):
                ripple += w * math.sin(2.0 * math.pi * (k + 1) * 0.8 * x + p)
            # Taper the ripple at both ends so the end levels are exact.
            level += self.wobble * ripple * math.sin(math.pi * x)
        return min(max(level, 0.0), 1.0)


@dataclass(frozen=True)
class DaylightAmbient(AmbientProfile):
    """Piecewise solar-elevation daylight: night floor, sunrise-to-sunset
    solar arc, seeded cloud attenuation.

    The solar piece follows ``sin(elevation)`` raised to ``shape`` (a
    crude airmass correction that flattens the arc near the horizon),
    scaled between ``night_level`` and ``peak_level``.  Cloud cover is a
    cosine-interpolated knot sequence drawn from a
    :class:`numpy.random.SeedSequence` child, so scenario engines can
    derive per-room skies from one scenario seed without stream overlap.
    Outside ``[sunrise_s, sunset_s]`` the profile sits at the night
    floor, which makes the curve exactly piecewise: two constant night
    segments joined by the attenuated solar arc.  With ``sunrise_s=0``,
    ``night_level=0`` and ``shape=1`` the arc is a plain half sine over
    ``[0, sunset_s]``; a short ``cloud_time_scale_s`` gives the
    fast-moving clouds the paper motivates SmartVLC with.
    """

    sunrise_s: float = 6.0 * 3600.0
    sunset_s: float = 18.0 * 3600.0
    peak_level: float = 0.85
    night_level: float = 0.02
    shape: float = 1.2
    cloud_depth: float = 0.15
    cloud_time_scale_s: float = 900.0
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 <= self.sunrise_s < self.sunset_s:
            raise ValueError("need 0 <= sunrise_s < sunset_s")
        if not 0.0 <= self.night_level <= self.peak_level <= 1.0:
            raise ValueError("need 0 <= night_level <= peak_level <= 1")
        if self.shape <= 0:
            raise ValueError("shape must be positive")
        if not 0.0 <= self.cloud_depth < 1.0:
            raise ValueError("cloud_depth must lie in [0, 1)")
        if self.cloud_time_scale_s <= 0:
            raise ValueError("cloud_time_scale_s must be positive")
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(0,))
        rng = np.random.default_rng(ss)
        day_s = self.sunset_s - self.sunrise_s
        n_knots = max(4, int(day_s / self.cloud_time_scale_s) + 2)
        object.__setattr__(self, "_knots",
                           tuple(rng.uniform(0.0, 1.0, size=n_knots).tolist()))

    def intensity(self, t: float) -> float:
        if t <= self.sunrise_s or t >= self.sunset_s:
            return self.night_level
        x = (t - self.sunrise_s) / (self.sunset_s - self.sunrise_s)
        solar = math.sin(math.pi * x) ** self.shape
        attenuation = 1.0 - self.cloud_depth * _cloud_cover(
            self._knots, self.cloud_time_scale_s, t)
        level = self.night_level + (
            self.peak_level - self.night_level) * solar * attenuation
        return min(max(level, 0.0), 1.0)


@dataclass(frozen=True)
class ScheduledAmbient(AmbientProfile):
    """A base profile with timed override steps layered on top.

    Each step is ``(at_s, level)``: from ``at_s`` onward the ambient is
    pinned at ``level`` until the next step takes over, and before the
    first step the base profile applies.  Step times must be finite and
    non-decreasing; of several steps at one instant the last listed
    applies.  This is the one resolver of timed ambient steps: the chaos
    harness and the scenario compiler both apply a fault schedule's
    :meth:`~repro.resilience.faults.FaultSchedule.ambient_steps` here,
    and lighting depends on nothing in the resilience package.
    """

    base: AmbientProfile
    steps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        times = [at for at, _ in self.steps]
        if not all(math.isfinite(at) for at in times):
            raise ValueError("step times must be finite")
        if times != sorted(times):
            raise ValueError("step times must be non-decreasing")
        for _, level in self.steps:
            if not 0.0 <= level <= 1.0:
                raise ValueError("step levels must lie in [0, 1]")

    def intensity(self, t: float) -> float:
        active = None
        for when, level in self.steps:
            if t >= when:
                active = level
            else:
                break
        return self.base.intensity(t) if active is None else active
