"""Flicker-free adaptation of the LED intensity (Section 4.3, Fig. 10).

When the ambient light moves, the LED must travel to a new intensity
without any single step being perceptible (Type-II flicker) and — for
hardware lifespan and designer overhead — in as few steps as possible.

Two step planners are provided:

* :func:`plan_measured_steps` — the *existing method*: a fixed step in
  the measured domain.  To be flicker-safe everywhere it must use the
  step that is safe at the darkest intensity of the operating range,
  which wastes steps whenever the LED is bright.
* :func:`plan_perceived_steps` — SmartVLC's method: a fixed step tau_p
  in the *perceived* domain, i.e. a variable measured step that grows
  with intensity.  Same flicker guarantee, roughly half the steps on
  the paper's dynamic scenario (Fig. 19(c)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .perception import (
    measured_step_for,
    perceived_step,
    to_measured,
    to_perceived,
)


@dataclass(frozen=True)
class AdaptationPlan:
    """A flicker-free trajectory from one measured intensity to another.

    ``levels`` holds every intermediate measured intensity *including*
    the final target but excluding the starting point, so ``len(levels)``
    is the number of brightness adjustments the hardware performs.  Steps
    are uniform in ``domain``; ``levels`` is built on first access.
    """

    start: float
    target: float
    n_steps: int
    domain: str

    @cached_property
    def levels(self) -> tuple[float, ...]:
        """The measured intensity after each step, ending at the target."""
        start, n_steps = self.start, self.n_steps
        if self.domain == "perceived":
            p_start = to_perceived(start)
            span = to_perceived(self.target) - p_start
            levels = [to_measured(p_start + span * i / n_steps)
                      for i in range(1, n_steps + 1)]
        else:
            span = self.target - start
            levels = [start + span * i / n_steps for i in range(1, n_steps + 1)]
        if levels:
            levels[-1] = self.target  # kill the round-trip float residue
        return tuple(levels)

    @property
    def max_perceived_step(self) -> float:
        """Largest perceived jump along the trajectory."""
        worst = 0.0
        previous = self.start
        for level in self.levels:
            worst = max(worst, perceived_step(previous, level))
            previous = level
        return worst


def _validate_intensities(start: float, target: float) -> None:
    for name, value in (("start", start), ("target", target)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} intensity must lie in [0, 1], got {value}")


def plan_perceived_steps(start: float, target: float,
                         tau_perceived: float) -> AdaptationPlan:
    """SmartVLC's planner: uniform steps of tau_p in the perceived domain.

    The measured-domain step is variable (Fig. 10(b)): each intermediate
    level is the measured image of an evenly spaced perceived level, so
    every step is exactly at — never over — the perception bound.
    """
    _validate_intensities(start, target)
    if tau_perceived <= 0:
        raise ValueError("tau_perceived must be positive")
    span = to_perceived(target) - to_perceived(start)
    n_steps = max(1, math.ceil(abs(span) / tau_perceived)) if span else 0
    return AdaptationPlan(start, target, n_steps, "perceived")


def plan_measured_steps(start: float, target: float, tau_measured: float) -> AdaptationPlan:
    """The existing method: uniform steps in the measured domain."""
    _validate_intensities(start, target)
    if tau_measured <= 0:
        raise ValueError("tau_measured must be positive")
    span = target - start
    n_steps = max(1, math.ceil(abs(span) / tau_measured)) if span else 0
    return AdaptationPlan(start, target, n_steps, "measured")


def safe_measured_tau(range_min: float, tau_perceived: float) -> float:
    """Largest fixed measured-domain step flicker-safe over a range.

    A fixed measured step is most visible at the dark end of the
    operating range, so the existing method must size its step there:
    the returned tau produces exactly a tau_p perceived change when
    taken at ``range_min``.
    """
    if not 0.0 <= range_min < 1.0:
        raise ValueError("range_min must lie in [0, 1)")
    return measured_step_for(range_min, tau_perceived)


@dataclass
class Adapter:
    """Incremental adaptation driver used by the lighting controller.

    Tracks the LED's current measured intensity and, for each new
    target, emits the flicker-free step sequence and counts the
    adjustments performed — the quantity plotted in Fig. 19(c).
    """

    tau_perceived: float
    intensity: float = 1.0
    use_perception_domain: bool = True
    range_min: float = 0.0
    adjustments: int = 0

    def retarget(self, target: float) -> AdaptationPlan:
        """Plan and 'execute' a move to ``target``, updating state."""
        if self.use_perception_domain:
            plan = plan_perceived_steps(self.intensity, target, self.tau_perceived)
        else:
            tau_m = safe_measured_tau(self.range_min, self.tau_perceived)
            plan = plan_measured_steps(self.intensity, target, tau_m)
        self.adjustments += plan.n_steps
        self.intensity = target
        return plan
