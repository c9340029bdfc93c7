"""The dynamic scenario of Fig. 19: blind pull, controller, throughput.

Reproduces the paper's Section 6.3 run: the window blind moves at a
constant speed for 67 seconds, the smart-lighting controller keeps
I_led + I_ambient constant, the AMPPM designer re-selects super-symbols
as the dimming level travels, and the link reports average throughput
every second.  A parallel fixed-measured-step controller gives the
Fig. 19(c) comparison of adaptation counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.ampdesign import shared_designer
from ..core.params import SystemConfig, require_finite
from ..lighting.ambient import AmbientProfile, BlindRampAmbient
from ..lighting.controller import ControllerSample, SmartLightingController
from ..phy.optics import LinkGeometry
from .linkmodel import LinkEvaluator, expected_goodput


@dataclass(frozen=True)
class DynamicTick:
    """One second of the dynamic run."""

    t: float
    ambient: float
    led: float
    throughput_bps: float
    adjustments_smart: int
    adjustments_existing: int

    @property
    def total_light(self) -> float:
        return self.ambient + self.led


@dataclass(frozen=True)
class DynamicRunResult:
    """The full Fig. 19 dataset."""

    ticks: tuple[DynamicTick, ...]

    @property
    def times(self) -> list[float]:
        return [tick.t for tick in self.ticks]

    @property
    def throughput_bps(self) -> list[float]:
        return [tick.throughput_bps for tick in self.ticks]

    @property
    def ambient_trace(self) -> list[float]:
        return [tick.ambient for tick in self.ticks]

    @property
    def led_trace(self) -> list[float]:
        return [tick.led for tick in self.ticks]

    @property
    def sum_trace(self) -> list[float]:
        return [tick.total_light for tick in self.ticks]

    @property
    def cumulative_adjustments_smart(self) -> list[int]:
        return [tick.adjustments_smart for tick in self.ticks]

    @property
    def cumulative_adjustments_existing(self) -> list[int]:
        return [tick.adjustments_existing for tick in self.ticks]

    @property
    def adaptation_reduction(self) -> float:
        """Fraction of adjustments saved by perception-domain stepping."""
        smart = self.ticks[-1].adjustments_smart
        existing = self.ticks[-1].adjustments_existing
        if existing == 0:
            return 0.0
        return 1.0 - smart / existing


@dataclass
class DynamicScenario:
    """Drives the full dynamic pipeline."""

    config: SystemConfig = field(default_factory=SystemConfig)
    profile: AmbientProfile = field(default_factory=BlindRampAmbient)
    duration_s: float = 67.0
    tick_s: float = 1.0
    target_sum: float = 1.0
    geometry: LinkGeometry = field(
        default_factory=lambda: LinkGeometry.on_axis(3.0))

    def __post_init__(self) -> None:
        require_finite(self)
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if self.duration_s < 0:
            raise ValueError("duration_s must be non-negative")

    def run(self) -> DynamicRunResult:
        """Simulate the scenario and collect the Fig. 19 traces.

        The ambient level at the receiver also scales the channel noise
        (blind near the top → more interference), which reproduces the
        slight right-side throughput dip of Fig. 19(a).
        """
        smart = SmartLightingController(
            target_sum=self.target_sum, config=self.config,
            designer=shared_designer(self.config))
        existing = SmartLightingController(
            target_sum=self.target_sum, config=self.config,
            designer=None, use_perception_domain=False)
        evaluator = LinkEvaluator(config=self.config, geometry=self.geometry)
        return DynamicRunResult(tuple(
            DynamicTick(
                t=sample.t,
                ambient=sample.ambient,
                led=sample.led,
                throughput_bps=self._throughput(sample, evaluator),
                adjustments_smart=sample.adjustments,
                adjustments_existing=existing_sample.adjustments,
            )
            for sample, existing_sample in zip(
                smart.run(self.profile, self.duration_s, self.tick_s),
                existing.run(self.profile, self.duration_s, self.tick_s))))

    def _throughput(self, sample: ControllerSample,
                    evaluator: LinkEvaluator) -> float:
        if sample.design is None:
            return 0.0
        errors = evaluator.channel.slot_error_model(self.geometry,
                                                    sample.ambient)
        return expected_goodput(sample.design, errors, self.config)
