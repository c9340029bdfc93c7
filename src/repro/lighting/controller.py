"""The smart-lighting control loop (Section 4.3).

Two goals, verbatim from the paper:

* **Goal 1** — keep the total illumination constant:
  I_sum = I_led + I_ambient.
* **Goal 2** — reach each new LED intensity without perceptible steps
  (Type-II flicker) and in as few adjustments as possible.

The controller closes the loop between an ambient profile, the
adaptation planner and the AMPPM designer: each tick it computes the
required LED intensity, walks there in flicker-free steps, and asks the
designer for the best super-symbol at the resulting dimming level
(LED duty cycle == normalized intensity — digital dimming, Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.adaptation import Adapter, AdaptationPlan
from ..core.ampdesign import AmppmDesign, AmppmDesigner, shared_designer
from ..core.errormodel import SlotErrorModel
from ..core.params import SystemConfig
from ..core.perception import perceived_step
from ..link.supervision import LinkState
from .ambient import AmbientProfile

#: Brightest ambient level the deployment expects; fixes the darkest LED
#: intensity of the operating range, which is where the existing method
#: must size its fixed measured-domain step to stay flicker-safe.
AMBIENT_MAX = 0.90
#: Error-probability inflation of the conservative fallback designer
#: consulted while the supervised link is DEGRADED — the envelope then
#: prefers shorter, more redundant super-symbols.
DEGRADED_ERROR_MARGIN = 4.0


@dataclass(frozen=True)
class ControllerSample:
    """The controller's state after one tick."""

    t: float
    ambient: float
    led: float
    adjustments: int
    design: AmppmDesign | None
    #: link-state label the tick was computed under ("up" when unsupervised)
    link_state: str = LinkState.UP.value

    @property
    def total(self) -> float:
        """I_sum = I_led + I_ambient at this tick."""
        return self.ambient + self.led

    @property
    def dimming(self) -> float:
        """The dimming level commanded to the modulator."""
        return self.led


@dataclass
class SmartLightingController:
    """Constant-illumination controller with flicker-free adaptation.

    Attributes:
        target_sum: Desired I_led + I_ambient (user preference).
        config: System parameters (tau_p, designer bounds, ...).
        designer: AMPPM designer serving dimming requests; None runs
            the controller lighting-only (no communication).
        use_perception_domain: SmartVLC stepping when True, the
            fixed-measured-step existing method when False.

    The LED starts at ``min(target_sum, 1)``.
    """

    target_sum: float = 1.0
    config: SystemConfig = field(default_factory=SystemConfig)
    designer: AmppmDesigner | None = None
    use_perception_domain: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.target_sum <= 2.0:
            raise ValueError("target_sum must lie in (0, 2]")
        self._adapter = Adapter(
            tau_perceived=self.config.tau_perceived,
            intensity=min(self.target_sum, 1.0),
            use_perception_domain=self.use_perception_domain,
            range_min=self.required_led(AMBIENT_MAX),
        )
        self._last_design: AmppmDesign | None = None
        self._last_designed_level: float | None = None
        self._conservative: AmppmDesigner | None = None
        self._last_cons_design: AmppmDesign | None = None
        self._last_cons_level: float | None = None
        self._last_plan: AdaptationPlan | None = None

    @property
    def led_intensity(self) -> float:
        """Current measured-domain LED intensity."""
        return self._adapter.intensity

    @property
    def adjustments(self) -> int:
        """Cumulative brightness adjustments (Fig. 19(c) y-axis)."""
        return self._adapter.adjustments

    def required_led(self, ambient: float) -> float:
        """Goal 1: the LED intensity that completes the target sum."""
        return min(max(self.target_sum - ambient, 0.0), 1.0)

    @property
    def last_plan(self) -> AdaptationPlan | None:
        """The adaptation plan executed by the latest tick (if any).

        ``None`` when the latest tick left the LED where it was —
        illumination did not move, so there is no trajectory to audit.
        """
        return self._last_plan

    def tick(self, t: float, ambient: float,
             link_state: LinkState = LinkState.UP) -> ControllerSample:
        """One control step at time ``t`` with the given ambient level.

        ``link_state`` is the supervised link's health (from a
        :class:`~repro.link.supervision.LinkSupervisor`): DEGRADED
        swaps in the conservative designer, DOWN/PROBING suspends
        communication entirely (``design=None``) while illumination —
        and its flicker guarantee — carries on unchanged.
        """
        required = self.required_led(ambient)
        self._last_plan = None
        if perceived_step(self._adapter.intensity, required) > 0.0:
            self._last_plan = self._adapter.retarget(required)
        if link_state in (LinkState.DOWN, LinkState.PROBING):
            design = None  # illumination-only fallback
        elif link_state is LinkState.DEGRADED:
            design = self.conservative_design(self._adapter.intensity)
        else:
            design = self._design_for(self._adapter.intensity)
        return ControllerSample(
            t=t,
            ambient=ambient,
            led=self._adapter.intensity,
            adjustments=self._adapter.adjustments,
            design=design,
            link_state=link_state.value,
        )

    def run(self, profile: AmbientProfile, duration_s: float,
            tick_s: float = 1.0) -> list[ControllerSample]:
        """Drive the controller over an ambient profile."""
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        samples = []
        t = 0.0
        while t <= duration_s + 1e-9:
            samples.append(self.tick(t, profile.intensity(t)))
            t += tick_s
        return samples

    def _design_for(self, level: float) -> AmppmDesign | None:
        if self.designer is None:
            return None
        # Re-design only when the level actually moved (Goal 2's
        # "minimize the overhead of finding the optimal patterns").
        if (self._last_designed_level is not None
                and abs(level - self._last_designed_level) < 1e-12):
            return self._last_design
        self._last_design = self.designer.design_clamped(level)
        self._last_designed_level = level
        return self._last_design

    def _conservative_designer(self) -> AmppmDesigner | None:
        if self.designer is None:
            return None
        if self._conservative is None:
            errors = SlotErrorModel.from_config(self.config).scaled(
                DEGRADED_ERROR_MARGIN)
            try:
                self._conservative = shared_designer(self.config, errors)
            except ValueError:
                # Margin prunes every candidate: degrade to the normal
                # designer rather than losing the link entirely.
                self._conservative = self.designer
        return self._conservative

    def conservative_design(self, level: float) -> AmppmDesign | None:
        """The DEGRADED-mode design at a dimming level (also for probes).

        Uses a designer whose slot error model is inflated by
        :data:`DEGRADED_ERROR_MARGIN`, so the SER bound admits only
        shorter, more redundant super-symbols — the graceful step-down
        a supervised link takes before giving up.
        """
        designer = self._conservative_designer()
        if designer is None:
            return None
        if (self._last_cons_level is not None
                and abs(level - self._last_cons_level) < 1e-12):
            return self._last_cons_design
        self._last_cons_design = designer.design_clamped(level)
        self._last_cons_level = level
        return self._last_cons_design
