"""End-to-end link budget: geometry + ambient → slot error probabilities.

This is the glue between the physical substrate and the modulation
layer.  A :class:`VlcChannel` combines the Lambertian optics and the
photodiode noise model and produces, for any placement and ambient
level, the :class:`~repro.core.errormodel.SlotErrorModel` that the
AMPPM designer and the analytic link model consume.

Slot detection is a two-level Gaussian decision: after DC removal the
receiver sees a swing of s = R·P_rx between OFF and ON slot means and
thresholds at θ = t·s.  Then

    P1 = Q(t·s / σ)      (OFF decoded as ON)
    P2 = Q((1-t)·s / σ)  (ON decoded as OFF)

:func:`calibrated_channel` solves for (σ, t) such that the paper's
measured constants — P1 = 9e-5, P2 = 8e-5 at the worst case of 3.6 m
and full ambient — are met exactly, anchoring the whole distance/angle
behaviour of Figs. 16-17 to the paper's operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.errormodel import SlotErrorModel
from ..core.params import SystemConfig
from .optics import LinkGeometry, OpticalFrontEnd
from .photodiode import PhotodiodeModel

#: The paper's empirical worst case: 3.6 m, ceiling lights on, blind up.
REFERENCE_DISTANCE_M = 3.6
REFERENCE_AMBIENT = 1.0


def q_function(z: float) -> float:
    """Gaussian tail probability Q(z) = P[N(0,1) > z]."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def q_inverse(p: float, tol: float = 1e-12) -> float:
    """Inverse of :func:`q_function` by bisection (p in (0, 0.5])."""
    if not 0.0 < p <= 0.5:
        raise ValueError("q_inverse expects p in (0, 0.5]")
    lo, hi = 0.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if q_function(mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class VlcChannel:
    """A calibrated optical link.

    ``threshold_fraction`` is the decision threshold position within the
    OFF→ON swing; slightly below one half makes OFF errors a bit more
    likely than ON errors, matching the paper's P1 > P2.
    """

    optics: OpticalFrontEnd = field(default_factory=OpticalFrontEnd)
    photodiode: PhotodiodeModel = field(default_factory=PhotodiodeModel)
    threshold_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValueError("threshold_fraction must lie in (0, 1)")

    def signal_swing(self, geometry: LinkGeometry) -> float:
        """Photocurrent swing between OFF and ON slots (amps)."""
        return self.swing_from_gain(self.optics.channel_gain(geometry))

    def swing_from_gain(self, gain: float) -> float:
        """The OFF→ON photocurrent swing of a link of DC gain ``gain``.

        R·(P·H): the photocurrent of
        :meth:`~repro.phy.optics.OpticalFrontEnd.received_power_w`.
        """
        return self.photodiode.signal_current(self.optics.tx_power_w * gain)

    def snr(self, geometry: LinkGeometry, ambient: float) -> float:
        """Amplitude SNR: swing over RMS noise (0 when outside FoV)."""
        sigma = self.photodiode.noise_sigma(ambient)
        if sigma == 0:
            return math.inf
        return self.signal_swing(geometry) / sigma

    def slot_error_model(self, geometry: LinkGeometry,
                         ambient: float = REFERENCE_AMBIENT,
                         extra_noise_a: float = 0.0) -> SlotErrorModel:
        """Per-slot error probabilities at a placement and ambient level.

        ``extra_noise_a`` adds an RMS current in quadrature with the
        photodiode noise — the hook co-channel interference from
        neighbouring luminaires enters through (see
        :mod:`repro.net.interference`).
        """
        return self.swing_error_model(self.signal_swing(geometry), ambient,
                                      extra_noise_a)

    def swing_error_model(self, swing: float,
                          ambient: float = REFERENCE_AMBIENT,
                          extra_noise_a: float = 0.0) -> SlotErrorModel:
        """:meth:`slot_error_model` of a link whose swing is known.

        The one swing → slot-error step: the geometry-based form and
        the multicell kernel's per-sample link budget both end here.
        """
        if extra_noise_a < 0:
            raise ValueError("extra_noise_a must be non-negative")
        sigma = math.hypot(self.photodiode.noise_sigma(ambient),
                           extra_noise_a)
        if swing <= 0.0:
            return SlotErrorModel(0.5, 0.5)  # outside FoV: coin flips
        if sigma == 0.0:
            return SlotErrorModel.ideal()
        t = self.threshold_fraction
        p_off = q_function(t * swing / sigma)
        p_on = q_function((1.0 - t) * swing / sigma)
        return SlotErrorModel(p_off, p_on)


def calibrated_channel(config: SystemConfig | None = None,
                       optics: OpticalFrontEnd | None = None,
                       photodiode: PhotodiodeModel | None = None) -> VlcChannel:
    """Build a channel that reproduces the paper's measured constants.

    Solves for the noise floor and threshold position such that at the
    reference point (3.6 m on-axis, full ambient) the slot error
    probabilities equal ``config.p_off_error`` / ``config.p_on_error``.
    The supplied photodiode's relative ambient-vs-thermal noise split is
    preserved; only the overall scale is adjusted.
    """
    config = config if config is not None else SystemConfig()
    optics = optics if optics is not None else OpticalFrontEnd()
    photodiode = photodiode if photodiode is not None else PhotodiodeModel()

    z_off = q_inverse(config.p_off_error)
    z_on = q_inverse(config.p_on_error)
    threshold = z_off / (z_off + z_on)

    reference = LinkGeometry.on_axis(REFERENCE_DISTANCE_M)
    swing = photodiode.signal_current(optics.received_power_w(reference))
    target_sigma = threshold * swing / z_off
    current_sigma = photodiode.noise_sigma(REFERENCE_AMBIENT)
    scale = target_sigma / current_sigma

    calibrated_pd = PhotodiodeModel(
        responsivity_a_per_w=photodiode.responsivity_a_per_w,
        thermal_noise_a=photodiode.thermal_noise_a * scale,
        ambient_noise_gain=photodiode.ambient_noise_gain * scale,
        ambient_full_current_a=photodiode.ambient_full_current_a,
    )
    return VlcChannel(optics, calibrated_pd, threshold)
