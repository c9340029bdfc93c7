"""Free-space optical propagation: the Lambertian line-of-sight link.

The standard VLC channel model (Komine & Nakagawa, the paper's [18]):
an LED of Lambertian order m radiates, and a photodiode of area A with
field-of-view Ψc collects

    H(0) = (m + 1) / (2 π d²) · cos^m(φ) · A · cos(ψ),   ψ <= Ψc

where φ is the irradiance angle at the LED and ψ the incidence angle at
the receiver.  The order m follows from the LED's half-power semi-angle
φ_1/2 as m = -ln 2 / ln cos(φ_1/2).

Defaults model the paper's test bed: a disassembled Philips 4.7 W
downlight (narrow beam — the Fig. 17 cut-offs imply a semi-angle near
15°) and an OSRAM SFH206K photodiode (7.5 mm², wide FoV).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


def offset_geometry(horizontal_m: float,
                    vertical_m: float) -> tuple[float, float]:
    """``(distance, angle)`` of a ceiling luminaire from a floor offset.

    ``horizontal_m`` is the floor-plane offset from the point under the
    luminaire, ``vertical_m`` the ceiling-to-photodiode drop.  With the
    photodiode facing straight up the irradiance and incidence angles
    coincide; the angle (degrees) is clamped at 89° so extreme offsets
    stay constructible (the Lambertian gain there is negligible anyway).
    Inputs are not validated: :meth:`LinkGeometry.from_offsets` is the
    checked entry point.
    """
    distance = math.hypot(horizontal_m, vertical_m)
    angle = math.degrees(math.atan2(horizontal_m, vertical_m))
    return distance, min(angle, 89.0)


@dataclass(frozen=True)
class LinkGeometry:
    """Relative placement of transmitter and receiver.

    The paper's Figs. 16-17 sweep ``distance_m`` and the incidence
    angle; for a receiver moved along an arc facing the LED the
    irradiance and incidence angles coincide, which is how
    :meth:`on_arc` builds geometries.
    """

    distance_m: float
    irradiance_angle_deg: float = 0.0
    incidence_angle_deg: float = 0.0

    def __post_init__(self) -> None:
        if self.distance_m <= 0:
            raise ValueError("distance must be positive")
        for name, angle in (("irradiance", self.irradiance_angle_deg),
                            ("incidence", self.incidence_angle_deg)):
            if not 0.0 <= angle < 90.0:
                raise ValueError(f"{name} angle must lie in [0, 90) degrees")

    @classmethod
    def on_axis(cls, distance_m: float) -> "LinkGeometry":
        """Receiver directly under the LED, facing it."""
        return cls(distance_m)

    @classmethod
    def on_arc(cls, distance_m: float, angle_deg: float) -> "LinkGeometry":
        """Receiver on a constant-distance arc, as in Fig. 17."""
        return cls(distance_m, angle_deg, angle_deg)

    @classmethod
    def from_offsets(cls, horizontal_m: float,
                     vertical_m: float) -> "LinkGeometry":
        """Geometry of a ceiling luminaire and an upward-facing receiver.

        The validated form of :func:`offset_geometry`: ``horizontal_m``
        must be non-negative and ``vertical_m`` positive.
        """
        if horizontal_m < 0:
            raise ValueError("horizontal_m must be non-negative")
        if vertical_m <= 0:
            raise ValueError("vertical_m must be positive")
        distance, angle = offset_geometry(horizontal_m, vertical_m)
        return cls(distance, angle, angle)


@dataclass(frozen=True)
class OpticalFrontEnd:
    """LED beam shape plus photodiode collection properties."""

    tx_power_w: float = 4.7
    semi_angle_deg: float = 15.0
    rx_area_m2: float = 7.5e-6
    rx_fov_deg: float = 60.0
    optical_filter_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.tx_power_w <= 0:
            raise ValueError("tx_power_w must be positive")
        if not 0.0 < self.semi_angle_deg < 90.0:
            raise ValueError("semi_angle_deg must lie in (0, 90)")
        if self.rx_area_m2 <= 0:
            raise ValueError("rx_area_m2 must be positive")
        if not 0.0 < self.rx_fov_deg <= 90.0:
            raise ValueError("rx_fov_deg must lie in (0, 90]")
        if self.optical_filter_gain <= 0:
            raise ValueError("optical_filter_gain must be positive")

    @cached_property
    def lambertian_order(self) -> float:
        """m = -ln 2 / ln cos(φ_1/2), computed once per front end."""
        return -math.log(2.0) / math.log(math.cos(math.radians(self.semi_angle_deg)))

    def gain(self, distance_m: float, irradiance_angle_deg: float,
             incidence_angle_deg: float) -> float:
        """H(0) at a distance and pair of angles; zero outside the FoV.

        The one Lambertian formula: :meth:`channel_gain` and
        :meth:`offset_gain` both evaluate it, so the object-based and
        the per-sample link budgets agree bit for bit.
        """
        if incidence_angle_deg > self.rx_fov_deg:
            return 0.0
        m = self.lambertian_order
        phi = math.radians(irradiance_angle_deg)
        psi = math.radians(incidence_angle_deg)
        radial = (m + 1.0) / (2.0 * math.pi * distance_m ** 2)
        return (radial * math.cos(phi) ** m * self.rx_area_m2
                * self.optical_filter_gain * math.cos(psi))

    def channel_gain(self, geometry: LinkGeometry) -> float:
        """Dimensionless DC gain H(0); zero outside the receiver FoV."""
        return self.gain(geometry.distance_m, geometry.irradiance_angle_deg,
                         geometry.incidence_angle_deg)

    def offset_gain(self, horizontal_m: float, vertical_m: float) -> float:
        """``channel_gain(LinkGeometry.from_offsets(h, v))``, unvalidated.

        The per-sample path of the multicell kernel: no geometry object
        is built, and the result is the same float.
        """
        distance, angle = offset_geometry(horizontal_m, vertical_m)
        return self.gain(distance, angle, angle)

    def received_power_w(self, geometry: LinkGeometry) -> float:
        """Optical power collected by the photodiode for a full-ON LED."""
        return self.tx_power_w * self.channel_gain(geometry)
