"""Analytic link model: scheme + channel → throughput.

The figure harnesses need the *expected* throughput of each scheme at a
given dimming level and channel condition, with the real frame
overheads (Table 1) included.  Two flavours:

* :func:`expected_goodput` — payload bits per unit airtime, with frame
  loss from the slot error model.  This matches the paper's throughput
  metric: the prototype keeps transmitting while ACKs return over
  Wi-Fi, so ACK latency does not stall the link (only CRC-failed frames
  are lost).
* :func:`stop_and_wait_goodput` — the conservative one-outstanding-
  frame variant (delegates to the MAC), for the ARQ-focused analyses.

A design's frame structure is fixed: its slot count is computed once
per (design, payload size) and an AMPPM design plans its symbol walk
once per payload size, so a link sample only evaluates the per-pattern
symbol error rates.  Every result equals the per-symbol computation bit
for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..baselines.base import ModulationScheme, SchemeDesign
from ..core.errormodel import SlotErrorModel
from ..core.params import MAX_PAYLOAD_BYTES, SystemConfig
from ..link.mac import StopAndWaitMac, header_success_probability
from ..link.transmitter import descriptor_for_design, overhead_slots
from ..phy.channel import VlcChannel, calibrated_channel
from ..phy.optics import LinkGeometry


def _payload_size(config: SystemConfig, payload_bytes: int | None) -> int:
    """The payload size a frame carries, checked against the header."""
    n_payload = payload_bytes if payload_bytes is not None else config.payload_bytes
    if not 0 <= n_payload <= MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload of {n_payload} bytes does not fit the "
                         f"2-byte Length field (0..{MAX_PAYLOAD_BYTES})")
    return n_payload


def frame_slot_count(design: SchemeDesign, config: SystemConfig,
                     payload_bytes: int | None = None) -> int:
    """Expected slots per frame: Table 1 overhead + modulated section."""
    return _frame_slots(design, _payload_size(config, payload_bytes),
                        config.n_max_super)


@functools.lru_cache(maxsize=4096)
def _frame_slots(design: SchemeDesign, n_payload: int,
                 n_max_super: int) -> int:
    # Keyed by the (fixed-layout) design; bounded for sweeps' fresh designs.
    overhead = overhead_slots(descriptor_for_design(design),
                              design.achieved_dimming, n_payload, n_max_super)
    return overhead + design.payload_slots(8 * (n_payload + 2))


def frame_success_probability(design: SchemeDesign, errors: SlotErrorModel,
                              config: SystemConfig,
                              payload_bytes: int | None = None) -> float:
    """Probability one frame survives: header and payload both clean."""
    n_payload = _payload_size(config, payload_bytes)
    n_bits = 8 * (n_payload + 2)
    return (header_success_probability(errors)
            * design.success_probability(n_bits, errors))


def expected_goodput(design: SchemeDesign, errors: SlotErrorModel,
                     config: SystemConfig,
                     payload_bytes: int | None = None) -> float:
    """Expected delivered payload bits per second of airtime.

    goodput = payload_bits · P(frame ok) / (frame_slots · t_slot)
    """
    n_payload = _payload_size(config, payload_bytes)
    slots = _frame_slots(design, n_payload, config.n_max_super)
    p_ok = frame_success_probability(design, errors, config, n_payload)
    return 8 * n_payload * p_ok / (slots * config.t_slot)


def stop_and_wait_goodput(design: SchemeDesign, errors: SlotErrorModel,
                          config: SystemConfig,
                          payload_bytes: int | None = None) -> float:
    """Goodput when only one frame may be outstanding (ACK stalls)."""
    return StopAndWaitMac(config).expected_throughput(design, errors,
                                                      payload_bytes)


@dataclass
class LinkEvaluator:
    """Binds a channel condition and evaluates schemes against it.

    The designer's *candidate pruning* intentionally keeps using the
    paper's conservative measured constants (the design-time error
    budget), while the *achieved throughput* uses the actual channel
    condition — exactly the paper's methodology (P1/P2 measured once at
    the 3.6 m worst case, experiments run at 3 m).
    """

    config: SystemConfig = field(default_factory=SystemConfig)
    channel: VlcChannel | None = None
    geometry: LinkGeometry = field(
        default_factory=lambda: LinkGeometry.on_axis(3.0))
    ambient: float = 1.0

    def __post_init__(self) -> None:
        if self.channel is None:
            self.channel = calibrated_channel(self.config)
        self._errors = self.channel.slot_error_model(self.geometry, self.ambient)

    @property
    def errors(self) -> SlotErrorModel:
        """The slot error model of the bound condition."""
        return self._errors

    def throughput_bps(self, scheme: ModulationScheme, dimming: float,
                       payload_bytes: int | None = None) -> float:
        """Expected goodput of a scheme at a dimming level."""
        design = scheme.design_clamped(dimming)
        return expected_goodput(design, self._errors, self.config,
                                payload_bytes)

    def at(self, geometry: LinkGeometry,
           ambient: float | None = None) -> "LinkEvaluator":
        """A new evaluator at a different placement."""
        return LinkEvaluator(
            config=self.config,
            channel=self.channel,
            geometry=geometry,
            ambient=self.ambient if ambient is None else ambient,
        )
