"""A room with one SmartVLC luminaire and several mobile receivers.

The deployment the paper's introduction sketches: a ceiling LED serves
a room; receivers at different desks see different link geometries (and
slightly different daylight), report their ambient readings over Wi-Fi,
and the transmitter maintains constant illumination while broadcasting
data.  One :meth:`RoomSimulation.step` advances the whole closed loop:

    ambient profile → per-node sensing → Wi-Fi feedback → fused
    estimate → lighting controller → AMPPM design → per-node throughput
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.ampdesign import shared_designer
from ..core.params import SystemConfig
from ..lighting.ambient import AmbientProfile, StaticAmbient
from ..lighting.controller import SmartLightingController
from ..phy.channel import VlcChannel, calibrated_channel
from ..phy.optics import LinkGeometry
from ..schemes import shared_scheme_design
from ..sim.linkmodel import expected_goodput
from .feedback import AmbientReport, FeedbackCollector
from .interference import effective_slot_errors


@dataclass(frozen=True)
class ReceiverPlacement:
    """A receiver at a desk: position relative to the luminaire.

    ``daylight_gain`` scales the room-level ambient at this desk (a
    desk by the window sees more daylight than one in the corner).
    """

    name: str
    horizontal_offset_m: float
    vertical_drop_m: float = 2.5
    daylight_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.vertical_drop_m <= 0:
            raise ValueError("vertical_drop_m must be positive")
        if self.horizontal_offset_m < 0:
            raise ValueError("horizontal_offset_m must be non-negative")
        if not 0.0 <= self.daylight_gain <= 1.5:
            raise ValueError("daylight_gain must lie in [0, 1.5]")

    @property
    def geometry(self) -> LinkGeometry:
        """Link geometry assuming the photodiode faces the luminaire."""
        return LinkGeometry.from_offsets(self.horizontal_offset_m,
                                         self.vertical_drop_m)

    def local_ambient(self, room_ambient: float) -> float:
        """Daylight level at this desk."""
        return min(room_ambient * self.daylight_gain, 1.0)


@dataclass(frozen=True)
class NodeSample:
    """Per-receiver outcome of one simulation step."""

    name: str
    ambient: float
    throughput_bps: float
    link_ok: bool


@dataclass(frozen=True)
class RoomSample:
    """Room-wide outcome of one simulation step."""

    t: float
    fused_ambient: float
    led: float
    nodes: tuple[NodeSample, ...]

    @property
    def aggregate_throughput_bps(self) -> float:
        """Broadcast goodput summed over receivers that can decode."""
        return sum(n.throughput_bps for n in self.nodes)

    def node(self, name: str) -> NodeSample:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)


@dataclass
class RoomSimulation:
    """Closed-loop multi-receiver SmartVLC room."""

    config: SystemConfig = field(default_factory=SystemConfig)
    #: default desks stay inside the narrow (15° semi-angle) beam; the
    #: prototype's LED is a spotlight, so usable desks sit near the axis
    placements: tuple[ReceiverPlacement, ...] = (
        ReceiverPlacement("desk-under-lamp", 0.0),
        ReceiverPlacement("desk-window", 0.35, daylight_gain=1.2),
        ReceiverPlacement("desk-corner", 0.6, daylight_gain=0.7),
    )
    profile: AmbientProfile = field(default_factory=lambda: StaticAmbient(0.4))
    target_sum: float = 1.0
    channel: VlcChannel | None = None
    collector: FeedbackCollector = field(default_factory=FeedbackCollector)
    seed: int = 13

    def __post_init__(self) -> None:
        if not self.placements:
            raise ValueError("a room needs at least one receiver")
        if self.channel is None:
            self.channel = calibrated_channel(self.config)
        self._controller = SmartLightingController(
            target_sum=self.target_sum, config=self.config,
            designer=shared_designer(self.config))
        self._rng = np.random.default_rng(self.seed)
        #: minimum goodput for a node to count as "linked"
        self.link_floor_bps = 1e3

    @property
    def controller(self) -> SmartLightingController:
        """The room's lighting controller (exposed for inspection)."""
        return self._controller

    def step(self, t: float) -> RoomSample:
        """Advance the closed loop to time ``t``."""
        room_ambient = self.profile.intensity(t)

        # 1. every receiver senses locally and reports over Wi-Fi
        for placement in self.placements:
            report = AmbientReport(placement.name,
                                   placement.local_ambient(room_ambient),
                                   sensed_at=t)
            self.collector.submit(report, self._rng)

        # 2. the transmitter fuses what has arrived (its own photodiode
        #    reading of the room ambient is the fallback)
        fused = self.collector.ambient_estimate(
            t + self.collector.uplink.latency_s, fallback=room_ambient)

        # 3. lighting control + AMPPM design
        sample = self._controller.tick(t, fused)
        design = shared_scheme_design(sample.design, self.config)

        # 4. per-receiver link evaluation at the receiver's own ambient
        #    (the shared multicell path, with zero interfering cells)
        nodes = []
        for placement in self.placements:
            local = placement.local_ambient(room_ambient)
            errors = effective_slot_errors(self.channel, placement.geometry,
                                           local)
            rate = expected_goodput(design, errors, self.config)
            nodes.append(NodeSample(
                name=placement.name,
                ambient=local,
                throughput_bps=rate,
                link_ok=rate >= self.link_floor_bps,
            ))
        return RoomSample(t=t, fused_ambient=fused, led=sample.led,
                          nodes=tuple(nodes))

    def run(self, duration_s: float, tick_s: float = 1.0) -> list[RoomSample]:
        """Run the closed loop for a duration."""
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        samples = []
        t = 0.0
        while t <= duration_s + 1e-9:
            samples.append(self.step(t))
            t += tick_s
        return samples
