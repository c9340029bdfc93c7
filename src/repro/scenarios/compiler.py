"""Scenario compilation: declarative specs to a runnable DES fleet.

Rooms are laid out along ``+x`` with a wall gap wider than the
receiver's field-of-view cull radius, so *every* cross-room channel
gain is exactly zero — walls as FoV cutoffs, with no special-cased
geometry in the simulator.  The layout doubles as the sharding axis:
the sharded kernel partitions luminaires into contiguous x-strips, so
a multi-room building maps naturally onto ``regions``.

Occupancy compiles to the churn primitive (downtime complements, see
:mod:`repro.scenarios.occupancy`), daylight to per-zone ambient
overrides, and the optional chaos overlay is projected onto what the
DES injects: node churn and uplink outages stay in the simulation's
:class:`~repro.resilience.faults.FaultSchedule`, and ambient steps
fold into each room's sky via
:class:`~repro.lighting.ambient.ScheduledAmbient`.
Primitives the DES does not model (ADC blinding, ACK-loss bursts) are
reported, never silently applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from ..core.params import SystemConfig
from ..lighting.ambient import AmbientProfile, ScheduledAmbient, StaticAmbient
from ..net.mobility import MobilityModel, RandomWaypoint
from ..net.multicell import (
    AmbientField,
    Luminaire,
    MobileNode,
    MulticellSimulation,
)
from ..net.spatial import LuminaireIndex
from ..phy.channel import calibrated_channel
from ..resilience.faults import (
    AckLossBurst,
    AdcBlinding,
    FaultSchedule,
    NodeDowntime,
    UplinkOutage,
    shipped_schedules,
)
from .daylight import build_daylight
from .dsl import Scenario
from .occupancy import (
    OccupantTrace,
    build_occupants,
    downtime_windows,
    merge_windows,
)

#: Spawn-key namespace for the chaos overlay's random schedule.
_CHAOS_NS = 3

#: Extra clearance beyond the FoV cull radius between adjacent rooms.
WALL_MARGIN_M = 1.0


@dataclass
class RoomWaypoint(MobilityModel):
    """A random-waypoint trace confined to one room's floor.

    Wraps a :class:`RandomWaypoint` drawn in room-local coordinates and
    translates it to the building frame, so occupants roam their own
    room and never cross a wall.
    """

    origin_x_m: float
    origin_y_m: float
    inner: RandomWaypoint

    def position(self, t: float) -> tuple[float, float]:
        """The building-frame position at ``t``."""
        x, y = self.inner.position(t)
        return (self.origin_x_m + x, self.origin_y_m + y)


@dataclass(frozen=True)
class RoomLayout:
    """Where one room landed in the building frame."""

    id: str
    origin_x_m: float
    origin_y_m: float
    width_m: float
    depth_m: float
    luminaires: tuple[str, ...]
    nodes: tuple[str, ...]


@dataclass(frozen=True)
class CompiledScenario:
    """A scenario bound to a runnable simulation plus its atlas."""

    scenario: Scenario
    simulation: MulticellSimulation
    rooms: tuple[RoomLayout, ...]
    occupants: tuple[OccupantTrace, ...]
    wall_gap_m: float
    #: chaos primitives the DES does not model, as ``kind×count`` notes
    unprojected: tuple[str, ...] = ()
    node_room: dict[str, str] = dataclass_field(default_factory=dict)
    cell_room: dict[str, str] = dataclass_field(default_factory=dict)


def _chaos_seed(scenario_seed: int) -> int:
    """The seed of a ``random`` chaos overlay, pure in the scenario seed."""
    sequence = np.random.SeedSequence(entropy=scenario_seed,
                                      spawn_key=(_CHAOS_NS,))
    return int(sequence.generate_state(1)[0])


def _chaos_schedule(scenario: Scenario,
                    node_names: tuple[str, ...]) -> FaultSchedule:
    """Resolve the scenario's chaos overlay to a concrete schedule."""
    chaos = scenario.chaos
    assert chaos is not None
    if chaos.schedule == "random":
        return FaultSchedule.random(_chaos_seed(scenario.seed),
                                    scenario.duration_s,
                                    chaos.intensity, nodes=node_names)
    return shipped_schedules(scenario.duration_s)[chaos.schedule]


def compile_scenario(scenario: Scenario, *, regions: int = 1,
                     config: SystemConfig | None = None
                     ) -> CompiledScenario:
    """Compile a declarative scenario into a runnable DES simulation.

    Pure in ``(scenario, regions, config)``: every generator involved
    is seeded from the scenario seed through fixed spawn keys, so two
    compilations produce simulations whose runs journal identically.
    """
    config = config if config is not None else SystemConfig()
    channel = calibrated_channel(config)
    drop_m = 2.0
    probe = LuminaireIndex((Luminaire("probe", 0.0, 0.0),), drop_m,
                           channel.optics)
    if not np.isfinite(probe.radius):
        raise ValueError(
            "scenario compilation needs a finite receiver FoV "
            f"(rx_fov_deg={channel.optics.rx_fov_deg:g}): walls are "
            "enforced as FoV cutoffs")
    wall_gap = probe.radius + WALL_MARGIN_M

    luminaires: list[Luminaire] = []
    nodes: list[MobileNode] = []
    occupants: list[OccupantTrace] = []
    layouts: list[RoomLayout] = []
    node_room: dict[str, str] = {}
    cell_room: dict[str, str] = {}
    overrides: list[tuple[str, AmbientProfile]] = []
    room_profiles: list[tuple[RoomLayout, AmbientProfile]] = []

    origin_x = 0.0
    for room_index, room in enumerate(scenario.rooms):
        width = room.cols * room.spacing_m
        depth = room.rows * room.spacing_m
        cell_names = []
        for r in range(room.rows):
            for c in range(room.cols):
                name = f"{room.id}.r{r}c{c}"
                luminaires.append(Luminaire(
                    name,
                    origin_x + (c + 0.5) * room.spacing_m,
                    (r + 0.5) * room.spacing_m))
                cell_names.append(name)
                cell_room[name] = room.id
        traces = build_occupants(room.occupancy, room.id, room_index,
                                 scenario.seed)
        for trace in traces:
            mobility = RoomWaypoint(origin_x, 0.0, RandomWaypoint(
                width, depth,
                speed_min_mps=room.occupancy.speed_min_mps,
                speed_max_mps=room.occupancy.speed_max_mps,
                pause_s=room.occupancy.pause_s,
                seed=trace.mobility_seed))
            nodes.append(MobileNode(trace.name, mobility,
                                    daylight_gain=trace.daylight_gain))
            node_room[trace.name] = room.id
        occupants.extend(traces)
        layout = RoomLayout(id=room.id, origin_x_m=origin_x,
                            origin_y_m=0.0, width_m=width, depth_m=depth,
                            luminaires=tuple(cell_names),
                            nodes=tuple(t.name for t in traces))
        layouts.append(layout)
        room_profiles.append(
            (layout, build_daylight(room.daylight, scenario.seed,
                                    room_index)))
        origin_x += width + wall_gap

    # -- chaos overlay --------------------------------------------------
    downtime: dict[str, tuple[tuple[float, float], ...]] = {
        trace.name: downtime_windows(trace, scenario.duration_s)
        for trace in occupants
    }
    outages: tuple[UplinkOutage, ...] = ()
    ambient_steps: tuple[tuple[float, float], ...] = ()
    unprojected: tuple[str, ...] = ()
    if scenario.chaos is not None:
        schedule = _chaos_schedule(
            scenario, tuple(node.name for node in nodes))
        outages = schedule.of_type(UplinkOutage)
        for window in schedule.of_type(NodeDowntime):
            downtime[window.node] = merge_windows(
                downtime[window.node] + ((window.start_s, window.end_s),))
        ambient_steps = schedule.ambient_steps()
        dropped = []
        for kind in (AdcBlinding, AckLossBurst):
            count = len(schedule.of_type(kind))
            if count:
                dropped.append(f"{kind.kind}×{count}")
        unprojected = tuple(dropped)

    for layout, profile in room_profiles:
        if ambient_steps:
            profile = ScheduledAmbient(profile, ambient_steps)
        for cell_name in layout.luminaires:
            overrides.append((cell_name, profile))

    faults = FaultSchedule(tuple(
        NodeDowntime(node.name, start, end)
        for node in nodes
        for start, end in downtime[node.name]) + outages)
    simulation = MulticellSimulation(
        config=config,
        luminaires=tuple(luminaires),
        nodes=tuple(nodes),
        ambient=AmbientField(base=StaticAmbient(0.0),
                             zone_overrides=tuple(overrides)),
        drop_m=drop_m,
        target_sum=scenario.target_sum,
        tick_s=scenario.tick_s,
        # The freshest report a controller can see was sensed one tick
        # ago; a staleness window below tick_s silently disables the
        # occupant sensing plane and pins fusion to the fallback.
        staleness_s=max(5.0, scenario.tick_s),
        faults=faults,
        seed=scenario.seed,
        regions=regions,
    )
    return CompiledScenario(
        scenario=scenario, simulation=simulation, rooms=tuple(layouts),
        occupants=tuple(occupants), wall_gap_m=wall_gap,
        unprojected=unprojected, node_room=node_room, cell_room=cell_room)
