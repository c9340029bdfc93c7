"""A smart-lit floor: a grid of SmartVLC luminaires, mobile receivers.

The paper's deployment story (Section 1, Fig. 2) is a building where
*every* ceiling luminaire is an AMPPM transmitter.  This module scales
the single-luminaire :class:`~repro.net.room.RoomSimulation` to that
story on top of the :mod:`repro.des` event kernel:

* each :class:`Luminaire` cell runs its own
  :class:`~repro.lighting.controller.SmartLightingController` and
  :class:`~repro.core.ampdesign.AmppmDesigner`, fed by its own Wi-Fi
  feedback plane;
* :class:`MobileNode` receivers follow :mod:`~repro.net.mobility`
  traces, associate with the strongest cell
  (:func:`strongest_cell`, hysteresis in dB so ties do not flap), and
  hand over as they move;
* co-channel interference from every other luminaire degrades the
  serving link through :mod:`~repro.net.interference`;
* faults (:class:`FaultPlan`) — receiver churn, uplink outages, and
  per-window blind ramps via :class:`AmbientField` zone overrides —
  are ordinary events on the same clock;
* everything is journaled: same-seed runs produce bit-identical
  :class:`~repro.des.EventJournal` traces.

Every tick interleaves, in deterministic priority order, node sensing
(+ association and Wi-Fi reporting), per-cell control (fusion →
lighting → AMPPM design), and per-node link measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..core.ampdesign import AmppmDesigner, shared_designer
from ..core.params import SystemConfig
from ..des import DesFeedbackPlane, EventJournal, EventScheduler
from ..lighting.ambient import AmbientProfile, StaticAmbient
from ..lighting.controller import SmartLightingController
from ..link.wifi import WifiUplink
from ..phy.channel import VlcChannel, calibrated_channel
from ..phy.optics import LinkGeometry
from ..resilience.faults import FaultPlan, schedule_plan_events
from ..schemes import AmppmSchemeDesign
from ..sim.linkmodel import expected_goodput
from .feedback import Aggregation, AmbientReport, FeedbackCollector
from .interference import Interferer, effective_slot_errors
from .mobility import MobilityModel, RandomWaypoint, StaticPosition
from .spatial import LuminaireIndex


@dataclass(frozen=True)
class Luminaire:
    """One ceiling transmitter at a floor-plane position."""

    name: str
    x_m: float
    y_m: float


def luminaire_grid(rows: int, cols: int,
                   spacing_m: float = 2.5) -> tuple[Luminaire, ...]:
    """A regular ceiling grid, cell centres ``spacing_m`` apart.

    Luminaire ``cell-r<r>c<c>`` sits at ``((c + ½)·s, (r + ½)·s)``, so
    the served floor is ``cols·s`` by ``rows·s`` metres.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    if spacing_m <= 0:
        raise ValueError("spacing_m must be positive")
    return tuple(
        Luminaire(f"cell-r{r}c{c}",
                  (c + 0.5) * spacing_m, (r + 0.5) * spacing_m)
        for r in range(rows) for c in range(cols)
    )


@dataclass(frozen=True)
class MobileNode:
    """A receiver: a mobility trace plus its local daylight gain."""

    name: str
    mobility: MobilityModel
    daylight_gain: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.daylight_gain <= 1.5:
            raise ValueError("daylight_gain must lie in [0, 1.5]")


def strongest_cell(gains: Mapping[str, float], serving: str | None,
                   hysteresis_db: float = 0.0) -> str | None:
    """Strongest-cell association with hysteresis.

    Returns the cell to camp on given per-cell channel gains: the
    strongest cell (ties broken by name for determinism), except that a
    currently serving cell is kept until a challenger beats it by
    ``hysteresis_db`` decibels — the standard ping-pong suppression.
    Returns ``None`` when no cell has positive gain (out of coverage).
    """
    if hysteresis_db < 0:
        raise ValueError("hysteresis_db must be non-negative")
    covered = {name: gain for name, gain in gains.items() if gain > 0.0}
    if not covered:
        return None
    best = min(covered, key=lambda name: (-covered[name], name))
    if serving is None or serving not in covered:
        return best
    margin = 10.0 ** (hysteresis_db / 10.0)
    if covered[best] > covered[serving] * margin:
        return best
    return serving


@dataclass(frozen=True)
class AmbientField:
    """Spatially varying ambient light, zoned by nearest luminaire.

    ``zone_overrides`` maps luminaire names to their own profiles — a
    blind ramp on one window then only affects the cells (and the nodes
    standing in them) along that wall, which is the per-window fault
    injection of the multicell scenarios.
    """

    base: AmbientProfile = field(default_factory=lambda: StaticAmbient(0.4))
    zone_overrides: tuple[tuple[str, AmbientProfile], ...] = ()

    def profile_for(self, zone: str | None) -> AmbientProfile:
        """The profile governing a zone (the base when not overridden)."""
        for name, profile in self.zone_overrides:
            if name == zone:
                return profile
        return self.base

    def level(self, t: float, zone: str | None = None) -> float:
        """Normalized ambient level at time ``t`` in a zone."""
        return self.profile_for(zone).intensity(t)


@dataclass(frozen=True)
class NodeReport:
    """Per-node outcome of a multicell run."""

    name: str
    mean_goodput_bps: float
    handovers: int
    samples: int
    down_samples: int


@dataclass(frozen=True)
class CellReport:
    """Per-cell outcome of a multicell run."""

    name: str
    adjustments: int
    adaptation_rate_hz: float
    final_led: float


@dataclass(frozen=True)
class MulticellResult:
    """Aggregate metrics plus the full event journal of one run.

    ``journal`` is always the single, globally ordered trace; for a
    sharded run (``regions > 1``) it is the deterministic merge of the
    per-region ``shards``, which are also kept for inspection.
    """

    duration_s: float
    nodes: tuple[NodeReport, ...]
    cells: tuple[CellReport, ...]
    journal: EventJournal
    shards: tuple[EventJournal, ...] = ()

    @property
    def aggregate_throughput_bps(self) -> float:
        """Time-averaged sum of all nodes' goodputs."""
        return sum(n.mean_goodput_bps for n in self.nodes)

    @property
    def total_handovers(self) -> int:
        """Handovers summed over nodes."""
        return sum(n.handovers for n in self.nodes)

    @property
    def total_adjustments(self) -> int:
        """Flicker-free brightness adjustments summed over cells."""
        return sum(c.adjustments for c in self.cells)

    def node(self, name: str) -> NodeReport:
        """A node's report by name."""
        for report in self.nodes:
            if report.name == name:
                return report
        raise KeyError(name)

    def cell(self, name: str) -> CellReport:
        """A cell's report by name."""
        for report in self.cells:
            if report.name == name:
                return report
        raise KeyError(name)

    def metrics(self) -> dict[str, float]:
        """A flat metric dict (the determinism-comparison payload)."""
        return {
            "aggregate_throughput_bps": self.aggregate_throughput_bps,
            "total_handovers": float(self.total_handovers),
            "total_adjustments": float(self.total_adjustments),
            "reports_delivered": float(self.journal.count("report-arrival")),
            "reports_lost": float(self.journal.count("report-lost")),
        }


@dataclass
class _CellState:
    """Runtime state of one luminaire cell."""

    luminaire: Luminaire
    controller: SmartLightingController
    plane: DesFeedbackPlane
    design: AmppmSchemeDesign | None = None
    led: float = 1.0

    @property
    def name(self) -> str:
        """The cell's (= luminaire's) name."""
        return self.luminaire.name


@dataclass(frozen=True)
class _TickSample:
    """Everything position-dependent a node needs within one tick.

    Computed once per (node, tick) and shared by the sense and link
    loops — historically each recomputed the position, the zone scan
    and the local ambient independently.  All members are pure
    functions of ``(node, t)``: faults (which are not) dispatch at
    priority −1, strictly before any loop at the same instant, so
    nothing here can go stale within a tick.
    """

    position: tuple[float, float]
    zone: str
    ambient: float
    #: luminaires inside the cull radius, in original tuple order
    nearby: tuple
    offsets: dict[str, float]
    geometry: dict[str, LinkGeometry]
    gains: dict[str, float]


@dataclass
class _NodeState:
    """Runtime state of one mobile receiver."""

    node: MobileNode
    serving: str | None = None
    handovers: int = 0
    down: bool = False
    goodput_sum_bps: float = 0.0
    samples: int = 0
    down_samples: int = 0
    tick_t: float | None = None
    sample: _TickSample | None = None


class _LocalView:
    """What the per-node loops see of their (sub-)kernel.

    The unsharded simulator runs every loop against one of these; the
    sharded engine subclasses it per region to route remote serving
    cells, cross-region reports, and far interference through the
    round-edge exchange (:mod:`repro.net.sharded`).  Keeping the loop
    bodies identical across both is what makes the ``regions == 1``
    digest-parity guarantee checkable rather than aspirational.
    """

    __slots__ = ("scheduler", "journal", "rng", "cells")

    def __init__(self, scheduler: EventScheduler, journal: EventJournal,
                 rng: np.random.Generator, cells: dict[str, _CellState]):
        self.scheduler = scheduler
        self.journal = journal
        self.rng = rng
        self.cells = cells

    @property
    def now(self) -> float:
        """The kernel clock."""
        return self.scheduler.now

    def serving_state(self, name: str):
        """Led/design state of a serving cell (always local here)."""
        return self.cells[name]

    def submit(self, name: str, report: AmbientReport) -> None:
        """Send an ambient report to a cell's feedback plane."""
        self.cells[name].plane.submit(report, self.rng)

    def remote_variance(self, serving: str, sample: "_TickSample") -> float:
        """Interference variance from cells outside this view (amps²)."""
        return 0.0


@dataclass
class MulticellSimulation:
    """The discrete-event multi-luminaire network simulator.

    :meth:`run` builds all per-run state (cells, planes, scheduler,
    journal) from scratch, so running the same instance twice — or two
    equal instances — produces identical journals and metrics.
    """

    config: SystemConfig = field(default_factory=SystemConfig)
    luminaires: tuple[Luminaire, ...] = field(
        default_factory=lambda: luminaire_grid(2, 2))
    nodes: tuple[MobileNode, ...] = field(default_factory=lambda: (
        MobileNode("node-00", StaticPosition(1.25, 1.25)),
        MobileNode("node-01", StaticPosition(3.75, 3.75)),
    ))
    ambient: AmbientField = field(default_factory=AmbientField)
    channel: VlcChannel | None = None
    drop_m: float = 2.0
    target_sum: float = 1.0
    tick_s: float = 1.0
    hysteresis_db: float = 2.0
    uplink: WifiUplink = field(default_factory=WifiUplink)
    aggregation: Aggregation = Aggregation.MEAN
    staleness_s: float = 5.0
    faults: FaultPlan = field(default_factory=FaultPlan)
    seed: int = 13
    #: number of spatial sub-kernels; 1 = the classic single kernel
    regions: int = 1
    #: synchronization window of a sharded run (defaults to ``tick_s``)
    lookahead_s: float | None = None
    #: cull luminaires whose gain falls below this (0 = exact FoV cull)
    gain_floor: float = 0.0
    #: False preserves the pre-index all-pairs evaluation (the
    #: benchmark baseline); journals are bit-identical either way at
    #: ``gain_floor == 0``.
    use_spatial_index: bool = True

    def __post_init__(self) -> None:
        if not self.luminaires:
            raise ValueError("a network needs at least one luminaire")
        if not self.nodes:
            raise ValueError("a network needs at least one receiver")
        names = [lum.name for lum in self.luminaires]
        if len(set(names)) != len(names):
            raise ValueError("luminaire names must be unique")
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        if self.drop_m <= 0:
            raise ValueError("drop_m must be positive")
        if self.tick_s <= 0:
            raise ValueError("tick_s must be positive")
        if self.hysteresis_db < 0:
            raise ValueError("hysteresis_db must be non-negative")
        if self.regions < 1:
            raise ValueError("regions must be positive")
        if self.regions > len(self.luminaires):
            raise ValueError("cannot have more regions than luminaires")
        if self.regions > 1 and not self.use_spatial_index:
            raise ValueError("sharded runs require the spatial index")
        if self.lookahead_s is not None and self.lookahead_s <= 0:
            raise ValueError("lookahead_s must be positive")
        if self.gain_floor < 0:
            raise ValueError("gain_floor must be non-negative")
        if self.channel is None:
            self.channel = calibrated_channel(self.config)
        known = {node.name for node in self.nodes}
        for name, _start, _end in self.faults.node_downtime:
            if name not in known:
                raise ValueError(f"downtime names unknown node {name!r}")
        self._index = (LuminaireIndex(self.luminaires, self.drop_m,
                                      self.channel.optics, self.gain_floor)
                       if self.use_spatial_index else None)

    # -- geometry helpers (shared with RoomSimulation) ------------------

    def geometry_to(self, luminaire: Luminaire,
                    position: tuple[float, float]) -> LinkGeometry:
        """Link geometry from a luminaire to a floor position."""
        horizontal = math.hypot(position[0] - luminaire.x_m,
                                position[1] - luminaire.y_m)
        return LinkGeometry.from_offsets(horizontal, self.drop_m)

    def gains_at(self, position: tuple[float, float]) -> dict[str, float]:
        """Per-cell Lambertian channel gain at a floor position.

        With the spatial index active, only luminaires inside the cull
        radius appear; everything omitted has gain exactly ``0.0``
        (when ``gain_floor == 0``), so consumers that filter positive
        gains — association does — see identical results either way.
        """
        if self._index is not None:
            return {
                lum.name: self.channel.optics.channel_gain(
                    self.geometry_to(lum, position))
                for lum in self._index.within(position)
            }
        return {
            lum.name: self.channel.optics.channel_gain(
                self.geometry_to(lum, position))
            for lum in self.luminaires
        }

    def zone_of(self, position: tuple[float, float]) -> str:
        """The ambient zone (nearest luminaire) of a floor position."""
        if self._index is not None:
            return self._index.nearest(position).name
        return min(
            self.luminaires,
            key=lambda lum: (math.hypot(position[0] - lum.x_m,
                                        position[1] - lum.y_m), lum.name),
        ).name

    # -- the run --------------------------------------------------------

    def run(self, duration_s: float) -> MulticellResult:
        """Simulate ``duration_s`` seconds and aggregate the outcome.

        With ``regions > 1`` the network executes as spatially sharded
        sub-kernels synchronized in conservative-lookahead rounds (see
        :mod:`repro.net.sharded`); at ``regions == 1`` the single
        kernel below runs everything, and a sharded run degenerates to
        a bit-identical journal.
        """
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.regions > 1:
            from .sharded import run_sharded
            return run_sharded(self, duration_s)
        for node in self.nodes:
            node.mobility.reset()
        journal = EventJournal()
        scheduler = EventScheduler()
        rng = np.random.default_rng(self.seed)

        cells = self._build_cells(scheduler, journal)
        states = {node.name: _NodeState(node=node) for node in self.nodes}

        self._schedule_faults(scheduler, journal, cells, states)
        if self._index is not None:
            view = _LocalView(scheduler, journal, rng, cells)
            for node in self.nodes:
                scheduler.spawn(
                    self._sense_loop_indexed(view, states[node.name]),
                    name=f"sense:{node.name}", priority=0)
        else:
            for node in self.nodes:
                scheduler.spawn(self._sense_loop(scheduler, journal, rng,
                                                 cells, states[node.name]),
                                name=f"sense:{node.name}", priority=0)
        for cell in cells.values():
            scheduler.spawn(self._control_loop(scheduler, journal, cell),
                            name=f"control:{cell.name}", priority=1)
        if self._index is not None:
            for node in self.nodes:
                scheduler.spawn(
                    self._link_loop_indexed(view, states[node.name]),
                    name=f"link:{node.name}", priority=2)
        else:
            for node in self.nodes:
                scheduler.spawn(self._link_loop(scheduler, journal,
                                                cells, states[node.name]),
                                name=f"link:{node.name}", priority=2)

        scheduler.run(until_s=duration_s + 1e-9)
        return self._collect(duration_s, states, cells, journal)

    def _build_cells(self, scheduler: EventScheduler, journal: EventJournal,
                     names: set[str] | None = None) -> dict[str, _CellState]:
        """Per-cell runtime state, in luminaire order.

        ``names`` restricts to a region's cells (sharded runs).  On
        the indexed path every controller shares the process's
        :func:`~repro.core.ampdesign.shared_designer`: designs are pure
        in the config and the dimming bucket, so one designer serves
        every cell.  The all-pairs path keeps per-cell construction,
        matching the historical cost profile it exists to benchmark.
        """
        shared = shared_designer(self.config) if self._index is not None \
            else None
        cells: dict[str, _CellState] = {}
        for lum in self.luminaires:
            if names is not None and lum.name not in names:
                continue
            controller = SmartLightingController(
                target_sum=self.target_sum, config=self.config,
                designer=shared or AmppmDesigner(self.config))
            collector = FeedbackCollector(
                uplink=self.uplink, aggregation=self.aggregation,
                staleness_s=self.staleness_s)
            cells[lum.name] = _CellState(
                luminaire=lum, controller=controller,
                plane=DesFeedbackPlane(scheduler, journal, collector),
                led=controller.led_intensity)
        return cells

    def _collect(self, duration_s: float, states: dict[str, _NodeState],
                 cells: dict[str, _CellState], journal: EventJournal,
                 shards: tuple[EventJournal, ...] = ()) -> MulticellResult:
        """Fold runtime state into the immutable result."""
        node_reports = tuple(
            NodeReport(
                name=name,
                mean_goodput_bps=(state.goodput_sum_bps / state.samples
                                  if state.samples else 0.0),
                handovers=state.handovers,
                samples=state.samples,
                down_samples=state.down_samples,
            )
            for name, state in states.items()
        )
        cell_reports = tuple(
            CellReport(
                name=name,
                adjustments=cell.controller.adjustments,
                adaptation_rate_hz=cell.controller.adjustments / duration_s,
                final_led=cell.led,
            )
            for name, cell in cells.items()
        )
        return MulticellResult(duration_s=duration_s, nodes=node_reports,
                               cells=cell_reports, journal=journal,
                               shards=shards)

    # -- processes ------------------------------------------------------

    def _schedule_faults(self, scheduler: EventScheduler,
                         journal: EventJournal,
                         cells: dict[str, _CellState],
                         states: dict[str, _NodeState],
                         plan: FaultPlan | None = None,
                         on_outage=None) -> None:
        """Turn the fault plan into down/up and outage events.

        Installation is delegated to the shared
        :func:`~repro.resilience.faults.schedule_plan_events`, which
        preserves the historical event order, priorities, and kinds —
        same-seed runs journal bit-identically to the pre-refactor
        simulator.  Sharded runs pass a ``plan`` filtered to the
        region's own nodes (outage windows are global and install in
        every region) plus an ``on_outage`` hook so the region can
        track the uplink state for its cross-region outbox.
        """

        def on_node_change(name: str, down: bool) -> None:
            state = states[name]
            state.down = down
            if down:
                state.serving = None  # rejoining re-associates fresh
            journal.record(scheduler.now,
                           "node-down" if down else "node-up",
                           state.node.name)

        def on_uplink_change(active: bool) -> None:
            for cell in cells.values():
                cell.plane.outage = active
            if on_outage is not None:
                on_outage(active)
            journal.record(scheduler.now,
                           "uplink-outage" if active
                           else "uplink-restored")

        schedule_plan_events(plan if plan is not None else self.faults,
                             scheduler,
                             on_node_change=on_node_change,
                             on_uplink_change=on_uplink_change)

    def _local_ambient(self, t: float, position: tuple[float, float],
                       node: MobileNode) -> float:
        """Daylight at a node: zone profile scaled by its window gain."""
        level = self.ambient.level(t, self.zone_of(position))
        return min(max(level * node.daylight_gain, 0.0), 1.0)

    def _sensed_state(self, now: float, state: _NodeState) -> _TickSample:
        """The node's per-tick sample, computed once per (node, tick).

        The sense loop (priority 0) populates it; the link loop
        (priority 2) at the same instant reuses it, eliminating the
        duplicate position/zone/ambient/geometry evaluation the two
        loops historically performed per tick.
        """
        if state.tick_t == now and state.sample is not None:
            return state.sample
        position = state.node.mobility.position(now)
        nearby = tuple(self._index.within(position))
        offsets = {
            lum.name: math.hypot(position[0] - lum.x_m,
                                 position[1] - lum.y_m)
            for lum in nearby
        }
        geometry = {
            name: LinkGeometry.from_offsets(offset, self.drop_m)
            for name, offset in offsets.items()
        }
        gains = {
            name: self.channel.optics.channel_gain(geom)
            for name, geom in geometry.items()
        }
        zone = self._index.nearest(position).name
        level = self.ambient.level(now, zone)
        ambient = min(max(level * state.node.daylight_gain, 0.0), 1.0)
        sample = _TickSample(position=position, zone=zone, ambient=ambient,
                            nearby=nearby, offsets=offsets,
                            geometry=geometry, gains=gains)
        state.tick_t = now
        state.sample = sample
        return sample

    def _sense_loop_indexed(self, view: "_LocalView", state: _NodeState):
        """Index-backed :meth:`_sense_loop`: same journal, one sample.

        Journals the exact entries of the all-pairs loop — the culled
        luminaires have gain exactly 0.0 and never influence
        association — while touching only the 3×3 bucket neighbourhood
        and trimming the mobility trace behind the clock.
        """
        while True:
            now = view.now
            if not state.down:
                sample = self._sensed_state(now, state)
                state.node.mobility.forget_before(now)
                target = strongest_cell(sample.gains, state.serving,
                                        self.hysteresis_db)
                if target != state.serving:
                    if state.serving is None:
                        view.journal.record(now, "associate",
                                            state.node.name, cell=target)
                    elif target is None:
                        view.journal.record(now, "coverage-lost",
                                            state.node.name)
                    else:
                        state.handovers += 1
                        view.journal.record(now, "handover", state.node.name,
                                            source=state.serving,
                                            target=target)
                    state.serving = target
                view.journal.record(now, "sense", state.node.name,
                                    ambient=sample.ambient,
                                    x=sample.position[0],
                                    y=sample.position[1])
                if state.serving is not None:
                    view.submit(state.serving,
                                AmbientReport(state.node.name, sample.ambient,
                                              sensed_at=now))
            yield self.tick_s

    def _link_loop_indexed(self, view: "_LocalView", state: _NodeState):
        """Index-backed :meth:`_link_loop`: culled, cached, shard-aware.

        Interferers beyond the cull radius contribute exactly ``0.0``
        variance, and surviving ones are visited in original luminaire
        order, so the accumulated float sums — and hence the journal —
        are bit-identical to the all-pairs loop.  In a sharded run the
        remote (other-region) interferers arrive pre-summed as a
        variance through the view instead.
        """
        while True:
            now = view.now
            state.samples += 1
            if state.down:
                state.down_samples += 1
                view.journal.record(now, "link-down", state.node.name)
            else:
                sample = self._sensed_state(now, state)
                goodput = 0.0
                if state.serving is not None:
                    serving = view.serving_state(state.serving)
                    if serving.design is not None:
                        geometry = sample.geometry[state.serving]
                        interferers = [
                            Interferer(sample.geometry[lum.name],
                                       view.cells[lum.name].led)
                            for lum in sample.nearby
                            if lum.name != state.serving
                            and lum.name in view.cells
                        ]
                        errors = effective_slot_errors(
                            self.channel, geometry, sample.ambient,
                            interferers,
                            extra_variance=view.remote_variance(
                                state.serving, sample))
                        goodput = expected_goodput(serving.design, errors,
                                                   self.config)
                state.goodput_sum_bps += goodput
                view.journal.record(now, "link", state.node.name,
                                    cell=state.serving or "",
                                    goodput_bps=goodput)
            yield self.tick_s

    def _sense_loop(self, scheduler, journal, rng, cells, state):
        """Per-node process: move, (re)associate, sense, report."""
        while True:
            now = scheduler.now
            if not state.down:
                position = state.node.mobility.position(now)
                gains = self.gains_at(position)
                target = strongest_cell(gains, state.serving,
                                        self.hysteresis_db)
                if target != state.serving:
                    if state.serving is None:
                        journal.record(now, "associate", state.node.name,
                                       cell=target)
                    elif target is None:
                        journal.record(now, "coverage-lost",
                                       state.node.name)
                    else:
                        state.handovers += 1
                        journal.record(now, "handover", state.node.name,
                                       source=state.serving, target=target)
                    state.serving = target
                local = self._local_ambient(now, position, state.node)
                journal.record(now, "sense", state.node.name,
                               ambient=local, x=position[0], y=position[1])
                if state.serving is not None:
                    cells[state.serving].plane.submit(
                        AmbientReport(state.node.name, local, sensed_at=now),
                        rng)
            yield self.tick_s

    def _control_loop(self, scheduler, journal, cell):
        """Per-cell process: fuse reports, relight, redesign."""
        while True:
            now = scheduler.now
            fallback = self.ambient.level(now, cell.name)
            fused = cell.plane.estimate(fallback=fallback)
            sample = cell.controller.tick(now, fused)
            cell.led = sample.led
            cell.design = (AmppmSchemeDesign(sample.design, self.config)
                           if sample.design is not None else None)
            journal.record(now, "control", cell.name, led=sample.led,
                           fused=fused, adjustments=sample.adjustments)
            yield self.tick_s

    def _link_loop(self, scheduler, journal, cells, state):
        """Per-node process: evaluate the serving link with interference."""
        while True:
            now = scheduler.now
            state.samples += 1
            if state.down:
                state.down_samples += 1
                journal.record(now, "link-down", state.node.name)
            else:
                position = state.node.mobility.position(now)
                goodput = 0.0
                if state.serving is not None:
                    serving = cells[state.serving]
                    if serving.design is not None:
                        geometry = self.geometry_to(serving.luminaire,
                                                    position)
                        interferers = [
                            Interferer(self.geometry_to(other.luminaire,
                                                        position),
                                       other.led)
                            for other in cells.values()
                            if other.name != state.serving
                        ]
                        errors = effective_slot_errors(
                            self.channel, geometry,
                            self._local_ambient(now, position, state.node),
                            interferers)
                        goodput = expected_goodput(serving.design, errors,
                                                   self.config)
                state.goodput_sum_bps += goodput
                journal.record(now, "link", state.node.name,
                               cell=state.serving or "",
                               goodput_bps=goodput)
            yield self.tick_s


def default_network(config: SystemConfig | None = None, *,
                    rows: int = 2, cols: int = 2, spacing_m: float = 2.5,
                    n_nodes: int = 4, speed_min_mps: float = 0.2,
                    speed_max_mps: float = 0.8, pause_s: float = 2.0,
                    profile: AmbientProfile | None = None,
                    seed: int = 13, **kwargs) -> MulticellSimulation:
    """A ready-to-run network: a luminaire grid plus waypoint nodes.

    Node mobility seeds are derived deterministically from ``seed``, so
    the whole scenario — traces included — is a pure function of its
    arguments.  Extra ``kwargs`` pass through to
    :class:`MulticellSimulation`.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be positive")
    config = config if config is not None else SystemConfig()
    luminaires = luminaire_grid(rows, cols, spacing_m)
    width, depth = cols * spacing_m, rows * spacing_m
    node_seeds = np.random.default_rng(seed).integers(
        0, 2 ** 31 - 1, size=n_nodes)
    nodes = tuple(
        MobileNode(f"node-{i:02d}",
                   RandomWaypoint(width, depth,
                                  speed_min_mps=speed_min_mps,
                                  speed_max_mps=speed_max_mps,
                                  pause_s=pause_s, seed=int(node_seed)))
        for i, node_seed in enumerate(node_seeds)
    )
    ambient = AmbientField(profile if profile is not None
                           else StaticAmbient(0.4))
    return MulticellSimulation(config=config, luminaires=luminaires,
                               nodes=nodes, ambient=ambient, seed=seed,
                               **kwargs)
