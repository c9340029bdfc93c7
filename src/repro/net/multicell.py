"""A smart-lit floor: a grid of SmartVLC luminaires, mobile receivers.

The paper's deployment story (Section 1, Fig. 2) is a building where
*every* ceiling luminaire is an AMPPM transmitter.  This module runs
that story on top of the :mod:`repro.des` event kernel; its
one-luminaire case, :func:`desk_room`, is the Fig. 2 room itself:

* each :class:`Luminaire` cell runs its own
  :class:`~repro.lighting.controller.SmartLightingController`, fed by
  its own Wi-Fi feedback plane; every cell designs through the
  process's one :func:`~repro.core.ampdesign.shared_designer`;
* :class:`MobileNode` receivers follow :mod:`~repro.net.mobility`
  traces, associate with the strongest cell
  (:func:`strongest_cell`, with :data:`HYSTERESIS_DB` of hysteresis so
  ties do not flap), and hand over as they move;
* co-channel interference from every luminaire in the receiver's
  field of view degrades the serving link through
  :mod:`~repro.net.interference`; a :class:`~repro.net.spatial.
  LuminaireIndex` finds those luminaires;
* faults — receiver churn and uplink outages from a
  :class:`~repro.resilience.faults.FaultSchedule`, and per-window
  blind ramps via :class:`AmbientField` zone overrides — are ordinary
  events on the same clock;
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

from ..core.ampdesign import AmppmDesign, shared_designer
from ..core.params import SystemConfig
from ..des import EventJournal, EventScheduler
from ..lighting.ambient import AmbientProfile, StaticAmbient
from ..lighting.controller import SmartLightingController
from ..link.wifi import WifiUplink
from ..phy.channel import VlcChannel, calibrated_channel
from ..resilience.faults import FaultSchedule, NodeDowntime, UplinkOutage
from ..sim.linkmodel import expected_goodput
from .feedback import AmbientReport, FeedbackPlane
from .interference import swing_slot_errors
from .mobility import MobilityModel, RandomWaypoint, StaticPosition
from .spatial import LuminaireIndex

#: Association hysteresis: a challenger cell must beat the serving one
#: by this many decibels before a node hands over.
HYSTERESIS_DB = 2.0


@dataclass(frozen=True)
class Luminaire:
    """One ceiling transmitter at a floor-plane position."""

    name: str
    x_m: float
    y_m: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x_m) and math.isfinite(self.y_m)):
            raise ValueError(f"luminaire {self.name!r}: x_m and y_m must "
                             f"be finite")


def luminaire_grid(rows: int, cols: int,
                   spacing_m: float = 2.5) -> tuple[Luminaire, ...]:
    """A regular ceiling grid, cell centres ``spacing_m`` apart.

    Luminaire ``cell-r<r>c<c>`` sits at ``((c + ½)·s, (r + ½)·s)``, so
    the served floor is ``cols·s`` by ``rows·s`` metres.
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid needs at least one row and one column")
    if not 0 < spacing_m < math.inf:
        raise ValueError("spacing_m must be finite and positive")
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
    if not 0 <= hysteresis_db < math.inf:
        raise ValueError("hysteresis_db must be finite and non-negative")
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
    plane: FeedbackPlane
    design: AmppmDesign | None = None
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
    #: OFF→ON photocurrent swing (A) of each ``nearby`` luminaire
    swings: list[float]
    #: channel gain by ``nearby`` name (the association input)
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
    sharded engine subclasses it per region to route other regions'
    cells and cross-region reports through the round-edge exchange
    (:mod:`repro.net.sharded`).  Keeping the loop bodies identical
    across both is what makes the ``regions == 1`` digest-parity
    guarantee checkable rather than aspirational.
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

    def cell_state(self, name: str):
        """Led/design state of a cell (always local here)."""
        return self.cells[name]

    def submit(self, name: str, report: AmbientReport) -> None:
        """Send an ambient report to a cell's feedback plane."""
        self.cells[name].plane.submit(report, self.rng)


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
    uplink: WifiUplink = field(default_factory=WifiUplink)
    staleness_s: float = 5.0
    #: churn and outage windows; the other fault kinds are rejected
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    seed: int = 13
    #: number of spatial sub-kernels; 1 = the classic single kernel
    regions: int = 1
    #: synchronization window of a sharded run (defaults to ``tick_s``)
    lookahead_s: float | None = None

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
        if not 0 < self.tick_s < math.inf:
            raise ValueError("tick_s must be finite and positive")
        if not 0 < self.staleness_s < math.inf:
            raise ValueError("staleness_s must be finite and positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.regions < 1:
            raise ValueError("regions must be positive")
        if self.regions > len(self.luminaires):
            raise ValueError("cannot have more regions than luminaires")
        if self.lookahead_s is not None and not 0 < self.lookahead_s < math.inf:
            raise ValueError("lookahead_s must be finite and positive")
        if self.channel is None:
            self.channel = calibrated_channel(self.config)
        for fault in self.faults.faults:
            if not isinstance(fault, (NodeDowntime, UplinkOutage)):
                raise ValueError(f"the multicell simulator does not model "
                                 f"{type(fault).__name__} faults")
        known = {node.name for node in self.nodes}
        for window in self.faults.of_type(NodeDowntime):
            if window.node not in known:
                raise ValueError(
                    f"downtime names unknown node {window.node!r}")
        cells = {lum.name for lum in self.luminaires}
        zoned: set[str] = set()
        for zone, _profile in self.ambient.zone_overrides:
            if zone not in cells:
                raise ValueError(
                    f"zone override names unknown luminaire {zone!r}")
            if zone in zoned:
                raise ValueError(f"zone {zone!r} is overridden twice")
            zoned.add(zone)
        # The index validates drop_m.
        self._index = LuminaireIndex(self.luminaires, self.drop_m,
                                     self.channel.optics)

    def zone_of(self, position: tuple[float, float]) -> str:
        """The ambient zone (nearest luminaire) of a floor position."""
        return self._index.nearest(position).name

    # -- the run --------------------------------------------------------

    def run(self, duration_s: float) -> MulticellResult:
        """Simulate ``duration_s`` seconds and aggregate the outcome.

        With ``regions > 1`` the network executes as spatially sharded
        sub-kernels synchronized in conservative-lookahead rounds (see
        :mod:`repro.net.sharded`); at ``regions == 1`` the single
        kernel below runs everything, and a sharded run degenerates to
        a bit-identical journal.
        """
        if not 0 < duration_s < math.inf:
            raise ValueError("duration_s must be finite and positive")
        if self.regions > 1:
            from .sharded import run_sharded
            return run_sharded(self, duration_s)
        journal = EventJournal()
        scheduler = EventScheduler()
        rng = np.random.default_rng(self.seed)

        cells = self._build_cells(scheduler, journal)
        states = {node.name: _NodeState(node=node) for node in self.nodes}

        self._schedule_faults(scheduler, journal, cells, states)
        view = _LocalView(scheduler, journal, rng, cells)
        for node in self.nodes:
            scheduler.spawn(self._sense_loop(view, states[node.name]),
                            name=f"sense:{node.name}", priority=0)
        for cell in cells.values():
            scheduler.spawn(self._control_loop(scheduler, journal, cell),
                            name=f"control:{cell.name}", priority=1)
        for node in self.nodes:
            scheduler.spawn(self._link_loop(view, states[node.name]),
                            name=f"link:{node.name}", priority=2)

        scheduler.run(until_s=duration_s + 1e-9)
        return self._collect(duration_s, states, cells, journal)

    def _build_cells(self, scheduler: EventScheduler, journal: EventJournal,
                     names: set[str] | None = None) -> dict[str, _CellState]:
        """Per-cell runtime state, in luminaire order.

        ``names`` restricts to a region's cells (sharded runs).  Every
        controller shares the process's
        :func:`~repro.core.ampdesign.shared_designer`: designs are pure
        in the config and the dimming bucket, so one designer serves
        every cell.
        """
        designer = shared_designer(self.config)
        cells: dict[str, _CellState] = {}
        for lum in self.luminaires:
            if names is not None and lum.name not in names:
                continue
            controller = SmartLightingController(
                target_sum=self.target_sum, config=self.config,
                designer=designer)
            cells[lum.name] = _CellState(
                luminaire=lum, controller=controller,
                plane=FeedbackPlane(scheduler, journal, self.uplink,
                                    self.staleness_s),
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
                         faults: FaultSchedule | None = None,
                         on_outage=None) -> None:
        """Turn churn and outage windows into down/up and outage events.

        Every downtime window installs first (down, then up), then every
        outage window, all at priority −1 — strictly before any loop at
        the same instant.  Installing by kind keeps the journal
        independent of how the schedule interleaves the two.  Sharded
        runs pass ``faults`` filtered to the region's own nodes (outage
        windows are global and install in every region) plus an
        ``on_outage`` hook so the region can track the uplink state for
        its cross-region outbox.
        """

        def node_change(name: str, down: bool):
            def apply() -> None:
                state = states[name]
                state.down = down
                if down:
                    state.serving = None  # rejoining re-associates fresh
                journal.record(scheduler.now,
                               "node-down" if down else "node-up", name)
            return apply

        def uplink_change(active: bool):
            def apply() -> None:
                for cell in cells.values():
                    cell.plane.outage = active
                if on_outage is not None:
                    on_outage(active)
                journal.record(scheduler.now,
                               "uplink-outage" if active
                               else "uplink-restored")
            return apply

        faults = faults if faults is not None else self.faults
        for window in faults.of_type(NodeDowntime):
            scheduler.schedule_at(window.start_s,
                                  node_change(window.node, True), priority=-1)
            scheduler.schedule_at(window.end_s,
                                  node_change(window.node, False), priority=-1)
        for window in faults.of_type(UplinkOutage):
            scheduler.schedule_at(window.start_s, uplink_change(True),
                                  priority=-1)
            scheduler.schedule_at(window.end_s, uplink_change(False),
                                  priority=-1)

    def _sensed_state(self, now: float, state: _NodeState) -> _TickSample:
        """The node's per-tick sample, computed once per (node, tick).

        The sense loop (priority 0) populates it; the link loop
        (priority 2) at the same instant reuses it.  One pass turns
        each in-range luminaire's offset into its gain and swing —
        the same floats as ``channel_gain(LinkGeometry.from_offsets(
        ...))`` and ``signal_swing`` — and the zone is the nearest of
        those offsets: whenever any luminaire is in range the nearest
        one is too, so :meth:`LuminaireIndex.nearest` is only needed
        when none is.
        """
        if state.tick_t == now and state.sample is not None:
            return state.sample
        position = state.node.mobility.position(now)
        x, y = position
        nearby = tuple(self._index.within(position))
        offsets = [math.hypot(x - lum.x_m, y - lum.y_m) for lum in nearby]
        optics, drop = self.channel.optics, self.drop_m
        gains = {lum.name: optics.offset_gain(offset, drop)
                 for lum, offset in zip(nearby, offsets)}
        swings = [self.channel.swing_from_gain(gain)
                  for gain in gains.values()]
        if nearby:
            zone = min(zip(offsets, (lum.name for lum in nearby)))[1]
        else:
            zone = self._index.nearest(position).name
        level = self.ambient.level(now, zone)
        ambient = min(max(level * state.node.daylight_gain, 0.0), 1.0)
        sample = _TickSample(position=position, zone=zone, ambient=ambient,
                            nearby=nearby, swings=swings, gains=gains)
        state.tick_t = now
        state.sample = sample
        return sample

    def _sense_loop(self, view: "_LocalView", state: _NodeState):
        """Per-node process: move, (re)associate, sense, report.

        Association sees only the luminaires the tick's sample found in
        range; every culled one has gain exactly 0.0, which association
        ignores.
        """
        while True:
            now = view.now
            if not state.down:
                sample = self._sensed_state(now, state)
                target = strongest_cell(sample.gains, state.serving,
                                        HYSTERESIS_DB)
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

    def _link_loop(self, view: "_LocalView", state: _NodeState):
        """Per-node process: evaluate the serving link with interference.

        Interferers beyond the cull radius would contribute exactly
        ``0.0`` variance, and the ones in range are visited in original
        luminaire order, so the float sums equal those of a scan over
        every luminaire.  Swings come from the tick's sample; a serving
        cell outside it would have gain 0.0, hence swing 0.0.  Each
        interferer's LED level comes from the view: in a sharded run an
        other-region cell resolves to its round-edge snapshot, and it
        enters the same one-formula sum as a local cell.
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
                    serving = view.cell_state(state.serving)
                    if serving.design is not None:
                        own, interference = 0.0, []
                        for lum, swing in zip(sample.nearby, sample.swings):
                            if lum.name == state.serving:
                                own = swing
                            else:
                                interference.append(
                                    (view.cell_state(lum.name).led, swing))
                        errors = swing_slot_errors(
                            self.channel, own, sample.ambient, interference)
                        goodput = expected_goodput(serving.design, errors,
                                                   self.config)
                state.goodput_sum_bps += goodput
                view.journal.record(now, "link", state.node.name,
                                    cell=state.serving or "",
                                    goodput_bps=goodput)
            yield self.tick_s

    def _control_loop(self, scheduler, journal, cell):
        """Per-cell process: fuse reports, relight, redesign."""
        while True:
            now = scheduler.now
            fused = cell.plane.estimate()
            if fused is None:
                fused = self.ambient.level(now, cell.name)
            sample = cell.controller.tick(now, fused)
            cell.led = sample.led
            cell.design = sample.design
            journal.record(now, "control", cell.name, led=sample.led,
                           fused=fused, adjustments=sample.adjustments)
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


def desk_room(config: SystemConfig | None = None, *,
              profile: AmbientProfile | None = None,
              seed: int = 13, **kwargs) -> MulticellSimulation:
    """The paper's Fig. 2 room: one luminaire, three desks on Wi-Fi.

    The luminaire ``lamp`` hangs 2.5 m above the origin.  Three static
    desks sit 0, 0.35 and 0.6 m from its axis, inside the narrow (15°
    semi-angle) beam: the prototype's LED is a spotlight, so usable
    desks sit near the axis.  Their daylight gains (1.0, 1.2 and 0.7)
    scale the room's ``profile`` at each desk — the window desk sees
    more daylight than the corner one.  Every tick each desk senses,
    reports over the Wi-Fi uplink and measures its link.  Extra
    ``kwargs`` pass through to :class:`MulticellSimulation`.
    """
    config = config if config is not None else SystemConfig()
    desks = (("desk-under-lamp", 0.0, 1.0), ("desk-window", 0.35, 1.2),
             ("desk-corner", 0.6, 0.7))
    nodes = tuple(MobileNode(name, StaticPosition(x_m, 0.0),
                             daylight_gain=gain)
                  for name, x_m, gain in desks)
    ambient = AmbientField(profile if profile is not None
                           else StaticAmbient(0.4))
    return MulticellSimulation(config=config,
                               luminaires=(Luminaire("lamp", 0.0, 0.0),),
                               nodes=nodes, ambient=ambient, drop_m=2.5,
                               seed=seed, **kwargs)
