"""Conservative-lookahead sharded execution of the multicell network.

City-scale fleets (thousands of luminaires) outgrow a single event
heap: every event funnels through one queue and every link evaluation
walks one global cell table.  This module partitions a
:class:`~repro.net.multicell.MulticellSimulation` into spatial regions,
each with its **own** :class:`~repro.des.EventScheduler`, journal
shard, and (for ``regions > 1``) RNG stream, and advances them in
bounded-lookahead rounds:

* within a round ``[k·L, (k+1)·L)`` every region dispatches its local
  events independently — optical propagation is hard-limited to the
  cull radius of :class:`~repro.net.spatial.LuminaireIndex`, so the
  only inter-region coupling is luminaires near a boundary and the
  Wi-Fi uplink;
* at each round edge the regions exchange boundary state: ambient
  reports addressed to cells in other regions (the handover-candidate
  traffic), and fresh LED/design snapshots.  A link sees an
  other-region interferer through its snapshot's LED level, in the
  same one-formula sum (:func:`~repro.net.interference.
  interference_variance`) and spatial-index order as a local one.

The default lookahead is one sense tick — remote state a region
observes is then at most one tick stale, the same bound the unsharded
network already tolerates through its reporting latency and
``staleness_s`` fusion window.

**Degeneracy contract:** with ``regions=1`` there is a single region
holding everything — no outbox, no snapshots consulted, the same
single RNG stream — and the merged journal is bit-identical to the
unsharded kernel's (``tests/net/test_sharded.py`` pins the digests).
With ``regions > 1`` runs are deterministic per seed but journals are
a different (sharded) interleaving; only aggregate behaviour is
comparable to the unsharded run.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import TYPE_CHECKING

import numpy as np

from ..des import EventJournal, EventScheduler
from ..des.journal import JournalEntry
from ..obs import metrics, span
from ..resilience.faults import FaultSchedule, NodeDowntime
from .feedback import AmbientReport
from .multicell import MulticellResult, _LocalView, _NodeState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .multicell import MulticellSimulation


def merge_journals(shards: list[EventJournal] | tuple[EventJournal, ...]
                   ) -> EventJournal:
    """Merge journal shards into one globally ordered trace.

    Entries sort by ``(time, shard index, shard seq)`` and are
    re-sequenced.  A shard need not be time-sorted: with a lookahead
    longer than the sense tick, a cross-region ``report-arrival`` is
    stamped with its arrival time, which can precede the clock of the
    region that journals it.  A shard's seq is its entry's position
    (journals are append-only), so concatenating the shards in index
    order and stable-sorting on time alone yields exactly that order.
    A single time-sorted shard — every ``regions=1`` run, where each
    consumer stamps the dispatch clock — merges to *itself*, sequence
    numbers included, which is what makes the ``regions=1``
    digest-parity guarantee hold through this function rather than
    around it.
    """
    entries = [entry for shard in shards for entry in shard.entries]
    entries.sort(key=itemgetter(1))  # JournalEntry.time
    return EventJournal(entries=[
        JournalEntry(seq, time, kind, actor, detail)
        for seq, (_seq, time, kind, actor, detail) in enumerate(entries)
    ])


class _RemoteCell:
    """Round-edge snapshot of another region's cell (led + design)."""

    __slots__ = ("luminaire", "led", "design")

    def __init__(self, luminaire, led, design):
        self.luminaire = luminaire
        self.led = led
        self.design = design


class _Region:
    """One spatial shard: its kernel, journal, cells, and home nodes."""

    __slots__ = ("idx", "scheduler", "journal", "rng", "cells", "states",
                 "outage", "outbox")

    def __init__(self, idx: int, scheduler: EventScheduler,
                 journal: EventJournal, rng: np.random.Generator,
                 cells: dict, states: dict):
        self.idx = idx
        self.scheduler = scheduler
        self.journal = journal
        self.rng = rng
        self.cells = cells
        self.states = states
        self.outage = False
        #: reports for other regions: (arrival, insertion order, cell, report)
        self.outbox: list = []


class _RegionView(_LocalView):
    """A region's window onto the whole network.

    Local cells resolve exactly; remote cells resolve to the latest
    round-edge snapshot; remote report submission goes through the
    outbox.
    """

    __slots__ = ("_run", "_region")

    def __init__(self, run: "_ShardedRun", region: _Region):
        super().__init__(region.scheduler, region.journal, region.rng,
                         region.cells)
        self._run = run
        self._region = region

    def cell_state(self, name: str):
        local = self.cells.get(name)
        return local if local is not None else self._run.snapshots[name]

    def submit(self, name: str, report: AmbientReport) -> None:
        if name in self.cells:
            self.cells[name].plane.submit(report, self.rng)
        else:
            self._run.submit_remote(self._region, name, report)


class _ShardedRun:
    """One sharded execution: partition, round loop, exchange, merge."""

    def __init__(self, sim: "MulticellSimulation", duration_s: float):
        self.sim = sim
        self.duration_s = duration_s
        self.lookahead = (sim.lookahead_s if sim.lookahead_s is not None
                          else sim.tick_s)
        # Regions are contiguous chunks of the position-sorted luminaire
        # list — spatial strips, deterministic in the scenario alone.
        ordered = sorted(sim.luminaires,
                         key=lambda lum: (lum.x_m, lum.y_m, lum.name))
        n, r = len(ordered), sim.regions
        chunks = [ordered[i * n // r:(i + 1) * n // r] for i in range(r)]
        self.owner = {lum.name: idx
                      for idx, chunk in enumerate(chunks)
                      for lum in chunk}
        homes = {node.name: self.owner[sim.zone_of(
            node.mobility.position(0.0))] for node in sim.nodes}
        self.regions: list[_Region] = []
        for idx, chunk in enumerate(chunks):
            journal = EventJournal()
            scheduler = EventScheduler()
            rng = (np.random.default_rng(sim.seed) if r == 1
                   else np.random.default_rng((sim.seed, idx)))
            cells = sim._build_cells(scheduler, journal,
                                     names={lum.name for lum in chunk})
            states = {node.name: _NodeState(node=node)
                      for node in sim.nodes if homes[node.name] == idx}
            self.regions.append(_Region(idx, scheduler, journal, rng,
                                        cells, states))
        #: name -> _RemoteCell, refreshed at every round edge
        self.snapshots: dict[str, _RemoteCell] = {}

    def _install(self, region: _Region) -> None:
        """Faults and loops for one region, in the unsharded order."""
        sim = self.sim
        faults = FaultSchedule(tuple(
            fault for fault in sim.faults.faults
            if not isinstance(fault, NodeDowntime)
            or fault.node in region.states))

        def on_outage(active: bool) -> None:
            region.outage = active

        sim._schedule_faults(region.scheduler, region.journal,
                             region.cells, region.states,
                             faults=faults, on_outage=on_outage)
        view = _RegionView(self, region)
        for node in sim.nodes:
            if node.name in region.states:
                region.scheduler.spawn(
                    sim._sense_loop(view, region.states[node.name]),
                    name=f"sense:{node.name}", priority=0)
        for cell in region.cells.values():
            region.scheduler.spawn(
                sim._control_loop(region.scheduler, region.journal, cell),
                name=f"control:{cell.name}", priority=1)
        for node in sim.nodes:
            if node.name in region.states:
                region.scheduler.spawn(
                    sim._link_loop(view, region.states[node.name]),
                    name=f"link:{node.name}", priority=2)

    def submit_remote(self, region: _Region, cell_name: str,
                      report: AmbientReport) -> None:
        """A report addressed to another region's cell.

        Mirrors :meth:`~repro.net.feedback.FeedbackPlane.submit` —
        outage and Wi-Fi loss are decided (and journaled) at the sender
        using the home region's clock and RNG — but a deliverable report
        parks in the outbox until the round edge instead of scheduling
        locally.
        """
        now = region.scheduler.now
        if region.outage:
            region.journal.record(now, "report-lost", report.node,
                                  reason="outage")
            return
        arrival = self.sim.uplink.deliver(now, region.rng)
        if arrival is None:
            region.journal.record(now, "report-lost", report.node,
                                  reason="wifi-loss")
            return
        region.outbox.append((arrival, len(region.outbox), cell_name, report))

    def _exchange(self) -> None:
        """Round edge: refresh snapshots, deliver cross-region reports."""
        for region in self.regions:
            for name, cell in region.cells.items():
                self.snapshots[name] = _RemoteCell(cell.luminaire, cell.led,
                                                   cell.design)
        for region in self.regions:
            for arrival, _order, cell_name, report in sorted(
                    region.outbox, key=lambda item: (item[0], item[1])):
                target = self.regions[self.owner[cell_name]]
                cell = target.cells[cell_name]
                when = max(arrival, target.scheduler.now)

                def on_arrival(cell=cell, report=report,
                               arrival=arrival) -> None:
                    cell.plane.deliver(report)
                    cell.plane.journal.record(
                        arrival, "report-arrival", report.node,
                        value=report.value,
                        latency=arrival - report.sensed_at)

                target.scheduler.schedule_at(when, on_arrival)
            region.outbox.clear()

    def execute(self) -> MulticellResult:
        """Run the rounds, merge the shards, aggregate the result."""
        sim = self.sim
        until = self.duration_s + 1e-9
        for region in self.regions:
            self._install(region)
        rounds = 0
        with span("multicell.sharded", regions=len(self.regions),
                  lookahead_s=self.lookahead):
            self._exchange()  # initial snapshots (led=1, no design yet)
            while True:
                edge = min((rounds + 1) * self.lookahead, until)
                for region in self.regions:
                    with span("multicell.region", region=region.idx,
                              round=rounds):
                        region.scheduler.run(until_s=edge)
                self._exchange()
                rounds += 1
                if edge >= until:
                    break
        registry = metrics()
        registry.counter("repro_multicell_rounds_total",
                         help="conservative-lookahead rounds executed") \
            .inc(rounds)
        registry.gauge("repro_multicell_regions",
                       help="regions of the latest sharded run") \
            .set(float(len(self.regions)))
        shards = tuple(region.journal for region in self.regions)
        merged = merge_journals(shards)
        states = {node.name: self.regions[self._home(node.name)]
                  .states[node.name] for node in sim.nodes}
        cells = {lum.name: self.regions[self.owner[lum.name]]
                 .cells[lum.name] for lum in sim.luminaires}
        return sim._collect(self.duration_s, states, cells, merged,
                            shards=shards)

    def _home(self, node_name: str) -> int:
        for region in self.regions:
            if node_name in region.states:
                return region.idx
        raise KeyError(node_name)  # pragma: no cover (homing is total)


def run_sharded(sim: "MulticellSimulation",
                duration_s: float) -> MulticellResult:
    """Execute ``sim`` for ``duration_s`` seconds as regional shards."""
    if math.isinf(sim._index.radius) and sim.regions > 1:
        # With an uncullable field of view every luminaire interferes
        # with every receiver; sharding would only hide that coupling.
        raise ValueError("cannot shard: the receiver FoV makes every "
                         "luminaire globally visible (no finite cull radius)")
    return _ShardedRun(sim, duration_s).execute()
