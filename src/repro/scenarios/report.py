"""Scenario reports: per-room / per-window SLOs from the event journal.

The report is computed *only* from the merged journal and the compiled
atlas — never from wall-clock state — so equal journals yield equal
reports, and the report inherits the run's determinism guarantee.

Three SLO dimensions per (room, report window):

* **goodput** — the mean of the ``link`` samples of the room's present
  occupants (a churned-out occupant contributes no sample);
* **illumination error** — the mean absolute gap between each cell's
  LED level and ``clamp(target_sum − daylight, 0, 1)`` under the *true*
  zone daylight (not the fused estimate the controller acted on): the
  error contributed by stale or gain-skewed occupant reports plus
  adaptation lag, measured against the daylight target;
* **flicker violations** — ticks on which a cell's LED moved further
  (in the perceived domain) than its executed adjustment count allows:
  ``n`` flicker-free steps of at most ``tau_perceived`` each can cover
  at most ``n·tau_perceived`` of perceived distance, so exceeding that
  bound proves at least one perceptible step was taken.  Zero whenever
  the adaptation planner honours its own constraint.

Handover counts and mean occupancy ride along for context.  SLO bounds
come from the scenario's :class:`~repro.scenarios.dsl.SloSpec`; goodput
is judged only on occupied windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..core.perception import perceived_step
from ..net.multicell import MulticellResult
from .compiler import CompiledScenario


@dataclass(frozen=True)
class WindowSlo:
    """One (room, report window) SLO row."""

    room: str
    window: int
    start_s: float
    end_s: float
    ticks: int
    present_ticks: int
    mean_occupancy: float
    mean_goodput_bps: float
    illumination_error: float
    flicker_violations: int
    handovers: int

    def as_dict(self) -> dict[str, Any]:
        """A JSON-able row (the report artifact format)."""
        return {
            "room": self.room,
            "window": self.window,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "ticks": self.ticks,
            "present_ticks": self.present_ticks,
            "mean_occupancy": self.mean_occupancy,
            "mean_goodput_bps": self.mean_goodput_bps,
            "illumination_error": self.illumination_error,
            "flicker_violations": self.flicker_violations,
            "handovers": self.handovers,
        }


@dataclass(frozen=True)
class RoomSlo:
    """One room's aggregate over all its windows."""

    room: str
    mean_goodput_bps: float
    worst_window_goodput_bps: float
    illumination_error: float
    flicker_violations: int
    handovers: int

    def as_dict(self) -> dict[str, Any]:
        """A JSON-able row (the report artifact format)."""
        return {
            "room": self.room,
            "mean_goodput_bps": self.mean_goodput_bps,
            "worst_window_goodput_bps": self.worst_window_goodput_bps,
            "illumination_error": self.illumination_error,
            "flicker_violations": self.flicker_violations,
            "handovers": self.handovers,
        }


@dataclass(frozen=True)
class ScenarioReport:
    """The SLO verdict of one scenario run (see the module docstring)."""

    scenario: str
    duration_s: float
    tick_s: float
    window_s: float
    regions: int
    journal_digest: str
    windows: tuple[WindowSlo, ...]
    rooms: tuple[RoomSlo, ...]
    violations: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        """Whether every enforced SLO held in every judged window."""
        return not self.violations

    @property
    def scenario_hours(self) -> float:
        """Simulated room-hours (the bench throughput unit)."""
        return self.duration_s * len(self.rooms) / 3600.0

    def room(self, room_id: str) -> RoomSlo:
        """A room's aggregate row by id."""
        for row in self.rooms:
            if row.room == room_id:
                return row
        raise KeyError(room_id)

    def metrics(self) -> dict[str, float]:
        """A flat metric dict (attached to the run manifest)."""
        occupied = [w for w in self.windows if w.present_ticks]
        return {
            "rooms": float(len(self.rooms)),
            "scenario_hours": self.scenario_hours,
            "mean_goodput_bps": (
                sum(w.mean_goodput_bps for w in occupied) / len(occupied)
                if occupied else 0.0),
            "illumination_error": (
                sum(w.illumination_error for w in self.windows)
                / len(self.windows) if self.windows else 0.0),
            "flicker_violations": float(
                sum(w.flicker_violations for w in self.windows)),
            "handovers": float(sum(w.handovers for w in self.windows)),
            "slo_violations": float(len(self.violations)),
            "slo_pass": 1.0 if self.passed else 0.0,
        }

    def as_dict(self) -> dict[str, Any]:
        """The JSON artifact form (``repro scenario run --report``)."""
        return {
            "kind": "scenario-report",
            "scenario": self.scenario,
            "duration_s": self.duration_s,
            "tick_s": self.tick_s,
            "window_s": self.window_s,
            "regions": self.regions,
            "journal_digest": self.journal_digest,
            "windows": [w.as_dict() for w in self.windows],
            "rooms": [r.as_dict() for r in self.rooms],
            "violations": list(self.violations),
            "notes": list(self.notes),
            "passed": self.passed,
        }

    def render(self) -> str:
        """Aligned plain-text report for the CLI."""
        lines = [
            f"scenario {self.scenario}: {self.duration_s:g} s, "
            f"{len(self.rooms)} rooms, {self.regions} region(s), "
            f"window {self.window_s:g} s",
            f"  journal digest {self.journal_digest}",
        ]
        header = (f"  {'room':<14} {'window':>14} {'occ':>5} "
                  f"{'goodput':>12} {'illum err':>10} {'flicker':>8} "
                  f"{'handover':>9}")
        lines.append(header)
        for w in self.windows:
            window = f"{w.start_s:.0f}-{w.end_s:.0f}"
            lines.append(
                f"  {w.room:<14} {window:>14} {w.mean_occupancy:>5.2f} "
                f"{w.mean_goodput_bps:>12.1f} {w.illumination_error:>10.4f} "
                f"{w.flicker_violations:>8d} {w.handovers:>9d}")
        lines.append("  rooms:")
        for r in self.rooms:
            lines.append(
                f"    {r.room:<12} goodput {r.mean_goodput_bps:>10.1f} bps "
                f"(worst window {r.worst_window_goodput_bps:.1f})  "
                f"illum err {r.illumination_error:.4f}  "
                f"flicker {r.flicker_violations}  "
                f"handovers {r.handovers}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.violations:
            lines.append(f"  SLO: FAIL ({len(self.violations)} violation(s))")
            for violation in self.violations:
                lines.append(f"    - {violation}")
        else:
            lines.append("  SLO: PASS")
        return "\n".join(lines)


def build_report(compiled: CompiledScenario,
                 result: MulticellResult) -> ScenarioReport:
    """Fold a run's journal into the per-room/per-window SLO report."""
    scenario = compiled.scenario
    duration = scenario.duration_s
    window_s = scenario.report_window_s
    n_windows = max(1, math.ceil(duration / window_s))
    tau = compiled.simulation.config.tau_perceived
    target = scenario.target_sum
    room_ids = [layout.id for layout in compiled.rooms]
    #: per-room reference cell: its control entries count the ticks
    reference = {layout.luminaires[0]: layout.id for layout in compiled.rooms}

    def window_of(t: float) -> int:
        return min(int(t / window_s), n_windows - 1)

    zeros = {room: [0.0] * n_windows for room in room_ids}
    izeros = {room: [0] * n_windows for room in room_ids}
    goodput_sum = {r: list(z) for r, z in zeros.items()}
    goodput_n = {r: list(z) for r, z in izeros.items()}
    err_sum = {r: list(z) for r, z in zeros.items()}
    err_n = {r: list(z) for r, z in izeros.items()}
    flicker = {r: list(z) for r, z in izeros.items()}
    handovers = {r: list(z) for r, z in izeros.items()}
    ticks = {r: list(z) for r, z in izeros.items()}
    last_led: dict[str, float] = {}
    last_adjustments: dict[str, int] = {}
    # A room's cells share one daylight profile and tick together.
    ambient = compiled.simulation.ambient
    profiles = {layout.id: ambient.profile_for(layout.luminaires[0])
                for layout in compiled.rooms}
    required: dict[tuple[str, float], float] = {}

    for entry in result.journal.entries:
        if entry.kind == "link":
            room = compiled.node_room[entry.actor]
            w = window_of(entry.time)
            goodput_sum[room][w] += entry.get("goodput_bps", 0.0)
            goodput_n[room][w] += 1
        elif entry.kind == "control":
            room = compiled.cell_room[entry.actor]
            w = window_of(entry.time)
            led = entry.get("led", 0.0)
            adjustments = entry.get("adjustments", 0)
            key = (room, entry.time)
            if key not in required:
                daylight = profiles[room].intensity(entry.time)
                required[key] = min(max(target - daylight, 0.0), 1.0)
            err_sum[room][w] += abs(led - required[key])
            err_n[room][w] += 1
            previous = last_led.get(entry.actor)
            if previous is not None:
                steps = adjustments - last_adjustments[entry.actor]
                if perceived_step(previous, led) > tau * steps + 1e-9:
                    flicker[room][w] += 1
            last_led[entry.actor] = led
            last_adjustments[entry.actor] = adjustments
            if entry.actor in reference:
                ticks[room][w] += 1
        elif entry.kind == "handover":
            room = compiled.node_room[entry.actor]
            handovers[room][window_of(entry.time)] += 1

    populations = {layout.id: len(layout.nodes) for layout in compiled.rooms}
    windows: list[WindowSlo] = []
    for room in room_ids:
        for w in range(n_windows):
            n_ticks = ticks[room][w]
            windows.append(WindowSlo(
                room=room, window=w,
                start_s=w * window_s,
                end_s=min((w + 1) * window_s, duration),
                ticks=n_ticks,
                present_ticks=goodput_n[room][w],
                mean_occupancy=(goodput_n[room][w] / n_ticks
                                if n_ticks else 0.0),
                mean_goodput_bps=(goodput_sum[room][w] / goodput_n[room][w]
                                  if goodput_n[room][w] else 0.0),
                illumination_error=(err_sum[room][w] / err_n[room][w]
                                    if err_n[room][w] else 0.0),
                flicker_violations=flicker[room][w],
                handovers=handovers[room][w],
            ))

    rooms: list[RoomSlo] = []
    for room in room_ids:
        rows = [w for w in windows if w.room == room]
        occupied = [w for w in rows if w.present_ticks]
        rooms.append(RoomSlo(
            room=room,
            mean_goodput_bps=(
                sum(w.mean_goodput_bps for w in occupied) / len(occupied)
                if occupied else 0.0),
            worst_window_goodput_bps=(
                min(w.mean_goodput_bps for w in occupied)
                if occupied else 0.0),
            illumination_error=(
                sum(w.illumination_error for w in rows) / len(rows)),
            flicker_violations=sum(w.flicker_violations for w in rows),
            handovers=sum(w.handovers for w in rows),
        ))

    slo = scenario.slo
    violations: list[str] = []
    for w in windows:
        where = f"{w.room} [{w.start_s:g}, {w.end_s:g})"
        if (slo.min_goodput_bps is not None and w.present_ticks
                and w.mean_goodput_bps < slo.min_goodput_bps):
            violations.append(
                f"{where}: goodput {w.mean_goodput_bps:.1f} bps < "
                f"{slo.min_goodput_bps:g}")
        if (slo.max_illumination_error is not None
                and w.illumination_error > slo.max_illumination_error):
            violations.append(
                f"{where}: illumination error {w.illumination_error:.4f} > "
                f"{slo.max_illumination_error:g}")
        if (slo.max_flicker_violations is not None
                and w.flicker_violations > slo.max_flicker_violations):
            violations.append(
                f"{where}: flicker violations {w.flicker_violations} > "
                f"{slo.max_flicker_violations}")

    notes = []
    if compiled.unprojected:
        notes.append("chaos primitives outside the DES surface: "
                     + ", ".join(compiled.unprojected))
    occupancy_s = sum(t.present_s for t in compiled.occupants)
    notes.append(f"{len(compiled.occupants)} occupants, "
                 f"{occupancy_s / 3600.0:.2f} occupant-hours; "
                 f"population per room "
                 + ", ".join(f"{room}={populations[room]}"
                             for room in room_ids))
    return ScenarioReport(
        scenario=scenario.name,
        duration_s=duration,
        tick_s=scenario.tick_s,
        window_s=window_s,
        regions=compiled.simulation.regions,
        journal_digest=result.journal.digest(),
        windows=tuple(windows),
        rooms=tuple(rooms),
        violations=tuple(violations),
        notes=tuple(notes),
    )
