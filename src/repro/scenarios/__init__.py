"""Trace-driven scenarios: daylight, occupancy, deployments, SLOs.

The scenario engine turns the sharded DES + resilience + lighting
stack into a system judged against *days of building life* instead of
point benchmarks: a declarative, versioned DSL (:mod:`~repro.
scenarios.dsl`) composes per-room daylight curves, seeded occupant
populations, multi-room luminaire fleets separated by FoV-cutoff
walls, and optional chaos overlays; :class:`ScenarioRunner` compiles
and runs it at fleet scale and emits a :class:`ScenarioReport` of
per-room/per-window SLOs under :class:`~repro.obs.manifest.
RunManifest` provenance.  ``shipped_scenarios()`` holds the curated
named days used by ``repro scenario``, the ``ext-scenarios``
experiment, the tests, and the benchmarks.
"""

from .compiler import (
    CompiledScenario,
    RoomLayout,
    RoomWaypoint,
    compile_scenario,
)
from .daylight import build_daylight, clear_sky, night_sky, overcast_sky
from .dsl import (
    CHAOS_SCHEDULES,
    SCHEMA_VERSION,
    ChaosSpec,
    DaylightSpec,
    OccupancySpec,
    RoomSpec,
    Scenario,
    SloSpec,
    load_scenario,
)
from .occupancy import (
    OccupantTrace,
    build_occupants,
    downtime_windows,
    merge_windows,
)
from .report import RoomSlo, ScenarioReport, WindowSlo, build_report
from .runner import ScenarioRun, ScenarioRunner
from .shipped import SMOKE_SCENARIO, shipped_scenarios

__all__ = [
    "CHAOS_SCHEDULES",
    "ChaosSpec",
    "CompiledScenario",
    "DaylightSpec",
    "OccupancySpec",
    "OccupantTrace",
    "RoomLayout",
    "RoomSlo",
    "RoomSpec",
    "RoomWaypoint",
    "SCHEMA_VERSION",
    "SMOKE_SCENARIO",
    "Scenario",
    "ScenarioReport",
    "ScenarioRun",
    "ScenarioRunner",
    "SloSpec",
    "WindowSlo",
    "build_daylight",
    "build_occupants",
    "build_report",
    "clear_sky",
    "compile_scenario",
    "downtime_windows",
    "load_scenario",
    "merge_windows",
    "night_sky",
    "overcast_sky",
    "shipped_scenarios",
]
