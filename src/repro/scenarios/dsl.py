"""The declarative scenario DSL: frozen specs plus one strict reader.

A :class:`Scenario` is a day (or any stretch) of building life: rooms
with their own luminaire grids, daylight curves behind their own
windows, seeded occupant populations that arrive, break, and leave, an
optional chaos overlay, and the SLOs the run is judged against.  The
schema is versioned (:data:`SCHEMA_VERSION`).

One reader and one writer, both driven by the spec dataclasses, turn
documents into specs and back: a document's keys are its spec's
fields, a key is required exactly when its field has no default, and
each value must already have its field's declared type — a float
field takes a JSON number (never a string or a boolean), an int field
a whole number, a str field a string, a spec field a mapping,
``rooms`` a list, and an optional field also null.  Every range check
lives in the specs' ``__post_init__``.  Unknown keys, missing keys,
version drift, mistyped values, negative durations and seeds,
non-finite numbers, fractional counts, duplicate room ids, more than
:data:`MAX_STEPS` ticks, report windows or cloud knots, and more than
:data:`MAX_DEVICE_TICKS` ticks x (luminaires + occupants) are hard
errors, never silent defaults, so a pinned file keeps its meaning.

Everything here is declarative: specs carry no generators and no
numpy state.  Compilation to profiles, traces, and the DES lives in
:mod:`repro.scenarios.daylight`, :mod:`repro.scenarios.occupancy`, and
:mod:`repro.scenarios.compiler`; ``to_dict``/``from_dict`` round-trip
exactly (floats included), which the test suite checks by hypothesis.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Mapping

from ..core.params import require_finite
from ..resilience.faults import SHIPPED_SCHEDULES

#: The schema understood by :meth:`Scenario.from_dict`.
SCHEMA_VERSION = 1

#: Chaos overlays resolvable by name: the shipped fault schedules plus
#: the seeded ``random`` mix.
CHAOS_SCHEDULES = SHIPPED_SCHEDULES + ("random",)

#: Most sense ticks, report windows or cloud knots one scenario may
#: ask for: past it a run would not finish in useful time, or its
#: report's window list or a room's cloud knots would exhaust memory.
MAX_STEPS = 100_000
#: Most ticks x (luminaires + occupants) one scenario may ask for.
MAX_DEVICE_TICKS = 10 * MAX_STEPS


def _label(spec: type) -> str:
    """How messages name a spec: ``RoomSpec`` is ``room``."""
    return spec.__name__.removesuffix("Spec").lower()


def _read(spec: type, row: Any) -> Any:
    """Build ``spec`` from a document mapping.

    The keys are the spec's fields, those without a default are
    required, and each value is checked by :func:`_typed` against its
    field's annotation.
    """
    what = _label(spec)
    if not isinstance(row, Mapping):
        raise ValueError(f"{what} must be a mapping, "
                         f"got {type(row).__name__}")
    declared = {f.name: f for f in fields(spec)}
    unknown = sorted(set(row) - set(declared))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    missing = sorted(name for name, f in declared.items()
                     if name not in row and f.default is MISSING
                     and f.default_factory is MISSING)
    if missing:
        raise ValueError(f"{what} missing key(s): {', '.join(missing)}")
    return spec(**{key: _typed(key, declared[key].type, value)
                   for key, value in row.items()})


def _typed(key: str, annotation: str, value: Any) -> Any:
    """``value`` checked against the annotation of field ``key``.

    An integer for a float field comes back as a float, a whole float
    for an int field as an int, and a mapping for a spec field as the
    spec.  Annotations are matched as the strings this module spells
    (``from __future__ import annotations``), never evaluated: before
    Python 3.10, ``X | None`` does not evaluate.  A value of any other
    type is a ``ValueError`` naming ``key``.
    """
    if annotation.endswith(" | None"):
        if value is None:
            return None
        annotation = annotation[:-len(" | None")]
    if annotation == "float":
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                pass
        raise ValueError(f"{key} must be a number, got {value!r}")
    if annotation == "int":
        if isinstance(value, float) and value.is_integer():
            return int(value)
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    if annotation == "str":
        if isinstance(value, str):
            return value
        raise ValueError(f"{key} must be a string, got {value!r}")
    if annotation.startswith("tuple["):
        item = _SPECS[annotation[len("tuple["):-len(", ...]")]]
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{key} must be a list of {_label(item)} "
                             f"mappings")
        return tuple(_read(item, entry) for entry in value)
    return _read(_SPECS[annotation], value)


@dataclass(frozen=True)
class DaylightSpec:
    """One room's sky: a piecewise solar arc seen through its window.

    ``window_gain`` scales what the glazing admits — the per-room
    heterogeneity knob that turns one shared sky into different indoor
    daylight levels.  Times are scenario-clock seconds; an arc entirely
    outside the run (``sunrise_s`` past the duration) is a legal night
    scenario.
    """

    sunrise_s: float = 6.0 * 3600.0
    sunset_s: float = 18.0 * 3600.0
    peak_level: float = 0.85
    night_level: float = 0.02
    cloud_depth: float = 0.15
    cloud_time_scale_s: float = 900.0
    window_gain: float = 1.0

    def __post_init__(self) -> None:
        require_finite(self)
        if not 0.0 <= self.sunrise_s < self.sunset_s:
            raise ValueError("need 0 <= sunrise_s < sunset_s")
        if not 0.0 <= self.night_level <= self.peak_level <= 1.0:
            raise ValueError("need 0 <= night_level <= peak_level <= 1")
        if not 0.0 <= self.cloud_depth < 1.0:
            raise ValueError("cloud_depth must lie in [0, 1)")
        if self.cloud_time_scale_s <= 0:
            raise ValueError("cloud_time_scale_s must be positive")
        if ((self.sunset_s - self.sunrise_s) / self.cloud_time_scale_s
                > MAX_STEPS):
            raise ValueError(f"cloud_time_scale_s must leave at most "
                             f"{MAX_STEPS} cloud knots in daylight")
        if not 0.0 < self.window_gain <= 1.0:
            raise ValueError("window_gain must lie in (0, 1]")


@dataclass(frozen=True)
class OccupancySpec:
    """One room's population: seeded arrival/break/departure windows.

    Each of the ``population`` occupants draws an arrival uniformly in
    ``[arrive_lo_s, arrive_hi_s]``, a departure in ``[depart_lo_s,
    depart_hi_s]``, and — with ``break_probability`` — one mid-day
    absence of ``break_duration_s`` starting in ``[break_lo_s,
    break_hi_s]``.  While present they follow a random-waypoint trace
    inside their room at the given speeds.  Windows must be ordered
    (arrivals before breaks before departures) so every draw yields a
    valid presence timeline.
    """

    population: int
    arrive_lo_s: float = 0.0
    arrive_hi_s: float = 0.0
    depart_lo_s: float = 3600.0
    depart_hi_s: float = 3600.0
    break_probability: float = 0.0
    break_lo_s: float = 0.0
    break_hi_s: float = 0.0
    break_duration_s: float = 0.0
    speed_min_mps: float = 0.3
    speed_max_mps: float = 1.0
    pause_s: float = 15.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.population < 1:
            raise ValueError("population must be at least 1")
        if self.arrive_lo_s < 0:
            raise ValueError("arrive_lo_s must be non-negative")
        if not (self.arrive_lo_s <= self.arrive_hi_s
                <= self.depart_lo_s <= self.depart_hi_s):
            raise ValueError("need arrive_lo_s <= arrive_hi_s <= "
                             "depart_lo_s <= depart_hi_s")
        if self.depart_hi_s <= self.arrive_hi_s:
            raise ValueError("departures must end after arrivals")
        if not 0.0 <= self.break_probability <= 1.0:
            raise ValueError("break_probability must lie in [0, 1]")
        if self.break_duration_s < 0:
            raise ValueError("break_duration_s must be non-negative")
        if self.break_probability > 0.0:
            if self.break_duration_s <= 0:
                raise ValueError("breaks need a positive break_duration_s")
            if not (self.arrive_hi_s <= self.break_lo_s <= self.break_hi_s):
                raise ValueError("need arrive_hi_s <= break_lo_s "
                                 "<= break_hi_s")
            if self.break_hi_s + self.break_duration_s > self.depart_lo_s:
                raise ValueError("breaks must end before departures begin")
        if not 0.0 < self.speed_min_mps <= self.speed_max_mps:
            raise ValueError("need 0 < speed_min_mps <= speed_max_mps")
        if self.pause_s < 0:
            raise ValueError("pause_s must be non-negative")


@dataclass(frozen=True)
class RoomSpec:
    """One room: a luminaire grid behind walls, a sky, a population.

    ``rows × cols`` ceiling luminaires at ``spacing_m``; the compiler
    places rooms far enough apart that the receiver field of view cuts
    every cross-room gain to exactly zero — walls as FoV cutoffs.
    """

    id: str
    rows: int = 2
    cols: int = 2
    spacing_m: float = 2.5
    daylight: DaylightSpec = field(default_factory=DaylightSpec)
    occupancy: OccupancySpec = field(
        default_factory=lambda: OccupancySpec(population=2))

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.id or not isinstance(self.id, str):
            raise ValueError("room id must be a non-empty string")
        if any(sep in self.id for sep in (".", "/", "\n")):
            raise ValueError("room ids must not contain '.', '/', "
                             "or newlines")
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rooms need at least one luminaire "
                             "row and column")
        if not 0.0 < self.spacing_m <= 4.0:
            raise ValueError("spacing_m must lie in (0, 4] so every "
                             "occupant stays in their own room's zones")


@dataclass(frozen=True)
class ChaosSpec:
    """An optional fault overlay: a named resilience schedule.

    ``schedule`` picks one of the curated schedules (scaled to the
    scenario duration) or ``random`` — the seeded, ``intensity``-scaled
    mix derived from the scenario seed.  Only the primitives the DES
    projects (churn, uplink outages, ambient steps) take effect; the
    rest are surfaced in the report notes rather than silently applied.
    """

    schedule: str
    intensity: float = 0.5

    def __post_init__(self) -> None:
        require_finite(self)
        if self.schedule not in CHAOS_SCHEDULES:
            raise ValueError(f"unknown chaos schedule {self.schedule!r}; "
                             f"expected one of {', '.join(CHAOS_SCHEDULES)}")
        if not 0.0 <= self.intensity <= 1.0:
            raise ValueError("intensity must lie in [0, 1]")


@dataclass(frozen=True)
class SloSpec:
    """The service-level objectives a scenario run is judged against.

    Each bound applies per room per report window; ``None`` leaves that
    dimension unenforced.  Goodput is judged only on *occupied* windows
    (an empty room owes nobody throughput), illumination error is the
    mean LED tracking error against the flicker-constrained target, and
    flicker violations count perceived steps beyond the configured
    perception threshold.
    """

    min_goodput_bps: float | None = None
    max_illumination_error: float | None = None
    max_flicker_violations: int | None = None

    def __post_init__(self) -> None:
        require_finite(self)
        if self.min_goodput_bps is not None and self.min_goodput_bps < 0:
            raise ValueError("min_goodput_bps must be non-negative")
        if (self.max_illumination_error is not None
                and self.max_illumination_error < 0):
            raise ValueError("max_illumination_error must be non-negative")
        if (self.max_flicker_violations is not None
                and self.max_flicker_violations < 0):
            raise ValueError("max_flicker_violations must be non-negative")


#: The specs a document nests, by the names their annotations spell.
_SPECS = {spec.__name__: spec
          for spec in (DaylightSpec, OccupancySpec, RoomSpec, ChaosSpec,
                       SloSpec)}


@dataclass(frozen=True)
class Scenario:
    """A complete declarative scenario (see the module docstring)."""

    name: str
    rooms: tuple[RoomSpec, ...]
    seed: int = 0
    duration_s: float = 3600.0
    tick_s: float = 5.0
    report_window_s: float = 3600.0
    target_sum: float = 1.0
    description: str = ""
    chaos: ChaosSpec | None = None
    slo: SloSpec = field(default_factory=SloSpec)

    def __post_init__(self) -> None:
        require_finite(self)
        if not self.name or not isinstance(self.name, str):
            raise ValueError("scenario name must be a non-empty string")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not 0.0 < self.tick_s <= self.duration_s:
            raise ValueError("tick_s must lie in (0, duration_s]")
        if self.duration_s / self.tick_s > MAX_STEPS:
            raise ValueError(f"tick_s must leave at most {MAX_STEPS} "
                             f"ticks in duration_s")
        if self.report_window_s <= 0:
            raise ValueError("report_window_s must be positive")
        if self.duration_s / self.report_window_s > MAX_STEPS:
            raise ValueError(f"report_window_s must leave at most "
                             f"{MAX_STEPS} report windows in duration_s")
        if not 0.0 < self.target_sum <= 1.5:
            raise ValueError("target_sum must lie in (0, 1.5]")
        if not self.rooms:
            raise ValueError("a scenario needs at least one room")
        ids = [room.id for room in self.rooms]
        duplicates = sorted({i for i in ids if ids.count(i) > 1})
        if duplicates:
            raise ValueError(
                f"overlapping room id(s): {', '.join(duplicates)}")
        for room in self.rooms:
            if room.occupancy.depart_hi_s > self.duration_s:
                raise ValueError(
                    f"room {room.id!r}: departures extend past the "
                    f"scenario duration ({room.occupancy.depart_hi_s:g} > "
                    f"{self.duration_s:g})")
        if (self.n_luminaires + self.population
                > MAX_DEVICE_TICKS * self.tick_s / self.duration_s):
            raise ValueError(f"tick_s, rows, cols and population must leave "
                             f"at most {MAX_DEVICE_TICKS} ticks x (luminaires"
                             f" + occupants) in duration_s")

    @property
    def n_luminaires(self) -> int:
        """Total ceiling luminaires across all rooms."""
        return sum(room.rows * room.cols for room in self.rooms)

    @property
    def population(self) -> int:
        """Total occupants across all rooms."""
        return sum(room.occupancy.population for room in self.rooms)

    def to_dict(self) -> dict[str, Any]:
        """The exact JSON-able form (round-trips via :meth:`from_dict`)."""
        document = asdict(self)
        document["rooms"] = list(document["rooms"])
        return {"version": SCHEMA_VERSION, **document}

    @classmethod
    def from_dict(cls, row: Mapping[str, Any]) -> "Scenario":
        """Strictly parse a scenario document (the versioned schema).

        A missing or mismatched ``version`` and everything the reader
        rejects (see the module docstring) are hard errors.
        """
        if isinstance(row, Mapping):
            row = dict(row)
            if "version" not in row:
                raise ValueError("scenario missing key(s): version")
            version = row.pop("version")
            if type(version) is not int or version != SCHEMA_VERSION:
                raise ValueError(f"unsupported scenario schema version "
                                 f"{version!r} (this build reads "
                                 f"{SCHEMA_VERSION})")
        return _read(cls, row)

    def to_json(self) -> str:
        """The scenario as an indented JSON document."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def load_scenario(path: str | Path) -> Scenario:
    """Read one scenario from a JSON file through the strict loader."""
    payload = json.loads(Path(path).read_text())
    return Scenario.from_dict(payload)
