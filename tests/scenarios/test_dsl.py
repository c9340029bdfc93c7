"""The scenario DSL: strict loading, validation, exact round-trips."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    CHAOS_SCHEDULES,
    ChaosSpec,
    DaylightSpec,
    OccupancySpec,
    RoomSpec,
    Scenario,
    SloSpec,
    load_scenario,
)
from repro.scenarios.dsl import MAX_DEVICE_TICKS, MAX_STEPS

#: The fields a spec has no default for, set to a valid value.
REQUIRED = {OccupancySpec: dict(population=2),
            ChaosSpec: dict(schedule="mixed")}


def tiny_room(room_id="a", **occupancy):
    defaults = dict(population=1, depart_lo_s=40.0, depart_hi_s=50.0)
    defaults.update(occupancy)
    return RoomSpec(id=room_id, rows=1, cols=1,
                    occupancy=OccupancySpec(**defaults))


def tiny_scenario(**overrides):
    values = dict(name="tiny", rooms=(tiny_room(),), duration_s=60.0,
                  tick_s=2.0, report_window_s=30.0)
    values.update(overrides)
    return Scenario(**values)


class TestValidation:
    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            tiny_scenario(duration_s=-5.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError, match="duration_s"):
            tiny_scenario(duration_s=0.0)

    def test_tick_beyond_duration_rejected(self):
        with pytest.raises(ValueError, match="tick_s"):
            tiny_scenario(tick_s=120.0)

    def test_negative_report_window_rejected(self):
        with pytest.raises(ValueError, match="report_window_s"):
            tiny_scenario(report_window_s=-1.0)

    def test_overlapping_room_ids_rejected(self):
        with pytest.raises(ValueError, match="overlapping room id"):
            tiny_scenario(rooms=(tiny_room("a"), tiny_room("b"),
                                 tiny_room("a")))

    def test_departures_past_the_duration_rejected(self):
        with pytest.raises(ValueError, match="extend past"):
            tiny_scenario(rooms=(tiny_room(depart_hi_s=90.0),))

    def test_room_id_with_separators_rejected(self):
        for bad in ("a.b", "a/b", "a\nb", ""):
            with pytest.raises(ValueError):
                tiny_room(bad)

    def test_empty_room_list_rejected(self):
        with pytest.raises(ValueError, match="at least one room"):
            tiny_scenario(rooms=())

    def test_target_sum_band(self):
        with pytest.raises(ValueError, match="target_sum"):
            tiny_scenario(target_sum=0.0)
        with pytest.raises(ValueError, match="target_sum"):
            tiny_scenario(target_sum=1.6)

    def test_daylight_ordering(self):
        with pytest.raises(ValueError, match="sunrise"):
            DaylightSpec(sunrise_s=100.0, sunset_s=50.0)
        with pytest.raises(ValueError, match="night_level"):
            DaylightSpec(night_level=0.9, peak_level=0.5)
        with pytest.raises(ValueError, match="window_gain"):
            DaylightSpec(window_gain=0.0)

    def test_occupancy_window_ordering(self):
        with pytest.raises(ValueError, match="arrive_lo_s"):
            OccupancySpec(population=2, arrive_lo_s=-1.0)
        with pytest.raises(ValueError):
            OccupancySpec(population=2, arrive_lo_s=10.0, arrive_hi_s=5.0)
        with pytest.raises(ValueError, match="break"):
            OccupancySpec(population=2, break_probability=0.5,
                          break_duration_s=0.0)

    def test_unknown_chaos_schedule_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos schedule"):
            ChaosSpec(schedule="meteor-strike")

    def test_negative_slo_bounds_rejected(self):
        with pytest.raises(ValueError, match="min_goodput_bps"):
            SloSpec(min_goodput_bps=-1.0)
        with pytest.raises(ValueError, match="max_flicker"):
            SloSpec(max_flicker_violations=-1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            tiny_scenario(seed=-1)
        assert tiny_scenario(seed=0).seed == 0

    @pytest.mark.parametrize("spec, field", [
        (DaylightSpec, "sunset_s"), (DaylightSpec, "peak_level"),
        (OccupancySpec, "depart_hi_s"), (OccupancySpec, "pause_s"),
        (ChaosSpec, "intensity"), (SloSpec, "min_goodput_bps"),
        (SloSpec, "max_illumination_error"),
    ])
    def test_non_finite_numbers_rejected(self, spec, field):
        # NaN fails every range check, and an SLO bound of NaN would
        # pass every run.
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                spec(**REQUIRED.get(spec, {}), **{field: bad})

    def test_runs_past_the_step_cap_rejected(self):
        # A tick or window this fine asks for a run that does not
        # finish, or a window list that exhausts memory.
        with pytest.raises(ValueError, match="tick_s must leave at most"):
            tiny_scenario(duration_s=1800.0, tick_s=1e-4)
        with pytest.raises(ValueError,
                           match="report_window_s must leave at most"):
            tiny_scenario(duration_s=1800.0, report_window_s=1e-6)
        at_cap = tiny_scenario(duration_s=float(MAX_STEPS), tick_s=1.0,
                               report_window_s=1.0)
        assert at_cap.duration_s / at_cap.report_window_s == MAX_STEPS

    def test_cloud_knots_past_the_step_cap_rejected(self):
        # The sky stores one knot per cloud_time_scale_s of daylight: a
        # scale this fine asks for more than memory holds.
        at_cap = DaylightSpec(sunrise_s=0.0, sunset_s=float(MAX_STEPS),
                              cloud_time_scale_s=1.0)
        assert at_cap.sunset_s / at_cap.cloud_time_scale_s == MAX_STEPS
        with pytest.raises(ValueError,
                           match="cloud_time_scale_s must leave at most"):
            DaylightSpec(sunrise_s=0.0, sunset_s=MAX_STEPS + 1.0,
                         cloud_time_scale_s=1.0)

    def test_buildings_past_the_device_tick_cap_rejected(self):
        # 1000 ticks of one luminaire and 999 occupants is the cap; one
        # more occupant is past it.
        def building(population):
            return tiny_scenario(
                duration_s=1000.0, tick_s=1.0, report_window_s=1000.0,
                rooms=(tiny_room(population=population, depart_lo_s=900.0,
                                 depart_hi_s=1000.0),))

        at_cap = building(999)
        assert (at_cap.duration_s / at_cap.tick_s
                * (at_cap.n_luminaires + at_cap.population)
                == MAX_DEVICE_TICKS)
        with pytest.raises(ValueError,
                           match="tick_s, rows, cols and population"):
            building(1000)

    def test_non_finite_scenario_times_rejected(self):
        for field in ("duration_s", "tick_s", "report_window_s"):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                tiny_scenario(**{field: math.inf})
        with pytest.raises(ValueError, match="spacing_m must be finite"):
            RoomSpec(id="a", spacing_m=math.nan)


# One case per guard: the spec, the offending fields, the message naming them.
OUT_OF_BOUNDS = [
    pytest.param(DaylightSpec, dict(cloud_depth=1.0), "cloud_depth",
                 id="daylight-cloud-depth"),
    pytest.param(DaylightSpec, dict(cloud_time_scale_s=0.0),
                 "cloud_time_scale_s", id="daylight-cloud-time-scale"),
    pytest.param(OccupancySpec, dict(population=0), "population",
                 id="occupancy-population"),
    pytest.param(OccupancySpec, dict(depart_lo_s=0.0, depart_hi_s=0.0),
                 "departures must end after arrivals",
                 id="occupancy-empty-presence"),
    pytest.param(OccupancySpec, dict(break_probability=1.5),
                 "break_probability", id="occupancy-break-probability"),
    pytest.param(OccupancySpec, dict(break_duration_s=-1.0),
                 "break_duration_s", id="occupancy-break-duration"),
    pytest.param(OccupancySpec,
                 dict(arrive_hi_s=100.0, break_probability=0.5,
                      break_lo_s=50.0, break_hi_s=200.0,
                      break_duration_s=10.0),
                 "arrive_hi_s <= break_lo_s", id="occupancy-break-before-arrival"),
    pytest.param(OccupancySpec,
                 dict(break_probability=0.5, break_lo_s=3500.0,
                      break_hi_s=3550.0, break_duration_s=100.0),
                 "breaks must end before departures",
                 id="occupancy-break-past-departure"),
    pytest.param(OccupancySpec, dict(speed_min_mps=0.0), "speed_min_mps",
                 id="occupancy-standstill"),
    pytest.param(OccupancySpec, dict(speed_min_mps=2.0, speed_max_mps=1.0),
                 "speed_min_mps", id="occupancy-speed-order"),
    pytest.param(OccupancySpec, dict(pause_s=-1.0), "pause_s",
                 id="occupancy-pause"),
    pytest.param(RoomSpec, dict(id="a", rows=0), "at least one luminaire",
                 id="room-rows"),
    pytest.param(RoomSpec, dict(id="a", cols=0), "at least one luminaire",
                 id="room-cols"),
    pytest.param(RoomSpec, dict(id="a", spacing_m=0.0), "spacing_m",
                 id="room-zero-spacing"),
    pytest.param(RoomSpec, dict(id="a", spacing_m=4.5), "spacing_m",
                 id="room-wide-spacing"),
    pytest.param(ChaosSpec, dict(intensity=1.5), "intensity",
                 id="chaos-intensity"),
    pytest.param(SloSpec, dict(max_illumination_error=-0.1),
                 "max_illumination_error", id="slo-illumination-error"),
]


class TestFieldBounds:
    @pytest.mark.parametrize("spec, fields, message", OUT_OF_BOUNDS)
    def test_out_of_bounds_field_rejected(self, spec, fields, message):
        with pytest.raises(ValueError, match=message):
            spec(**{**REQUIRED.get(spec, {}), **fields})

    def test_empty_scenario_name_rejected(self):
        with pytest.raises(ValueError, match="scenario name"):
            tiny_scenario(name="")


class TestLoader:
    def test_unknown_scenario_key_rejected(self):
        row = tiny_scenario().to_dict()
        row["surprise"] = 1
        with pytest.raises(ValueError, match="unknown scenario key"):
            Scenario.from_dict(row)

    def test_unknown_nested_keys_rejected(self):
        row = tiny_scenario().to_dict()
        row["rooms"][0]["colour"] = "teal"
        with pytest.raises(ValueError, match="unknown room key"):
            Scenario.from_dict(row)
        row = tiny_scenario().to_dict()
        row["rooms"][0]["daylight"]["moon_phase"] = 0.5
        with pytest.raises(ValueError, match="unknown daylight key"):
            Scenario.from_dict(row)
        row = tiny_scenario().to_dict()
        row["slo"]["max_latency_s"] = 1.0
        with pytest.raises(ValueError, match="unknown slo key"):
            Scenario.from_dict(row)

    def test_missing_required_keys_rejected(self):
        row = tiny_scenario().to_dict()
        del row["rooms"]
        with pytest.raises(ValueError, match="missing key"):
            Scenario.from_dict(row)

    def test_version_mismatch_rejected(self):
        # The version is the integer 1: true and 1.0 compare equal to
        # it but are not it.
        for version in (2, True, 1.0):
            row = tiny_scenario().to_dict()
            row["version"] = version
            with pytest.raises(ValueError,
                               match="unsupported scenario schema"):
                Scenario.from_dict(row)

    def test_missing_version_rejected(self):
        row = tiny_scenario().to_dict()
        del row["version"]
        with pytest.raises(ValueError, match="missing key"):
            Scenario.from_dict(row)

    def test_non_mapping_rejected(self):
        with pytest.raises(ValueError, match="must be a mapping"):
            Scenario.from_dict("not a scenario")  # type: ignore[arg-type]

    @pytest.mark.parametrize("path", [
        ("seed",), ("rooms", 0, "rows"), ("rooms", 0, "cols"),
        ("rooms", 0, "occupancy", "population"),
        ("slo", "max_flicker_violations"),
    ], ids=lambda path: path[-1])
    def test_counts_must_be_whole_numbers(self, path):
        def with_field(value):
            row = tiny_scenario().to_dict()
            leaf = row
            for step in path[:-1]:
                leaf = leaf[step]
            leaf[path[-1]] = value
            return row

        for bad in (2.7, math.inf, math.nan, True, "3"):
            with pytest.raises(ValueError,
                               match=f"{path[-1]} must be a whole number"):
                Scenario.from_dict(with_field(bad))
        assert Scenario.from_dict(with_field(1.0)) \
            == Scenario.from_dict(with_field(1))

    @pytest.mark.parametrize("path, value", [
        pytest.param(("duration_s",), "1800", id="float-as-string"),
        pytest.param(("rooms", 0, "spacing_m"), True, id="float-as-bool"),
        pytest.param(("duration_s",), 10 ** 400, id="float-out-of-range"),
        pytest.param(("description",), ["a", "list"], id="str-as-list"),
        pytest.param(("description",), None, id="str-as-null"),
        pytest.param(("tick_s",), None, id="float-as-null"),
    ])
    def test_values_must_have_their_field_type(self, path, value):
        row = tiny_scenario().to_dict()
        *parents, key = path
        leaf = row
        for step in parents:
            leaf = leaf[step]
        leaf[key] = value
        with pytest.raises(ValueError, match=key):
            Scenario.from_dict(row)

    def test_rooms_must_be_a_list(self):
        row = tiny_scenario().to_dict()
        row["rooms"] = "everywhere"
        with pytest.raises(ValueError, match="rooms must be a list"):
            Scenario.from_dict(row)

    def test_load_scenario_reads_json_files(self, tmp_path):
        scenario = tiny_scenario(chaos=ChaosSpec(schedule="random",
                                                 intensity=0.4))
        path = tmp_path / "tiny.json"
        path.write_text(scenario.to_json())
        assert load_scenario(path) == scenario

    def test_counts(self):
        scenario = tiny_scenario(rooms=(
            RoomSpec(id="a", rows=2, cols=3,
                     occupancy=OccupancySpec(population=4,
                                             depart_lo_s=40.0,
                                             depart_hi_s=50.0)),
            tiny_room("b"),
        ))
        assert scenario.n_luminaires == 7
        assert scenario.population == 5


def _floats(lo, hi):
    return st.floats(min_value=lo, max_value=hi,
                     allow_nan=False, allow_infinity=False)


@st.composite
def daylight_specs(draw):
    sunrise = draw(_floats(0.0, 1000.0))
    peak = draw(_floats(0.05, 1.0))
    return DaylightSpec(
        sunrise_s=sunrise,
        sunset_s=sunrise + draw(_floats(1.0, 50000.0)),
        peak_level=peak,
        night_level=draw(_floats(0.0, peak)),
        cloud_depth=draw(_floats(0.0, 0.99)),
        cloud_time_scale_s=draw(_floats(1.0, 5000.0)),
        window_gain=draw(_floats(0.01, 1.0)),
    )


@st.composite
def occupancy_specs(draw, quarter):
    arrive_lo = draw(_floats(0.0, quarter))
    arrive_hi = arrive_lo + draw(_floats(0.0, quarter))
    gap = draw(_floats(1.0, quarter))
    depart_lo = arrive_hi + gap
    speed_min = draw(_floats(0.1, 1.0))
    values = dict(
        population=draw(st.integers(min_value=1, max_value=4)),
        arrive_lo_s=arrive_lo,
        arrive_hi_s=arrive_hi,
        depart_lo_s=depart_lo,
        depart_hi_s=depart_lo + draw(_floats(0.0, quarter)),
        speed_min_mps=speed_min,
        speed_max_mps=speed_min + draw(_floats(0.0, 1.0)),
        pause_s=draw(_floats(0.0, 60.0)),
    )
    if draw(st.booleans()):
        values.update(
            break_probability=draw(_floats(0.01, 1.0)),
            break_lo_s=arrive_hi,
            break_hi_s=arrive_hi,
            break_duration_s=gap / 2.0,
        )
    return OccupancySpec(**values)


@st.composite
def scenarios(draw):
    duration = draw(_floats(1000.0, 20000.0))
    quarter = duration / 5.0
    rooms = tuple(
        RoomSpec(id=f"room{i}",
                 rows=draw(st.integers(min_value=1, max_value=2)),
                 cols=draw(st.integers(min_value=1, max_value=2)),
                 spacing_m=draw(_floats(0.5, 4.0)),
                 daylight=draw(daylight_specs()),
                 occupancy=draw(occupancy_specs(quarter)))
        for i in range(draw(st.integers(min_value=1, max_value=3))))
    chaos = (ChaosSpec(schedule=draw(st.sampled_from(CHAOS_SCHEDULES)),
                       intensity=draw(_floats(0.0, 1.0)))
             if draw(st.booleans()) else None)
    slo = SloSpec(
        min_goodput_bps=draw(st.none() | _floats(0.0, 1e6)),
        max_illumination_error=draw(st.none() | _floats(0.0, 1.0)),
        max_flicker_violations=draw(
            st.none() | st.integers(min_value=0, max_value=100)),
    )
    return Scenario(
        name=draw(st.sampled_from(("office", "lab", "floor-3"))),
        description=draw(st.text(max_size=40)),
        rooms=rooms,
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
        duration_s=duration,
        tick_s=draw(_floats(0.5, 60.0)),
        report_window_s=draw(_floats(1.0, duration)),
        target_sum=draw(_floats(0.1, 1.5)),
        chaos=chaos,
        slo=slo,
    )


class TestRoundTrip:
    @given(scenarios())
    @settings(max_examples=30, deadline=None)
    def test_from_dict_to_dict_is_the_identity(self, scenario):
        document = scenario.to_dict()
        parsed = Scenario.from_dict(document)
        assert parsed == scenario
        assert parsed.to_dict() == document

    @given(scenarios())
    @settings(max_examples=15, deadline=None)
    def test_json_round_trip_is_exact(self, scenario):
        assert Scenario.from_dict(json.loads(scenario.to_json())) == scenario
