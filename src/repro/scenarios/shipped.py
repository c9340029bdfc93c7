"""The shipped named scenarios: curated days for tests, bench, and demos.

Each scenario is a pure :class:`~repro.scenarios.dsl.Scenario` value —
no I/O, no ambient state — so ``shipped_scenarios()`` is as
deterministic as the DSL itself.  ``huddle-smoke`` is deliberately the
smallest (two luminaires, two occupants, half an hour) and is the one
whose journal digest the tests pin at two region counts; the rest scale up
through a working day, a lunch-rush open plan, an overcast flicker
stress, and a chaos-laced night shift.

The scenario clock is seconds from the start of the episode; each
description anchors it to wall time.
"""

from __future__ import annotations

from .daylight import clear_sky, night_sky, overcast_sky
from .dsl import ChaosSpec, OccupancySpec, RoomSpec, Scenario, SloSpec


def _huddle_smoke() -> Scenario:
    return Scenario(
        name="huddle-smoke",
        description="A 30-minute huddle in a two-luminaire meeting "
                    "room; the smallest shipped scenario (CI smoke).",
        seed=11,
        duration_s=1800.0,
        tick_s=5.0,
        report_window_s=600.0,
        rooms=(
            RoomSpec(
                id="huddle", rows=1, cols=2, spacing_m=2.5,
                daylight=clear_sky(0.0, 5400.0, peak_level=0.7),
                occupancy=OccupancySpec(
                    population=2,
                    arrive_lo_s=0.0, arrive_hi_s=120.0,
                    depart_lo_s=1560.0, depart_hi_s=1740.0),
            ),
        ),
        slo=SloSpec(min_goodput_bps=5000.0,
                    max_illumination_error=0.08,
                    max_flicker_violations=0),
    )


def _office_day() -> Scenario:
    return Scenario(
        name="office-day",
        description="Two offices over a 07:00-19:00 working day: "
                    "staggered arrivals, lunch breaks, a dimmer "
                    "north-facing room (clock 0 = 07:00).",
        seed=20,
        duration_s=43200.0,
        tick_s=60.0,
        report_window_s=3600.0,
        rooms=(
            RoomSpec(
                id="office-a", rows=2, cols=2, spacing_m=2.5,
                daylight=clear_sky(0.0, 39600.0, peak_level=0.85),
                occupancy=OccupancySpec(
                    population=3,
                    arrive_lo_s=3600.0, arrive_hi_s=7200.0,
                    depart_lo_s=36000.0, depart_hi_s=41400.0,
                    break_probability=0.7,
                    break_lo_s=18000.0, break_hi_s=19800.0,
                    break_duration_s=2400.0),
            ),
            RoomSpec(
                id="office-b", rows=2, cols=3, spacing_m=2.5,
                daylight=clear_sky(0.0, 39600.0, peak_level=0.85,
                                   window_gain=0.6),
                occupancy=OccupancySpec(
                    population=4,
                    arrive_lo_s=3600.0, arrive_hi_s=7200.0,
                    depart_lo_s=36000.0, depart_hi_s=41400.0,
                    break_probability=0.7,
                    break_lo_s=18000.0, break_hi_s=19800.0,
                    break_duration_s=2400.0),
            ),
        ),
        slo=SloSpec(min_goodput_bps=1000.0,
                    max_illumination_error=0.08,
                    max_flicker_violations=0),
    )


def _open_plan_lunch_rush() -> Scenario:
    return Scenario(
        name="open-plan-lunch-rush",
        description="An eight-desk open plan over 09:00-17:00; nearly "
                    "everyone leaves for lunch and returns at once "
                    "(clock 0 = 09:00).",
        seed=33,
        duration_s=28800.0,
        tick_s=40.0,
        report_window_s=3600.0,
        rooms=(
            RoomSpec(
                id="open-plan", rows=2, cols=4, spacing_m=2.5,
                daylight=clear_sky(0.0, 30000.0, peak_level=0.8),
                occupancy=OccupancySpec(
                    population=8,
                    arrive_lo_s=0.0, arrive_hi_s=1800.0,
                    depart_lo_s=25200.0, depart_hi_s=28080.0,
                    break_probability=0.95,
                    break_lo_s=9000.0, break_hi_s=12600.0,
                    break_duration_s=2700.0),
            ),
        ),
        slo=SloSpec(min_goodput_bps=8000.0,
                    max_illumination_error=0.08,
                    max_flicker_violations=0),
    )


def _overcast_flicker_stress() -> Scenario:
    return Scenario(
        name="overcast-flicker-stress",
        description="Four hours of fast, deep cloud churn over two "
                    "labs: the lighting loop must track a jittery sky "
                    "without a single perceivable step.",
        seed=47,
        duration_s=14400.0,
        tick_s=20.0,
        report_window_s=3600.0,
        rooms=(
            RoomSpec(
                id="lab-north", rows=1, cols=2, spacing_m=2.5,
                daylight=overcast_sky(0.0, 16000.0,
                                      cloud_time_scale_s=90.0,
                                      window_gain=0.8),
                occupancy=OccupancySpec(
                    population=2,
                    arrive_lo_s=0.0, arrive_hi_s=600.0,
                    depart_lo_s=13200.0, depart_hi_s=14100.0),
            ),
            RoomSpec(
                id="lab-south", rows=2, cols=2, spacing_m=2.5,
                daylight=overcast_sky(0.0, 16000.0,
                                      cloud_time_scale_s=90.0),
                occupancy=OccupancySpec(
                    population=2,
                    arrive_lo_s=0.0, arrive_hi_s=600.0,
                    depart_lo_s=13200.0, depart_hi_s=14100.0),
            ),
        ),
        slo=SloSpec(min_goodput_bps=7000.0,
                    max_illumination_error=0.08,
                    max_flicker_violations=0),
    )


def _night_shift_chaos() -> Scenario:
    return Scenario(
        name="night-shift-chaos",
        description="A six-hour night shift in an ops centre under a "
                    "seeded random fault overlay: churn, outages, and "
                    "ambient transients with no daylight to hide them.",
        seed=58,
        duration_s=21600.0,
        tick_s=30.0,
        report_window_s=3600.0,
        rooms=(
            RoomSpec(
                id="ops", rows=2, cols=2, spacing_m=2.5,
                daylight=night_sky(21600.0),
                occupancy=OccupancySpec(
                    population=3,
                    arrive_lo_s=0.0, arrive_hi_s=1800.0,
                    depart_lo_s=18000.0, depart_hi_s=21000.0),
            ),
            RoomSpec(
                id="noc", rows=1, cols=2, spacing_m=2.5,
                daylight=night_sky(21600.0, night_level=0.05),
                occupancy=OccupancySpec(
                    population=2,
                    arrive_lo_s=0.0, arrive_hi_s=1800.0,
                    depart_lo_s=18000.0, depart_hi_s=21000.0),
            ),
        ),
        chaos=ChaosSpec(schedule="random", intensity=0.6),
        slo=SloSpec(min_goodput_bps=1500.0,
                    max_illumination_error=0.08,
                    max_flicker_violations=0),
    )


def shipped_scenarios() -> dict[str, Scenario]:
    """The curated scenarios by name, smallest first."""
    scenarios = (_huddle_smoke(), _office_day(), _open_plan_lunch_rush(),
                 _overcast_flicker_stress(), _night_shift_chaos())
    return {scenario.name: scenario for scenario in scenarios}


#: The smallest shipped scenario, whose digest the tests pin.
SMOKE_SCENARIO = "huddle-smoke"
