"""Journals and ambient profiles hold plain Python scalars.

A journal digest hashes every value's ``marshal`` record.  A NumPy
scalar marshals as its raw buffer, not as a type-tagged float, so it
hashes unlike the same plain float: one in a journal would move the
digest without moving any value.  Its arithmetic is also slower on the
per-event path.
"""

import numpy as np
import pytest

from repro.lighting.ambient import (
    BlindRampAmbient,
    CloudyDayAmbient,
    DaylightAmbient,
    ScheduledAmbient,
    StaticAmbient,
)
from repro.net import default_network, desk_room
from repro.scenarios import ScenarioRunner
from repro.scenarios.shipped import shipped_scenarios

PLAIN = (int, float, str, bool)


def huddle_smoke():
    return ScenarioRunner(shipped_scenarios()["huddle-smoke"]).run().result


RUNS = {
    "huddle-smoke": huddle_smoke,
    "desk-room-blind-ramp": lambda: desk_room(
        profile=BlindRampAmbient()).run(67.0),
    "cloudy-day-network": lambda: default_network(
        profile=CloudyDayAmbient(), seed=3).run(120.0),
    "daylight-across-sunrise": lambda: default_network(
        profile=DaylightAmbient(sunrise_s=30.0, sunset_s=600.0),
        seed=4).run(90.0),
    "two-region-fleet": lambda: default_network(
        rows=4, cols=4, n_nodes=8, seed=11, regions=2).run(20.0),
}


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS.keys())
def test_journal_values_are_plain_scalars(run):
    journal = run().journal
    assert len(journal) > 0
    offending = [(entry.seq, entry.kind, key, type(value).__name__)
                 for entry in journal.entries
                 for key, value in (("time", entry.time), *entry.detail)
                 if type(value) not in PLAIN]
    assert offending == []


PROFILES = {
    "static": StaticAmbient(0.4),
    "blind-ramp": BlindRampAmbient(),
    "cloudy-day": CloudyDayAmbient(),
    "daylight": DaylightAmbient(),
    "scheduled": ScheduledAmbient(CloudyDayAmbient(),
                                  ((100.0, 0.05), (200.0, None))),
    "step": ScheduledAmbient(StaticAmbient(0.2), ((50.0, 0.7),)),
}


@pytest.mark.parametrize("profile", PROFILES.values(), ids=PROFILES.keys())
def test_profile_intensity_is_a_plain_float(profile):
    times = np.concatenate([np.linspace(-10.0, 700.0, 300),
                            np.linspace(700.0, 90_000.0, 300)]).tolist()
    assert {type(profile.intensity(t)) for t in times} == {float}
