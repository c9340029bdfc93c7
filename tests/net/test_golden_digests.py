"""Golden journal digests: a fleet and a scenario pinned by value.

The determinism tests elsewhere compare reruns of one build; these pin
the bytes themselves, so any change to a result anywhere in the stack
(designer, link model, DES kernel, sharding, scenario compiler) shows
here.  A change that means to move them re-pins them on purpose.
"""

import pytest

from repro.net import default_network
from repro.scenarios import ScenarioRunner
from repro.scenarios.shipped import shipped_scenarios


@pytest.mark.parametrize("regions,digest", [
    (1, "1fbf3c740ed2899f8d42e06fde16d7cd7644d9b340bafafab970ba09daf9eff1"),
    (4, "6b87048417bb9bd8ad66fa4bc5fef32dcb2e9736905bbe02bb47138cb13f6073"),
])
def test_fleet_digest(regions, digest):
    result = default_network(rows=4, cols=4, n_nodes=8, seed=11,
                             regions=regions).run(20.0)
    assert result.journal.digest() == digest


def test_huddle_smoke_digest():
    run = ScenarioRunner(shipped_scenarios()["huddle-smoke"]).run()
    assert run.report.journal_digest == (
        "bd4fc52d3423b91501c4937b408d6d78720bdf95e13b44baee6ea9f9318a17ba")


def test_office_day_digest():
    # Occupants arrive, take breaks and leave, so their traces are
    # queried again after hours of absence.
    run = ScenarioRunner(shipped_scenarios()["office-day"]).run()
    assert len(run.result.journal) == 22226
    assert run.report.journal_digest == (
        "b5f112a297955742687bf6fe3d03c8127210865acfbbf34a24dbbd07fc1237d1")
