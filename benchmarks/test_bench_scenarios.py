"""Bench: the trace-driven scenario engine.

Runs the smallest shipped scenario (the CI smoke day) end to end —
compile, DES run, journal fold, SLO verdict — checks that a rerun
reproduces its journal digest, and reports the engine's throughput in
simulated room-hours per wall second, the unit scenario capacity plans
are written in.  A second bench runs the same day sharded to pin the
``regions`` path.
"""

import time

import pytest

from repro.scenarios import SMOKE_SCENARIO, ScenarioRunner, shipped_scenarios


@pytest.mark.perf
def test_bench_scenario_smoke(config):
    """The CI smoke day end to end: room-hours per wall second."""
    scenario = shipped_scenarios()[SMOKE_SCENARIO]

    def day():
        return ScenarioRunner(scenario, config=config).run()

    t0 = time.perf_counter()
    reference = day()
    cold_s = time.perf_counter() - t0
    run = day()

    report = run.report
    assert report.passed, report.violations
    assert report.journal_digest == reference.report.journal_digest
    assert report.metrics()["flicker_violations"] == 0.0
    print(f"\nscenario smoke: {scenario.name}, "
          f"{report.scenario_hours:.2f} room-hours in {cold_s:.2f} s "
          f"-> {report.scenario_hours / cold_s:.2f} room-hours/s")


@pytest.mark.perf
def test_bench_scenario_sharded(config):
    """The same day on the sharded kernel: determinism + conservation."""
    scenario = shipped_scenarios()[SMOKE_SCENARIO]
    regions = min(2, scenario.n_luminaires)

    def sharded_day():
        return ScenarioRunner(scenario, regions=regions,
                              config=config).run()

    reference = ScenarioRunner(scenario, config=config).run()
    run = sharded_day()

    assert run.report.passed, run.report.violations
    assert run.result.total_handovers == reference.result.total_handovers
    rerun = sharded_day()
    assert rerun.report.journal_digest == run.report.journal_digest
    print(f"\nscenario sharded: regions={regions}, "
          f"{run.result.total_handovers} handovers, digest "
          f"{run.report.journal_digest[:12]} (replay identical)")
