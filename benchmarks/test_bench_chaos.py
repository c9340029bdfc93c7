"""Bench: the chaos harness and the ext-chaos sweep.

Times a single supervised chaos run against its floor, re-checks the
determinism contract (two same-seed runs, identical reports and
digests), and runs the full ``ext-chaos`` sweep, where supervision
must beat the baseline on every shipped schedule.
"""

import time

import pytest

from repro.experiments import run_experiment
from repro.resilience import ChaosScenario, shipped_schedules


@pytest.mark.perf
def test_bench_chaos(config):
    schedule = shipped_schedules()["mixed"]
    scenario = ChaosScenario(config=config, schedule=schedule, seed=13)
    t0 = time.perf_counter()
    first = scenario.run()
    t_single = time.perf_counter() - t0
    second = scenario.run()
    assert first.report == second.report
    assert first.journal.digest() == second.journal.digest()

    figure = run_experiment("ext-chaos", config=config, duration_s=40.0,
                            seed=13)
    supervised = figure.get("supervised goodput (Kbps)")
    baseline = figure.get("unsupervised goodput (Kbps)")
    assert all(s > u for s, u in zip(supervised.y, baseline.y))
    events_per_s = len(first.journal) / t_single if t_single > 0 else 0.0
    print(f"\nchaos: single mixed-schedule run {t_single * 1e3:.0f} ms "
          f"({events_per_s:.0f} events/s)")

    # The floor: a 40 s supervised chaos run must stay interactive.
    assert t_single < 5.0
