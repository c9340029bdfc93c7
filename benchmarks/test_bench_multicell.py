"""Bench: the discrete-event multicell network simulator.

Times the ``ext-multicell`` regeneration, re-checks the determinism
contract (two same-seed runs, identical journals), and emits
``BENCH_multicell.json`` at the repository root so the subsystem's
performance trajectory is recorded run over run.  The fleet bench
additionally races the legacy all-pairs kernel against the spatially
indexed + sharded one on an 8x8 grid and pins the speedup floor the
sharding work promises (>= 5x events/s).
"""

import json
import time
from pathlib import Path

import pytest

from repro.des import journals_equal
from repro.experiments import run_experiment
from repro.net.multicell import default_network

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_multicell.json"
GRIDS = ((1, 1), (2, 2), (3, 3))


@pytest.mark.perf
def test_bench_multicell(bench, config):
    sim = default_network(config, rows=2, cols=2, n_nodes=4, seed=29)
    t0 = time.perf_counter()
    first = sim.run(30.0)
    t_single = time.perf_counter() - t0
    second = sim.run(30.0)
    assert journals_equal(first.journal, second.journal)
    assert first.metrics() == second.metrics()

    t0 = time.perf_counter()
    figure = bench(run_experiment, "ext-multicell",
                   config=config, grids=GRIDS, n_nodes=4,
                   duration_s=30.0)
    t_sweep = time.perf_counter() - t0

    goodput = figure.get("aggregate goodput (Kbps)")
    assert min(goodput.y) > 0.0
    events_per_s = len(first.journal) / t_single if t_single > 0 else 0.0
    payload = {
        "bench": "multicell",
        "single_run_s": round(t_single, 4),
        "journal_events": len(first.journal),
        "events_per_s": round(events_per_s, 1),
        "sweep_s": round(t_sweep, 4),
        "sweep_grids": [list(g) for g in GRIDS],
        "aggregate_goodput_kbps": {
            f"{int(x)}": round(y, 2) for x, y in zip(goodput.x, goodput.y)
        },
        "journal_digest": first.journal.digest(),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nmulticell: single 2x2 run {t_single * 1e3:.0f} ms "
          f"({events_per_s:.0f} events/s), 3-grid sweep {t_sweep:.2f} s "
          f"-> {BENCH_JSON.name}")

    # The floor: a 30 s, 4-node, 2x2 run must stay interactive.
    assert t_single < 5.0


@pytest.mark.perf
def test_bench_multicell_fleet(config):
    """All-pairs baseline vs indexed + sharded kernel on an 8x8 fleet.

    The all-pairs baseline builds one designer per cell, and those 64
    builds are about 80% of its run time (78-84% over three runs on a
    2-vCPU host; the indexed path shares one designer per process).
    The 5x floor therefore mostly measures designer construction, not
    the kernel; it stays as pinned until the all-pairs path goes.
    """
    duration = 8.0

    baseline = default_network(config, rows=8, cols=8, n_nodes=32, seed=11,
                               use_spatial_index=False)
    t0 = time.perf_counter()
    base_result = baseline.run(duration)
    t_base = time.perf_counter() - t0
    base_rate = len(base_result.journal) / t_base

    sharded = default_network(config, rows=8, cols=8, n_nodes=32, seed=11,
                              regions=4)
    t0 = time.perf_counter()
    fleet_result = sharded.run(duration)
    t_fleet = time.perf_counter() - t0
    fleet_rate = len(fleet_result.journal) / t_fleet

    # Same scenario, same physics: the sharded run must do the same
    # amount of work (event-for-event) and reproduce itself per seed.
    assert len(fleet_result.shards) == 4
    repeat = default_network(config, rows=8, cols=8, n_nodes=32, seed=11,
                             regions=4).run(duration)
    assert journals_equal(fleet_result.journal, repeat.journal)
    assert fleet_result.metrics() == repeat.metrics()

    speedup = fleet_rate / base_rate
    payload = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    payload["fleet"] = {
        "grid": [8, 8],
        "nodes": 32,
        "regions": 4,
        "duration_s": duration,
        "allpairs_events_per_s": round(base_rate, 1),
        "sharded_events_per_s": round(fleet_rate, 1),
        "speedup": round(speedup, 2),
        "journal_events": len(fleet_result.journal),
        "journal_digest": fleet_result.journal.digest(),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nmulticell fleet: all-pairs {base_rate:.0f} events/s, "
          f"sharded(4) {fleet_rate:.0f} events/s -> {speedup:.1f}x")

    # The acceptance floor for the sharding work.
    assert speedup >= 5.0
