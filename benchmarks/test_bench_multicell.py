"""Bench: the discrete-event multicell network simulator.

Times the ``ext-multicell`` regeneration, re-checks the determinism
contract (two same-seed runs, identical journals), and emits
``BENCH_multicell.json`` at the repository root so the subsystem's
performance trajectory is recorded run over run.  The fleet bench
additionally times the sharded kernel on an 8x8 grid and races the
spatial index against a brute-force gain scan over every luminaire at
the positions that run sensed, pinning the index's speedup floor.
"""

import json
import math
import time
from pathlib import Path

import pytest

from repro.des import journals_equal
from repro.experiments import run_experiment
from repro.net.multicell import default_network
from repro.phy import LinkGeometry

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


def _per_query_us(query, points, repeats: int = 5) -> float:
    """Best-of-``repeats`` mean time of ``query`` over ``points`` (µs)."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for point in points:
            query(point)
        best = min(best, time.perf_counter() - t0)
    return best / len(points) * 1e6


@pytest.mark.perf
def test_bench_multicell_fleet(config):
    """Sharded fleet determinism, and the index against a full scan.

    The scan is what the index replaces: the channel gain of all 64
    luminaires, keeping the positive ones.  Both run at every ``sense``
    position of the sharded 8x8 / 32-node run and must agree on the
    lit luminaires before either is timed.
    """
    duration = 8.0
    sharded = default_network(config, rows=8, cols=8, n_nodes=32, seed=11,
                              regions=4)
    t0 = time.perf_counter()
    fleet_result = sharded.run(duration)
    t_fleet = time.perf_counter() - t0
    fleet_rate = len(fleet_result.journal) / t_fleet

    # Same scenario, same physics: the sharded run must reproduce
    # itself per seed.
    assert len(fleet_result.shards) == 4
    repeat = default_network(config, rows=8, cols=8, n_nodes=32, seed=11,
                             regions=4).run(duration)
    assert journals_equal(fleet_result.journal, repeat.journal)
    assert fleet_result.metrics() == repeat.metrics()

    index, optics = sharded._index, sharded.channel.optics

    def scan(point):
        return [lum for lum in sharded.luminaires
                if optics.channel_gain(LinkGeometry.from_offsets(
                    math.hypot(point[0] - lum.x_m, point[1] - lum.y_m),
                    sharded.drop_m)) > 0.0]

    points = [(e.get("x"), e.get("y"))
              for e in fleet_result.journal.of_kind("sense")]
    assert len(points) == 32 * 9
    for point in points:
        lit = scan(point)
        assert [lum for lum in index.within(point) if lum in lit] == lit
    within_us = _per_query_us(index.within, points)
    scan_us = _per_query_us(scan, points)
    speedup = scan_us / within_us

    payload = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    payload["fleet"] = {
        "grid": [8, 8],
        "nodes": 32,
        "regions": 4,
        "duration_s": duration,
        "sharded_events_per_s": round(fleet_rate, 1),
        "journal_events": len(fleet_result.journal),
        "journal_digest": fleet_result.journal.digest(),
        "index_queries": len(points),
        "within_us": round(within_us, 2),
        "scan_us": round(scan_us, 2),
        "index_speedup": round(speedup, 1),
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nmulticell fleet: sharded(4) {fleet_rate:.0f} events/s; "
          f"within {within_us:.1f} us vs scan {scan_us:.1f} us per query "
          f"-> {speedup:.1f}x")

    # The index floor: 25.7-30.3x over five runs on a shared 2-vCPU
    # host, so 10x leaves room for a noisy runner.
    assert speedup >= 10.0
