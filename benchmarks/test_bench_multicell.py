"""Bench: the discrete-event multicell network simulator.

Times a single 2x2 run against its floor, re-checks the determinism
contract (two same-seed runs, identical journals), and checks that the
``ext-multicell`` sweep delivers goodput on every grid.  The fleet
bench additionally runs the sharded kernel on an 8x8 grid and races
the spatial index against a brute-force gain scan over every luminaire
at the positions that run sensed, pinning the index's speedup floor.
The digest bench bounds the journal digest's share of a fleet run.
"""

import math
import time

import pytest

from repro.experiments import run_experiment
from repro.net.multicell import default_network
from repro.phy import LinkGeometry

GRIDS = ((1, 1), (2, 2), (3, 3))


@pytest.mark.perf
def test_bench_multicell(config):
    sim = default_network(config, rows=2, cols=2, n_nodes=4, seed=29)
    t0 = time.perf_counter()
    first = sim.run(30.0)
    t_single = time.perf_counter() - t0
    second = sim.run(30.0)
    assert first.journal == second.journal
    assert first.metrics() == second.metrics()

    figure = run_experiment("ext-multicell", config=config, grids=GRIDS,
                            n_nodes=4, duration_s=30.0)
    goodput = figure.get("aggregate goodput (Kbps)")
    assert min(goodput.y) > 0.0
    events_per_s = len(first.journal) / t_single if t_single > 0 else 0.0
    print(f"\nmulticell: single 2x2 run {t_single * 1e3:.0f} ms "
          f"({events_per_s:.0f} events/s)")

    # The floor: a 30 s, 4-node, 2x2 run must stay interactive.
    assert t_single < 5.0


@pytest.mark.perf
def test_bench_multicell_fleet(best_of, config):
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
    assert fleet_result.journal == repeat.journal
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

    def per_query_us(query):
        best, _ = best_of(lambda: [query(point) for point in points], k=5)
        return best / len(points) * 1e6

    within_us = per_query_us(index.within)
    scan_us = per_query_us(scan)
    speedup = scan_us / within_us
    print(f"\nmulticell fleet: sharded(4) {fleet_rate:.0f} events/s; "
          f"within {within_us:.1f} us vs scan {scan_us:.1f} us per query "
          f"-> {speedup:.1f}x")

    # The index floor: 25.7-30.3x over five runs on a shared 2-vCPU
    # host, so 10x leaves room for a noisy runner.
    assert speedup >= 10.0


@pytest.mark.perf
def test_bench_journal_digest_share(best_of, config):
    """The journal digest stays a small share of the run it fingerprints.

    The fleet is perfbench's: 8x8 luminaires, 32 receivers, 4 regions,
    120 simulated seconds.  Both timings are best of 3 on one host, so
    their ratio survives the host's speed swings.
    """
    run_s, result = best_of(lambda: default_network(
        config, rows=8, cols=8, n_nodes=32, seed=11, regions=4).run(120.0))
    digest_s, _ = best_of(result.journal.digest)
    share = digest_s / run_s
    print(f"\njournal digest: {len(result.journal)} entries in "
          f"{digest_s * 1e3:.0f} ms, {share:.1%} of a "
          f"{run_s * 1e3:.0f} ms fleet run")

    # The floor: hashing each entry's repr line took 10-16% of this run
    # on a shared 2-vCPU host, one marshal record per entry 5-7%.
    assert share <= 0.10
