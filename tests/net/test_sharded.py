"""Sharded multicell kernel: degeneracy parity, determinism, faults."""

import pytest

from repro.des import JournalEntry
from repro.net import default_network, merge_journals
from repro.net.sharded import run_sharded
from repro.resilience import FaultSchedule, NodeDowntime, UplinkOutage


def network(**kwargs):
    return default_network(rows=2, cols=2, n_nodes=4, seed=29, **kwargs)


def fleet(**kwargs):
    return default_network(rows=4, cols=4, n_nodes=8, seed=7, **kwargs)


class TestDegeneracy:
    def test_regions_1_matches_unsharded_bit_for_bit(self):
        unsharded = network().run(30.0)
        sharded = run_sharded(network(), 30.0)
        assert unsharded.journal == sharded.journal
        assert unsharded.journal.digest() == sharded.journal.digest()
        assert unsharded.metrics() == sharded.metrics()
        assert len(sharded.shards) == 1

    def test_merge_of_a_single_shard_is_the_identity(self):
        result = run_sharded(network(), 10.0)
        merged = merge_journals(result.shards)
        assert merged == result.journal
        assert merged.digest() == result.journal.digest()


class TestShardedFleet:
    def test_same_seed_same_journals_and_metrics(self):
        first = fleet(regions=4).run(20.0)
        second = fleet(regions=4).run(20.0)
        assert first.journal == second.journal
        assert first.metrics() == second.metrics()
        assert len(first.shards) == 4
        assert sum(len(s) for s in first.shards) == len(first.journal)
        for a, b in zip(first.shards, second.shards):
            assert a.digest() == b.digest()

    def test_aggregates_track_the_unsharded_run(self):
        sharded = fleet(regions=4).run(20.0)
        unsharded = fleet().run(20.0)
        assert sharded.total_handovers == unsharded.total_handovers
        sharded_m, unsharded_m = sharded.metrics(), unsharded.metrics()
        assert (sharded_m["reports_delivered"]
                == unsharded_m["reports_delivered"])
        assert (sharded_m["reports_lost"] == unsharded_m["reports_lost"])
        # A remote cell's LED level is a round stale and each region
        # draws its own Wi-Fi delays, so goodput agrees closely but not
        # bit-for-bit.
        assert sharded_m["aggregate_throughput_bps"] == pytest.approx(
            unsharded_m["aggregate_throughput_bps"], rel=1e-3)

    def test_faults_propagate_into_regions(self):
        faults = FaultSchedule((NodeDowntime("node-00", 2.0, 6.0),
                                UplinkOutage(3.0, 5.0)))
        sharded = fleet(regions=4, faults=faults).run(10.0)
        unsharded = fleet(faults=faults).run(10.0)
        sharded_m, unsharded_m = sharded.metrics(), unsharded.metrics()
        assert sharded_m["reports_lost"] > 0
        assert sharded_m["reports_lost"] == unsharded_m["reports_lost"]
        down = [e for e in sharded.journal.entries
                if e.kind == "sense" and e.actor == "node-00"
                and 2.0 < e.time < 6.0]
        assert down == []

    def test_merge_orders_unsorted_shards_by_time_shard_seq(self):
        # A lookahead longer than the sense tick delivers cross-region
        # reports after the receiving region's clock has moved past
        # their arrival stamp, so every shard journals out of time order.
        result = default_network(rows=4, cols=4, n_nodes=12, seed=7,
                                 regions=4, lookahead_s=5.0).run(40.0)
        for shard in result.shards:
            assert any(later.time < earlier.time for earlier, later
                       in zip(shard.entries, shard.entries[1:]))
        tagged = sorted(
            ((entry.time, idx, entry.seq, entry)
             for idx, shard in enumerate(result.shards)
             for entry in shard.entries),
            key=lambda item: item[:3])
        expected = [JournalEntry(seq, entry.time, entry.kind, entry.actor,
                                 entry.detail)
                    for seq, (*_key, entry) in enumerate(tagged)]
        assert result.journal.entries == expected
        assert merge_journals(result.shards) == result.journal


class TestValidation:
    def test_regions_must_fit_the_grid(self):
        with pytest.raises(ValueError):
            network(regions=5)
        with pytest.raises(ValueError):
            network(regions=0)

    def test_sharding_requires_a_finite_cull_radius(self):
        from repro.phy import OpticalFrontEnd, calibrated_channel

        wide = calibrated_channel(optics=OpticalFrontEnd(rx_fov_deg=90.0))
        sim = fleet(regions=2, channel=wide)
        with pytest.raises(ValueError, match="FoV"):
            sim.run(5.0)
