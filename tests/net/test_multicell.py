"""The multi-luminaire network simulator: the PR's acceptance pins.

Determinism (same seed → bit-identical journal, identical metrics),
handover physics (static nodes never hand over, a boundary-crossing
trace does), interference monotonicity at network level, and fault
injection all get pinned here.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import shared_designer
from repro.des import EventJournal, EventScheduler
from repro.lighting import BlindRampAmbient, StaticAmbient
from repro.net import AmbientField, LinearTrace, Luminaire, \
    LuminaireIndex, MobileNode, MulticellSimulation, StaticPosition, \
    default_network, luminaire_grid, strongest_cell
from repro.net.mobility import RandomWaypoint
from repro.net.multicell import HYSTERESIS_DB
from repro.resilience import AckLossBurst, AdcBlinding, AmbientStep, \
    FaultSchedule, NodeDowntime, UplinkOutage


class TestLuminaireGrid:
    def test_layout_and_names(self):
        grid = luminaire_grid(2, 3, spacing_m=2.0)
        assert len(grid) == 6
        assert grid[0].name == "cell-r0c0"
        assert (grid[0].x_m, grid[0].y_m) == (1.0, 1.0)
        assert grid[-1].name == "cell-r1c2"
        assert (grid[-1].x_m, grid[-1].y_m) == (5.0, 3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            luminaire_grid(0, 2)
        with pytest.raises(ValueError):
            luminaire_grid(1, 1, spacing_m=0.0)

    @pytest.mark.parametrize("spacing", [math.nan, math.inf])
    def test_non_finite_spacing_is_rejected(self, spacing):
        with pytest.raises(ValueError, match="spacing_m"):
            luminaire_grid(2, 2, spacing)

    @pytest.mark.parametrize("x, y", [(math.nan, 1.0), (1.0, math.inf)])
    def test_non_finite_luminaire_position_is_rejected(self, x, y):
        with pytest.raises(ValueError, match="x_m and y_m"):
            Luminaire("cell", x, y)


class TestStrongestCell:
    def test_picks_the_strongest(self):
        gains = {"a": 1.0, "b": 3.0, "c": 2.0}
        assert strongest_cell(gains, serving=None) == "b"

    def test_ties_break_by_name(self):
        assert strongest_cell({"b": 1.0, "a": 1.0}, serving=None) == "a"

    def test_hysteresis_suppresses_ping_pong(self):
        gains = {"a": 1.0, "b": 1.2}
        # b is stronger, but not by 2 dB (x1.585) — stay on a.
        assert strongest_cell(gains, serving="a", hysteresis_db=2.0) == "a"
        assert strongest_cell({"a": 1.0, "b": 1.7}, serving="a",
                              hysteresis_db=2.0) == "b"

    def test_exact_hysteresis_boundary_stays_put(self):
        # A challenger at *exactly* the hysteresis margin does not win:
        # the comparison is strict, so flapping needs a real advantage.
        margin = 10.0 ** (2.0 / 10.0)
        assert strongest_cell({"a": 1.0, "b": margin}, serving="a",
                              hysteresis_db=2.0) == "a"
        nudged = margin * (1.0 + 1e-12)
        assert strongest_cell({"a": 1.0, "b": nudged}, serving="a",
                              hysteresis_db=2.0) == "b"

    def test_out_of_coverage_returns_none(self):
        assert strongest_cell({"a": 0.0}, serving="a") is None
        assert strongest_cell({}, serving=None) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            strongest_cell({"a": 1.0}, None, hysteresis_db=-1.0)
        with pytest.raises(ValueError, match="hysteresis_db"):
            strongest_cell({"a": 1.0}, None, hysteresis_db=math.nan)


def small_network(**kwargs):
    defaults = dict(
        luminaires=luminaire_grid(1, 2, spacing_m=2.5),
        nodes=(MobileNode("n0", StaticPosition(1.25, 1.25)),),
        seed=5,
    )
    defaults.update(kwargs)
    return MulticellSimulation(**defaults)


class TestDeterminism:
    def test_same_instance_reruns_identically(self):
        sim = small_network()
        first = sim.run(12.0)
        second = sim.run(12.0)
        assert first.journal == second.journal
        assert first.journal.digest() == second.journal.digest()
        assert first.metrics() == second.metrics()

    def test_equal_scenarios_agree(self):
        first = default_network(rows=2, cols=2, n_nodes=3, seed=77).run(10.0)
        second = default_network(rows=2, cols=2, n_nodes=3, seed=77).run(10.0)
        assert first.journal == second.journal
        assert first.metrics() == second.metrics()

    def test_different_seeds_diverge(self):
        first = default_network(n_nodes=3, seed=1).run(10.0)
        second = default_network(n_nodes=3, seed=2).run(10.0)
        assert first.journal != second.journal


class TestHandover:
    def test_static_receiver_never_hands_over(self):
        result = small_network().run(20.0)
        assert result.total_handovers == 0
        assert result.journal.count("handover") == 0
        assert result.journal.count("associate") == 1

    def test_boundary_crossing_trace_hands_over(self):
        # Walk from under cell-r0c0 (x=1.25) to under cell-r0c1
        # (x=3.75) at 0.2 m/s; the midline is crossed around t=6.25 s.
        walker = MobileNode("walker", LinearTrace(
            1.25, 1.25, velocity_x_mps=0.2, end_t_s=15.0))
        result = small_network(nodes=(walker,)).run(25.0)
        assert result.total_handovers > 0
        handover = result.journal.of_kind("handover")[0]
        assert handover.get("source") == "cell-r0c0"
        assert handover.get("target") == "cell-r0c1"
        assert result.node("walker").handovers == result.total_handovers

    def test_handover_waits_for_the_hysteresis_margin(self):
        # A slow walk over the midline (x = 2.5 m at t = 12.5 s): the
        # neighbour leads from t = 13 s, but the node stays until the
        # lead exceeds HYSTERESIS_DB.
        walker = MobileNode("walker", LinearTrace(
            2.25, 1.25, velocity_x_mps=0.02, end_t_s=40.0))
        sim = small_network(nodes=(walker,))
        result = sim.run(30.0)
        (handover,) = result.journal.of_kind("handover")
        lead_db = {}
        for entry in result.journal.of_kind("sense", actor="walker"):
            x, y = entry.get("x"), entry.get("y")
            gain = {lum.name: sim.channel.optics.offset_gain(
                math.hypot(x - lum.x_m, y - lum.y_m), sim.drop_m)
                for lum in sim.luminaires}
            lead_db[entry.time] = 10.0 * math.log10(gain["cell-r0c1"]
                                                    / gain["cell-r0c0"])
        held = [t for t, lead in lead_db.items()
                if lead > 0.0 and t < handover.time]
        assert held, "the neighbour never led before the handover"
        assert all(lead_db[t] <= HYSTERESIS_DB for t in held)
        assert lead_db[handover.time] > HYSTERESIS_DB

    def test_mobile_fleet_reports_positive_goodput(self):
        result = default_network(rows=2, cols=2, n_nodes=4, seed=3).run(15.0)
        assert result.aggregate_throughput_bps > 0.0
        for node in result.nodes:
            assert node.samples > 0


class TestInterferenceAtNetworkLevel:
    def test_neighbour_cell_never_helps_a_static_node(self):
        node = MobileNode("n0", StaticPosition(1.25, 1.25))
        alone = MulticellSimulation(
            luminaires=luminaire_grid(1, 1, spacing_m=2.5),
            nodes=(node,), seed=5).run(15.0)
        crowded = small_network(nodes=(node,)).run(15.0)
        assert crowded.node("n0").mean_goodput_bps \
            <= alone.node("n0").mean_goodput_bps + 1e-9


class TestFaultInjection:
    def test_node_downtime_shows_as_down_samples(self):
        sim = small_network(
            faults=FaultSchedule((NodeDowntime("n0", 5.0, 10.0),)))
        result = sim.run(20.0)
        report = result.node("n0")
        assert report.down_samples == 5
        assert result.journal.count("node-down") == 1
        assert result.journal.count("node-up") == 1
        assert result.journal.count("link-down") == 5
        # The node re-associates after coming back.
        assert result.journal.count("associate") == 2

    def test_uplink_outage_loses_reports(self):
        sim = small_network(
            faults=FaultSchedule((UplinkOutage(2.0, 8.0),)))
        result = sim.run(15.0)
        lost = result.journal.of_kind("report-lost")
        assert lost
        assert all(e.get("reason") == "outage" for e in lost)
        assert all(2.0 <= e.time < 8.0 for e in lost)
        assert result.journal.count("report-arrival") > 0

    def test_zone_override_only_affects_its_zone(self):
        ambient = AmbientField(
            base=StaticAmbient(0.2),
            zone_overrides=(("cell-r0c1", StaticAmbient(0.9)),))
        nodes = (MobileNode("left", StaticPosition(1.25, 1.25)),
                 MobileNode("right", StaticPosition(3.75, 1.25)))
        result = small_network(nodes=nodes, ambient=ambient).run(10.0)
        left = result.journal.of_kind("sense", actor="left")
        right = result.journal.of_kind("sense", actor="right")
        assert all(e.get("ambient") == pytest.approx(0.2) for e in left)
        assert all(e.get("ambient") == pytest.approx(0.9) for e in right)

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            small_network(faults=FaultSchedule((
                NodeDowntime("ghost", 1.0, 2.0),)))

    def test_zone_override_naming_no_luminaire_is_rejected(self):
        # It would otherwise be ignored: no sensed zone or cell carries
        # that name, so the run would match one without the override.
        network = default_network(rows=2, cols=2, n_nodes=2, seed=1)
        ambient = AmbientField(
            zone_overrides=(("cell-r9c9", StaticAmbient(0.9)),))
        with pytest.raises(ValueError, match="'cell-r9c9'"):
            dataclasses.replace(network, ambient=ambient)

    def test_zone_named_twice_is_rejected(self):
        # Only the first profile would ever apply.
        ambient = AmbientField(
            zone_overrides=(("cell-r0c1", StaticAmbient(0.9)),
                            ("cell-r0c1", StaticAmbient(0.1))))
        with pytest.raises(ValueError, match="'cell-r0c1'"):
            small_network(ambient=ambient)

    @pytest.mark.parametrize("fault", [
        AdcBlinding(1.0, 2.0), AckLossBurst(1.0, 2.0), AmbientStep(1.0, 0.5),
    ], ids=lambda fault: type(fault).__name__)
    def test_unmodelled_fault_kinds_are_rejected(self, fault):
        with pytest.raises(ValueError, match=type(fault).__name__):
            small_network(faults=FaultSchedule((fault,)))

    @pytest.mark.parametrize("build", [
        lambda: UplinkOutage(2.0, math.inf),
        lambda: NodeDowntime("n0", 2.0, math.nan),
    ], ids=["outage-until-inf", "downtime-until-nan"])
    def test_non_finite_fault_times_are_rejected_at_construction(self,
                                                                 build):
        # Rejected when the network is built, not when it first runs.
        with pytest.raises(ValueError, match="window"):
            small_network(faults=FaultSchedule((build(),)))


class TestAdaptation:
    def test_blind_ramp_drives_per_cell_adaptation(self):
        ambient = AmbientField(base=BlindRampAmbient(duration_s=30.0))
        result = small_network(ambient=ambient).run(30.0)
        assert result.total_adjustments > 0
        for cell in result.cells:
            assert 0.0 <= cell.final_led <= 1.0
            assert cell.adaptation_rate_hz == pytest.approx(
                cell.adjustments / 30.0)

    def test_metrics_dict_is_complete(self):
        result = small_network().run(5.0)
        metrics = result.metrics()
        assert set(metrics) == {
            "aggregate_throughput_bps", "total_handovers",
            "total_adjustments", "reports_delivered", "reports_lost"}
        with pytest.raises(KeyError):
            result.node("ghost")
        with pytest.raises(KeyError):
            result.cell("ghost")


class TestSensedZone:
    """A node's ambient zone comes from its in-range offsets; it must
    equal :meth:`LuminaireIndex.nearest` wherever the node stands."""

    @staticmethod
    def sensed_zones(luminaires, points):
        """The zone each point's node sensed at t = 0, read back from a
        per-luminaire ambient level in the ``sense`` journal entries."""
        levels = {lum.name: (i + 1) / 1000.0
                  for i, lum in enumerate(luminaires)}
        ambient = AmbientField(
            base=StaticAmbient(0.999),
            zone_overrides=tuple((name, StaticAmbient(level))
                                 for name, level in levels.items()))
        nodes = tuple(MobileNode(f"n{i:03d}", StaticPosition(x, y))
                      for i, (x, y) in enumerate(points))
        sim = MulticellSimulation(luminaires=luminaires, nodes=nodes,
                                  ambient=ambient, seed=3)
        journal = sim.run(0.5).journal
        zone_of_level = {level: name for name, level in levels.items()}
        sensed = {e.actor: zone_of_level[e.get("ambient")]
                  for e in journal.of_kind("sense")}
        index = LuminaireIndex(luminaires, sim.drop_m, sim.channel.optics)
        expected = {node.name: index.nearest(node.mobility.position(0.0)).name
                    for node in nodes}
        return sensed, expected, index

    def test_seeded_random_points(self):
        rng = np.random.default_rng(2017)
        points = rng.uniform(-3.0, 13.0, size=(200, 2)).tolist()
        sensed, expected, index = self.sensed_zones(
            luminaire_grid(4, 4, 2.5), points)
        assert sensed == expected
        assert any(not index.within(p) for p in points)

    def test_equidistant_tie_goes_to_the_smaller_name(self):
        # "b-west" comes first in tuple order, "a-east" wins the tie.
        luminaires = (Luminaire("b-west", 1.0, 1.0),
                      Luminaire("a-east", 3.0, 1.0),
                      Luminaire("c-north", 2.0, 3.0))
        sensed, expected, _index = self.sensed_zones(
            luminaires, [(2.0, 1.0), (2.0, 0.0), (2.0, 2.0)])
        assert sensed == expected
        assert sensed["n000"] == sensed["n001"] == "a-east"

    def test_point_with_nothing_in_range(self):
        sensed, expected, index = self.sensed_zones(
            luminaire_grid(2, 2, 2.5), [(40.0, -7.0)])
        assert index.within((40.0, -7.0)) == []
        assert sensed == expected == {"n000": "cell-r0c1"}


class TestValidation:
    def test_constructor_guards(self):
        with pytest.raises(ValueError):
            MulticellSimulation(luminaires=())
        with pytest.raises(ValueError):
            MulticellSimulation(nodes=())
        with pytest.raises(ValueError):
            small_network(drop_m=0.0)
        with pytest.raises(ValueError):
            small_network(tick_s=0.0)
        dup = (MobileNode("n0", StaticPosition(1.0, 1.0)),
               MobileNode("n0", StaticPosition(2.0, 1.0)))
        with pytest.raises(ValueError):
            small_network(nodes=dup)
        with pytest.raises(ValueError):
            small_network().run(0.0)
        with pytest.raises(ValueError):
            default_network(n_nodes=0)

    @pytest.mark.parametrize("field, value", [
        ("drop_m", math.nan), ("drop_m", math.inf),
        ("tick_s", math.nan), ("tick_s", math.inf),
        ("staleness_s", math.nan), ("staleness_s", math.inf),
        ("lookahead_s", math.nan), ("lookahead_s", math.inf),
    ])
    def test_non_finite_fields_are_rejected_at_construction(self, field,
                                                            value):
        with pytest.raises(ValueError, match=field):
            small_network(**{field: value})

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration_is_rejected_before_scheduling(
            self, monkeypatch, duration):
        def never(*args, **kwargs):
            raise AssertionError("a non-finite run reached the kernel")

        monkeypatch.setattr(EventScheduler, "run", never)
        with pytest.raises(ValueError, match="duration_s"):
            small_network().run(duration)

    def test_every_cell_shares_the_process_designer(self):
        sim = default_network(rows=2, cols=3, n_nodes=1)
        cells = sim._build_cells(EventScheduler(), EventJournal())
        assert len(cells) == 6
        designer = shared_designer(sim.config)
        assert all(cell.controller.designer is designer
                   for cell in cells.values())

    def test_default_network_scales_the_floor(self):
        sim = default_network(rows=3, cols=2, spacing_m=2.0, n_nodes=2)
        assert len(sim.luminaires) == 6
        walker = sim.nodes[0].mobility
        assert isinstance(walker, RandomWaypoint)
        assert walker.width_m == pytest.approx(4.0)
        assert walker.depth_m == pytest.approx(6.0)
