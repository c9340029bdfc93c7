"""The Fig. 2 desk room: one luminaire, three desks, Wi-Fi feedback."""

import dataclasses

import pytest

from repro.lighting import BlindRampAmbient, StaticAmbient
from repro.net import MobileNode, StaticPosition, desk_room

DESKS = ("desk-under-lamp", "desk-window", "desk-corner")
#: minimum goodput for a desk sample to count as "linked"
LINK_FLOOR_BPS = 1e3


def goodputs(result, desk: str) -> list[float]:
    """A desk's per-tick goodput, from the journal's ``link`` entries."""
    return [e.get("goodput_bps")
            for e in result.journal.of_kind("link", actor=desk)]


def sensed(result, desk: str) -> list[float]:
    """A desk's per-tick ambient reading, from its ``sense`` entries."""
    return [e.get("ambient")
            for e in result.journal.of_kind("sense", actor=desk)]


def with_desks(*desks: MobileNode, **kwargs):
    """The desk room with its three desks replaced."""
    return dataclasses.replace(desk_room(**kwargs), nodes=desks)


class TestPlacement:
    def test_one_lamp_three_desks(self):
        room = desk_room()
        assert len(room.luminaires) == 1
        assert tuple(node.name for node in room.nodes) == DESKS
        assert room.drop_m == 2.5

    def test_under_lamp_is_on_axis(self):
        room = desk_room()
        (lamp,) = room.luminaires
        assert room.nodes[0].mobility.position(0.0) == (lamp.x_m, lamp.y_m)

    def test_daylight_gain(self):
        result = desk_room(profile=StaticAmbient(0.5)).run(1.0)
        assert sensed(result, "desk-window")[0] == pytest.approx(0.6)
        result = desk_room(profile=StaticAmbient(0.9)).run(1.0)
        assert sensed(result, "desk-window") == [1.0, 1.0]  # clipped

    def test_kwargs_reach_the_simulation(self):
        room = desk_room(seed=5, tick_s=0.5)
        assert (room.seed, room.tick_s) == (5, 0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="daylight_gain"):
            MobileNode("x", StaticPosition(0.0, 0.0), daylight_gain=1.6)
        with pytest.raises(ValueError):
            dataclasses.replace(desk_room(), drop_m=0.0)


class TestRoom:
    @pytest.fixture(scope="class")
    def run(self):
        room = desk_room(profile=BlindRampAmbient())
        return room, room.run(30.0)

    def test_all_default_desks_linked(self, run):
        _, result = run
        for desk in DESKS:
            rates = goodputs(result, desk)
            assert len(rates) == 31
            assert min(rates) >= LINK_FLOOR_BPS, desk
        assert result.journal.count("link-down") == 0

    def test_near_desk_fastest(self, run):
        _, result = run
        near = goodputs(result, "desk-under-lamp")
        far = goodputs(result, "desk-corner")
        assert all(a >= b for a, b in zip(near, far))

    def test_led_tracks_fused_ambient(self, run):
        _, result = run
        control = result.journal.of_kind("control")
        first, last = control[0], control[-1]
        assert last.get("fused") > first.get("fused")
        assert last.get("led") < first.get("led")

    def test_controller_keeps_sum(self, run):
        room, result = run
        for entry in result.journal.of_kind("control"):
            assert entry.get("led") + entry.get("fused") == pytest.approx(
                room.target_sum, abs=0.02)

    def test_aggregate_sums_nodes(self, run):
        _, result = run
        means = [sum(goodputs(result, desk)) / 31 for desk in DESKS]
        for desk, mean in zip(DESKS, means):
            assert result.node(desk).mean_goodput_bps == pytest.approx(mean)
        assert result.aggregate_throughput_bps == pytest.approx(sum(means))

    def test_unknown_node_lookup(self, run):
        _, result = run
        with pytest.raises(KeyError):
            result.node("nope")

    def test_deterministic_per_seed(self):
        a = desk_room(seed=5, profile=StaticAmbient(0.4)).run(5.0)
        b = desk_room(seed=5, profile=StaticAmbient(0.4)).run(5.0)
        assert a.journal.digest() == b.journal.digest()
        assert a.metrics() == b.metrics()

    def test_far_desk_outside_beam_is_down(self):
        room = with_desks(MobileNode("far-desk", StaticPosition(3.0, 0.0)))
        assert max(goodputs(room.run(3.0), "far-desk")) < LINK_FLOOR_BPS

    def test_outside_fov_desk_has_zero_throughput(self):
        # Incidence beyond the photodiode FoV: zero gain, zero goodput,
        # but lighting control still runs, on the luminaire's own
        # reading of the room ambient.
        room = with_desks(MobileNode("hallway", StaticPosition(20.0, 0.0)),
                          profile=StaticAmbient(0.4))
        result = room.run(3.0)
        assert goodputs(result, "hallway") == [0.0] * 4
        control = result.journal.of_kind("control")
        assert [e.get("fused") for e in control] == [0.4] * 4

    def test_desk_under_lamp_beats_offset_desk(self):
        room = with_desks(MobileNode("under", StaticPosition(0.0, 0.0)),
                          MobileNode("offset", StaticPosition(1.0, 0.0)),
                          profile=StaticAmbient(0.4))
        result = room.run(1.0)
        assert all(a > b for a, b in zip(goodputs(result, "under"),
                                         goodputs(result, "offset")))

    def test_window_desk_senses_more_daylight(self):
        result = desk_room(profile=StaticAmbient(0.5)).run(1.0)
        assert sensed(result, "desk-window")[0] > \
            sensed(result, "desk-corner")[0]

    def test_needs_receivers(self):
        with pytest.raises(ValueError, match="receiver"):
            with_desks()

    def test_tick_validation(self):
        with pytest.raises(ValueError, match="tick_s"):
            desk_room(tick_s=0.0)
