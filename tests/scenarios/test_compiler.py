"""Scenario compilation: walls, churn projection, chaos overlays."""

import pytest

from repro.resilience import NodeDowntime
from repro.scenarios import (
    ChaosSpec,
    OccupancySpec,
    RoomSpec,
    Scenario,
    compile_scenario,
)


def room(room_id, rows=1, cols=2, population=1, arrive=0.0, depart=48.0):
    return RoomSpec(id=room_id, rows=rows, cols=cols, spacing_m=2.0,
                    occupancy=OccupancySpec(population=population,
                                            arrive_lo_s=arrive,
                                            arrive_hi_s=arrive,
                                            depart_lo_s=depart,
                                            depart_hi_s=depart))


def scenario(rooms=None, **overrides):
    values = dict(name="test", rooms=rooms or (room("a"),),
                  duration_s=60.0, tick_s=2.0, report_window_s=30.0,
                  seed=9)
    values.update(overrides)
    return Scenario(**values)


class TestLayout:
    def test_rooms_line_up_along_x_with_a_wall_gap(self):
        compiled = compile_scenario(scenario(rooms=(room("a"), room("b"))))
        first, second = compiled.rooms
        assert first.origin_x_m == 0.0
        assert second.origin_x_m == pytest.approx(
            first.width_m + compiled.wall_gap_m)

    def test_walls_out_reach_the_fov_cull_radius(self):
        # The gap is the cull radius plus a margin, so the closest
        # cross-room luminaire pair sits strictly outside each other's
        # field of view: every cross-room gain is exactly zero.
        compiled = compile_scenario(scenario(rooms=(room("a"), room("b"))))
        positions = {lum.name: (lum.x_m, lum.y_m)
                     for lum in compiled.simulation.luminaires}
        a_edge = max(x for name, (x, _) in positions.items()
                     if name.startswith("a."))
        b_edge = min(x for name, (x, _) in positions.items()
                     if name.startswith("b."))
        assert b_edge - a_edge > compiled.wall_gap_m

    def test_luminaire_names_follow_the_grid(self):
        compiled = compile_scenario(scenario(rooms=(room("a", rows=2,
                                                         cols=2),)))
        assert compiled.rooms[0].luminaires == (
            "a.r0c0", "a.r0c1", "a.r1c0", "a.r1c1")

    def test_atlas_maps_are_complete(self):
        compiled = compile_scenario(
            scenario(rooms=(room("a", population=2), room("b"))))
        assert set(compiled.cell_room.values()) == {"a", "b"}
        assert len(compiled.cell_room) == 4
        assert set(compiled.node_room) == {
            "a.occ00", "a.occ01", "b.occ00"}

    def test_occupants_stay_inside_their_room(self):
        compiled = compile_scenario(scenario(rooms=(room("a"), room("b"))))
        layout = {r.id: r for r in compiled.rooms}
        for node in compiled.simulation.nodes:
            home = layout[compiled.node_room[node.name]]
            for t in range(0, 60, 3):
                x, y = node.mobility.position(float(t))
                assert home.origin_x_m <= x <= \
                    home.origin_x_m + home.width_m
                assert home.origin_y_m <= y <= \
                    home.origin_y_m + home.depth_m


class TestStaleness:
    def test_fast_ticks_keep_the_default_window(self):
        compiled = compile_scenario(scenario(tick_s=2.0))
        assert compiled.simulation.staleness_s == 5.0

    def test_slow_ticks_widen_the_window(self):
        # Below tick_s the staleness filter would discard every occupant
        # report and silently pin fusion to the fallback ambient.
        compiled = compile_scenario(scenario(duration_s=300.0, tick_s=60.0))
        assert compiled.simulation.staleness_s == 60.0


class TestChurnProjection:
    def test_late_arrival_compiles_to_leading_downtime(self):
        compiled = compile_scenario(
            scenario(rooms=(room("a", arrive=30.0, depart=50.0),)))
        faults = compiled.simulation.faults.of_type(NodeDowntime)
        downtime = {window.node: (window.start_s, window.end_s)
                    for window in faults}
        # Down before arriving and again after leaving.
        windows = [(window.start_s, window.end_s) for window in faults
                   if window.node == "a.occ00"]
        assert (0.0, 30.0) in windows
        assert (50.0, 60.0) in windows
        assert downtime  # at least one projected window

    def test_simulation_carries_the_scenario_knobs(self):
        compiled = compile_scenario(scenario(target_sum=0.8), regions=2)
        assert compiled.simulation.target_sum == 0.8
        assert compiled.simulation.tick_s == 2.0
        assert compiled.simulation.seed == 9
        assert compiled.simulation.regions == 2


class TestChaosOverlay:
    def test_random_overlay_is_pure_in_the_scenario_seed(self):
        chaotic = scenario(chaos=ChaosSpec(schedule="random",
                                           intensity=0.7))
        a = compile_scenario(chaotic).simulation.faults
        b = compile_scenario(chaotic).simulation.faults
        assert a == b

    def test_unprojected_primitives_are_reported_not_applied(self):
        compiled = compile_scenario(
            scenario(chaos=ChaosSpec(schedule="blinding")))
        assert compiled.unprojected
        assert any("adc-blinding" in note for note in compiled.unprojected)

    def test_no_chaos_means_no_notes(self):
        assert compile_scenario(scenario()).unprojected == ()
