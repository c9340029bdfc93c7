"""Spatial index: brute-force parity, exact culling, order preservation."""

import math

import pytest

from repro.lighting import BlindRampAmbient, StaticAmbient
from repro.net import LuminaireIndex, default_network, luminaire_grid
from repro.net.spatial import _fov_radius
from repro.phy import LinkGeometry, OpticalFrontEnd

OPTICS = OpticalFrontEnd()  # 60 degree FoV: finite cull radius
DROP = 2.1


def brute_within(luminaires, position, radius):
    x, y = position
    return [lum for lum in luminaires
            if math.hypot(x - lum.x_m, y - lum.y_m) <= radius]


def brute_nearest(luminaires, position):
    x, y = position
    return min(luminaires,
               key=lambda lum: (math.hypot(x - lum.x_m, y - lum.y_m),
                                lum.name))


def probe_points(rows, cols, spacing):
    for ix in range(2 * cols + 2):
        for iy in range(2 * rows + 2):
            yield (ix * spacing / 2.0 - spacing / 2.0,
                   iy * spacing / 2.0 - spacing / 2.0)


class TestWithin:
    def test_matches_brute_force_on_a_grid(self):
        luminaires = luminaire_grid(5, 7, 2.5)
        index = LuminaireIndex(luminaires, DROP, OPTICS)
        for point in probe_points(5, 7, 2.5):
            assert index.within(point) == brute_within(
                luminaires, point, index.radius)

    def test_preserves_original_order(self):
        luminaires = luminaire_grid(4, 4, 1.0)
        index = LuminaireIndex(luminaires, DROP, OPTICS)
        order = {lum.name: i for i, lum in enumerate(luminaires)}
        nearby = index.within((2.0, 2.0))
        assert len(nearby) > 2
        assert [order[lum.name] for lum in nearby] == sorted(
            order[lum.name] for lum in nearby)

    def test_everything_outside_the_radius_has_zero_gain(self):
        luminaires = luminaire_grid(6, 6, 3.0)
        index = LuminaireIndex(luminaires, DROP, OPTICS)
        for point in probe_points(6, 6, 3.0):
            kept = {lum.name for lum in index.within(point)}
            for lum in luminaires:
                if lum.name in kept:
                    continue
                offset = math.hypot(point[0] - lum.x_m, point[1] - lum.y_m)
                gain = OPTICS.channel_gain(
                    LinkGeometry.from_offsets(offset, DROP))
                assert gain == 0.0

    def test_wide_fov_disables_culling(self):
        luminaires = luminaire_grid(3, 3, 2.0)
        wide = OpticalFrontEnd(rx_fov_deg=90.0)
        index = LuminaireIndex(luminaires, DROP, wide)
        assert math.isinf(index.radius)
        assert index.within((100.0, 100.0)) == list(luminaires)


class TestNearest:
    def test_matches_brute_force_on_a_grid(self):
        luminaires = luminaire_grid(5, 7, 2.5)
        index = LuminaireIndex(luminaires, DROP, OPTICS)
        for point in probe_points(5, 7, 2.5):
            assert index.nearest(point) is brute_nearest(luminaires, point)

    def test_equidistant_ties_break_by_name(self):
        luminaires = luminaire_grid(2, 2, 2.0)
        index = LuminaireIndex(luminaires, DROP, OPTICS)
        # The grid centre is equidistant from all four luminaires.
        assert index.nearest((1.0, 1.0)) is brute_nearest(luminaires,
                                                          (1.0, 1.0))

    def test_far_outside_the_grid(self):
        luminaires = luminaire_grid(3, 3, 2.0)
        index = LuminaireIndex(luminaires, DROP, OPTICS)
        for point in ((-50.0, -50.0), (80.0, 3.0), (3.0, 80.0)):
            assert index.nearest(point) is brute_nearest(luminaires, point)


class TestAtRunPositions:
    """The index against a brute-force scan wherever a fleet sensed."""

    @pytest.mark.parametrize("profile", [
        StaticAmbient(0.4), BlindRampAmbient(duration_s=30.0)],
        ids=["static", "blind-ramp"])
    def test_every_sensed_position_matches_the_scan(self, profile):
        sim = default_network(rows=4, cols=4, n_nodes=8, seed=7,
                              profile=profile)
        journal = sim.run(30.0).journal
        luminaires, optics = sim.luminaires, sim.channel.optics
        index = LuminaireIndex(luminaires, sim.drop_m, optics)

        def lit(found, point):
            return [lum for lum in found if optics.channel_gain(
                LinkGeometry.from_offsets(
                    math.hypot(point[0] - lum.x_m, point[1] - lum.y_m),
                    sim.drop_m)) > 0.0]

        points = [(e.get("x"), e.get("y")) for e in journal.of_kind("sense")]
        assert len(points) == 8 * 31
        for point in points:
            found = index.within(point)
            assert found == brute_within(luminaires, point, index.radius)
            assert lit(found, point) == lit(luminaires, point)
            assert index.nearest(point) is brute_nearest(luminaires, point)


class TestRadii:
    def test_fov_radius_is_the_zero_gain_boundary(self):
        radius = _fov_radius(DROP, OPTICS)
        just_inside = radius / (1.0 + 2e-9)
        gain_inside = OPTICS.channel_gain(
            LinkGeometry.from_offsets(just_inside, DROP))
        gain_outside = OPTICS.channel_gain(
            LinkGeometry.from_offsets(radius * 1.01, DROP))
        assert gain_inside > 0.0
        assert gain_outside == 0.0

    def test_validation(self):
        luminaires = luminaire_grid(2, 2, 2.0)
        with pytest.raises(ValueError):
            LuminaireIndex((), DROP, OPTICS)
        with pytest.raises(ValueError):
            LuminaireIndex(luminaires, 0.0, OPTICS)

    @pytest.mark.parametrize("field, value", [
        ("drop_m", math.nan), ("drop_m", math.inf)])
    def test_non_finite_inputs_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            LuminaireIndex(luminaire_grid(2, 2, 2.0), optics=OPTICS,
                           **{field: value})
