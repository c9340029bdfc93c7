"""Lambertian propagation geometry."""

import dataclasses
import math

import pytest

from repro.phy import LinkGeometry, OpticalFrontEnd


class TestLambertianOrder:
    def test_60_degree_semi_angle_is_order_one(self):
        fe = OpticalFrontEnd(semi_angle_deg=60.0)
        assert fe.lambertian_order == pytest.approx(1.0)

    def test_narrow_beam_high_order(self):
        fe = OpticalFrontEnd(semi_angle_deg=15.0)
        assert fe.lambertian_order == pytest.approx(
            -math.log(2) / math.log(math.cos(math.radians(15))))
        assert fe.lambertian_order > 15


    def test_semi_angle_is_the_half_power_angle(self):
        for semi_angle in (15.0, 30.0, 60.0):
            fe = OpticalFrontEnd(semi_angle_deg=semi_angle)
            assert fe.gain(2.0, semi_angle, 0.0) / fe.gain(2.0, 0.0, 0.0) \
                == pytest.approx(0.5)

    def test_cached_order_is_a_pure_function_of_the_fields(self):
        used, fresh = OpticalFrontEnd(), OpticalFrontEnd()
        assert used.lambertian_order == -math.log(2.0) / math.log(
            math.cos(math.radians(used.semi_angle_deg)))
        assert used == fresh and hash(used) == hash(fresh)
        wide = dataclasses.replace(used, semi_angle_deg=60.0)
        assert wide.lambertian_order == pytest.approx(1.0)


class TestChannelGain:
    def test_inverse_square_law(self):
        fe = OpticalFrontEnd()
        g1 = fe.channel_gain(LinkGeometry.on_axis(1.0))
        g2 = fe.channel_gain(LinkGeometry.on_axis(2.0))
        assert g1 / g2 == pytest.approx(4.0)

    def test_on_axis_gain_closed_form(self):
        # H(0) = (m + 1) A / (2 pi d^2) directly below the LED.
        fe = OpticalFrontEnd()
        m = fe.lambertian_order
        assert fe.channel_gain(LinkGeometry.on_axis(2.5)) == pytest.approx(
            (m + 1.0) * fe.rx_area_m2 / (2.0 * math.pi * 2.5 ** 2))

    def test_narrow_beam_concentrates(self):
        # Same power: the narrow beam is brighter on-axis, dimmer off.
        narrow = OpticalFrontEnd(semi_angle_deg=15.0)
        wide = OpticalFrontEnd(semi_angle_deg=60.0)
        assert narrow.gain(2.0, 0.0, 0.0) > wide.gain(2.0, 0.0, 0.0)
        assert narrow.gain(2.0, 40.0, 0.0) < wide.gain(2.0, 40.0, 0.0)

    def test_gain_decreases_off_axis(self):
        fe = OpticalFrontEnd()
        on = fe.channel_gain(LinkGeometry.on_arc(2.0, 0.0))
        off = fe.channel_gain(LinkGeometry.on_arc(2.0, 10.0))
        assert off < on

    def test_fov_cutoff(self):
        fe = OpticalFrontEnd(rx_fov_deg=30.0)
        inside = fe.channel_gain(LinkGeometry(2.0, 0.0, 29.0))
        outside = fe.channel_gain(LinkGeometry(2.0, 0.0, 31.0))
        assert inside > 0.0
        assert outside == 0.0

    def test_cosine_receiver_factor(self):
        fe = OpticalFrontEnd(semi_angle_deg=60.0)
        on = fe.channel_gain(LinkGeometry(2.0, 0.0, 0.0))
        tilted = fe.channel_gain(LinkGeometry(2.0, 0.0, 60.0))
        assert tilted / on == pytest.approx(math.cos(math.radians(60.0)),
                                            rel=1e-9)

    def test_received_power_scales_with_tx_power(self):
        geometry = LinkGeometry.on_axis(3.0)
        weak = OpticalFrontEnd(tx_power_w=1.0).received_power_w(geometry)
        strong = OpticalFrontEnd(tx_power_w=4.7).received_power_w(geometry)
        assert strong / weak == pytest.approx(4.7)


class TestGeometry:
    def test_on_arc_couples_angles(self):
        g = LinkGeometry.on_arc(2.3, 12.0)
        assert g.irradiance_angle_deg == g.incidence_angle_deg == 12.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkGeometry(0.0)
        with pytest.raises(ValueError):
            LinkGeometry(1.0, 90.0)
        with pytest.raises(ValueError):
            LinkGeometry(1.0, 0.0, -5.0)

    def test_front_end_validation(self):
        with pytest.raises(ValueError):
            OpticalFrontEnd(tx_power_w=0.0)
        with pytest.raises(ValueError):
            OpticalFrontEnd(semi_angle_deg=90.0)
        with pytest.raises(ValueError):
            OpticalFrontEnd(rx_area_m2=-1.0)


DROP_M = 2.1


def probe_offsets(optics: OpticalFrontEnd) -> list[float]:
    """Offsets from on-axis to past the 89° clamp, with the FoV radius
    and the clamp offset each flanked by their neighbouring floats."""
    offsets = [0.0, 1e-9, 0.4, 1.0, DROP_M, 3.0, 6.5, 30.0, 500.0, 1e6]
    for angle in (optics.rx_fov_deg, 89.0):
        edge = DROP_M * math.tan(math.radians(angle))
        offsets += [math.nextafter(edge, 0.0), edge,
                    math.nextafter(edge, math.inf)]
    return offsets


@pytest.mark.parametrize("optics", [
    OpticalFrontEnd(),
    OpticalFrontEnd(rx_fov_deg=30.0),
    OpticalFrontEnd(rx_fov_deg=89.0),
    OpticalFrontEnd(rx_fov_deg=90.0),
    OpticalFrontEnd(semi_angle_deg=30.0),
], ids=["default", "fov30", "fov89", "fov90", "semi30"])
def test_offset_gain_equals_the_geometry_path(optics):
    gains = []
    for offset in probe_offsets(optics):
        reference = optics.channel_gain(
            LinkGeometry.from_offsets(offset, DROP_M))
        assert optics.offset_gain(offset, DROP_M) == reference, offset
        gains.append(reference)
    assert gains[0] > 0.0
    if optics.rx_fov_deg < 89.0:
        assert 0.0 in gains


class TestFromOffsets:
    """Geometry edge cases of the shared from_offsets constructor."""

    def test_zero_horizontal_offset_is_the_boresight(self):
        g = LinkGeometry.from_offsets(0.0, 2.0)
        assert g.distance_m == pytest.approx(2.0)
        assert g.irradiance_angle_deg == 0.0
        assert g.incidence_angle_deg == 0.0

    def test_symmetric_angles(self):
        g = LinkGeometry.from_offsets(3.0, 2.0)
        assert g.irradiance_angle_deg == pytest.approx(
            g.incidence_angle_deg)
        assert g.distance_m == pytest.approx(math.hypot(3.0, 2.0))

    def test_grazing_offsets_clamp_below_ninety(self):
        g = LinkGeometry.from_offsets(1e6, 1e-3)
        assert g.incidence_angle_deg <= 89.0

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkGeometry.from_offsets(-0.1, 2.0)
        with pytest.raises(ValueError):
            LinkGeometry.from_offsets(1.0, 0.0)
