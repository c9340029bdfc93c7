"""Co-channel interference: monotonicity and consistency contracts."""

import math

import pytest

from repro.core import SlotErrorModel, SystemConfig
from repro.net import Interferer, effective_slot_errors, \
    interference_sigma, sinr
from repro.net.interference import swing_slot_errors
from repro.phy import LinkGeometry, calibrated_channel
from repro.sim.linkmodel import expected_goodput
from repro.schemes import AmppmScheme


@pytest.fixture(scope="module")
def channel():
    return calibrated_channel(SystemConfig())


@pytest.fixture(scope="module")
def serving_geometry():
    return LinkGeometry.from_offsets(0.5, 2.0)


@pytest.fixture(scope="module")
def neighbour_geometry():
    return LinkGeometry.from_offsets(2.0, 2.0)


class TestInterferenceSigma:
    def test_no_interferers_is_zero(self, channel):
        assert interference_sigma(channel, []) == 0.0

    def test_pinned_duty_contributes_nothing(self, channel,
                                             neighbour_geometry):
        for duty in (0.0, 1.0):
            sigma = interference_sigma(
                channel, [Interferer(neighbour_geometry, duty)])
            assert sigma == 0.0

    def test_half_duty_maximises_fluctuation(self, channel,
                                             neighbour_geometry):
        half = interference_sigma(
            channel, [Interferer(neighbour_geometry, 0.5)])
        skew = interference_sigma(
            channel, [Interferer(neighbour_geometry, 0.1)])
        assert half > skew > 0.0

    def test_interferers_add_in_quadrature(self, channel,
                                           neighbour_geometry):
        one = interference_sigma(
            channel, [Interferer(neighbour_geometry, 0.5)])
        two = interference_sigma(
            channel, [Interferer(neighbour_geometry, 0.5)] * 2)
        assert two == pytest.approx(one * math.sqrt(2.0))

    def test_duty_validation(self, neighbour_geometry):
        with pytest.raises(ValueError):
            Interferer(neighbour_geometry, 1.5)


class TestEffectiveSlotErrors:
    def test_no_interferers_matches_channel_model(self, channel,
                                                  serving_geometry):
        direct = channel.slot_error_model(serving_geometry, 0.4)
        via = effective_slot_errors(channel, serving_geometry, 0.4)
        assert via == direct

    def test_interference_raises_error_probabilities(self, channel,
                                                     serving_geometry,
                                                     neighbour_geometry):
        clean = effective_slot_errors(channel, serving_geometry, 0.4)
        noisy = effective_slot_errors(
            channel, serving_geometry, 0.4,
            [Interferer(neighbour_geometry, 0.5)])
        assert noisy.p_off_error > clean.p_off_error
        assert noisy.p_on_error > clean.p_on_error

    def test_neighbour_never_increases_goodput(self, channel,
                                               serving_geometry,
                                               neighbour_geometry):
        # The acceptance-criterion monotonicity pin: adding an
        # interfering luminaire must never help the serving link,
        # whatever its duty cycle or distance.
        config = SystemConfig()
        design = AmppmScheme(config).design(0.5)
        alone = expected_goodput(
            design,
            effective_slot_errors(channel, serving_geometry, 0.4),
            config)
        for duty in (0.0, 0.25, 0.5, 0.75, 1.0):
            for horizontal in (1.0, 2.0, 4.0):
                neighbour = Interferer(
                    LinkGeometry.from_offsets(horizontal, 2.0), duty)
                with_neighbour = expected_goodput(
                    design,
                    effective_slot_errors(channel, serving_geometry, 0.4,
                                          [neighbour]),
                    config)
                assert with_neighbour <= alone + 1e-12

    def test_closer_neighbour_hurts_more(self, channel, serving_geometry):
        config = SystemConfig()
        design = AmppmScheme(config).design(0.5)

        def goodput(horizontal):
            neighbour = Interferer(
                LinkGeometry.from_offsets(horizontal, 2.0), 0.5)
            return expected_goodput(
                design,
                effective_slot_errors(channel, serving_geometry, 0.4,
                                      [neighbour]),
                config)

        assert goodput(1.0) < goodput(2.0) < goodput(4.0)


class TestPerSampleLinkBudget:
    """The multicell kernel's per-sample path — offset → gain → swing →
    slot errors — against the object-based API, compared under ``==``."""

    DROP_M = 2.0
    #: neighbour offsets; 4.5 m lies outside the 60° FoV (≈3.46 m)
    NEIGHBOURS = (0.9, 2.0, 3.3, 4.5)

    def swing(self, channel, offset):
        gain = channel.optics.offset_gain(offset, self.DROP_M)
        return channel.swing_from_gain(gain)

    def geometry(self, offset):
        return LinkGeometry.from_offsets(offset, self.DROP_M)

    def test_swing_matches_signal_swing(self, channel):
        for offset in (0.0, 0.5, 2.0, 3.46, 5.0):
            assert self.swing(channel, offset) == channel.signal_swing(
                self.geometry(offset))

    @pytest.mark.parametrize("duty", [0.0, 0.37, 1.0])
    @pytest.mark.parametrize("neighbours", [(), NEIGHBOURS],
                             ids=["alone", "neighbours"])
    @pytest.mark.parametrize("serving_offset", [0.5, 5.0],
                             ids=["in-fov", "outside-fov"])
    def test_slot_errors_match_interferer_objects(
            self, channel, duty, neighbours, serving_offset):
        duties = [duty, 0.37, 1.0 - duty, duty][:len(neighbours)]
        via_swings = swing_slot_errors(
            channel, self.swing(channel, serving_offset), 0.4,
            [(d, self.swing(channel, offset))
             for d, offset in zip(duties, neighbours)])
        via_objects = effective_slot_errors(
            channel, self.geometry(serving_offset), 0.4,
            [Interferer(self.geometry(offset), d)
             for d, offset in zip(duties, neighbours)])
        assert via_swings == via_objects
        # Both sum the variance in order: the pre-refactor arithmetic.
        variance = 0.0
        for d, offset in zip(duties, neighbours):
            variance += d * (1.0 - d) * channel.signal_swing(
                self.geometry(offset)) ** 2
        assert via_objects == channel.slot_error_model(
            self.geometry(serving_offset), 0.4,
            extra_noise_a=math.sqrt(variance))
        if serving_offset > 3.5:
            assert via_swings == SlotErrorModel(0.5, 0.5)


class TestSinr:
    def test_decreases_with_interference(self, channel, serving_geometry,
                                         neighbour_geometry):
        clean = sinr(channel, serving_geometry, 0.4)
        dirty = sinr(channel, serving_geometry, 0.4,
                     [Interferer(neighbour_geometry, 0.5)])
        assert 0.0 < dirty < clean

    def test_decreases_with_ambient(self, channel, serving_geometry):
        assert sinr(channel, serving_geometry, 0.8) \
            < sinr(channel, serving_geometry, 0.1)
