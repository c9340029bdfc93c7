"""Cross-scheme properties every ModulationScheme must satisfy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DarkLight
from repro.core import SlotErrorModel, SystemConfig
from repro.schemes import AmppmScheme, Mppm, OokCt, Oppm, Vppm, standard_schemes


def all_schemes(config):
    return [AmppmScheme(config), OokCt(config), Mppm(config),
            Vppm(config), Oppm(config)]


@pytest.fixture(scope="module")
def schemes():
    return all_schemes(SystemConfig())


class TestSchemeContracts:
    def test_standard_set_matches_paper(self, config):
        names = [s.name for s in standard_schemes(config)]
        assert names == ["AMPPM", "OOK-CT", "MPPM"]

    def test_achieved_dimming_close_to_target(self, schemes):
        for scheme in schemes:
            design = scheme.design_clamped(0.4)
            # Worst quantiser here is VPPM/OPPM at 1/N resolution.
            assert abs(design.achieved_dimming - 0.4) <= 0.06, scheme.name

    def test_payload_slots_positive_and_monotone(self, schemes):
        for scheme in schemes:
            design = scheme.design_clamped(0.5)
            small = design.payload_slots(64)
            large = design.payload_slots(1024)
            assert 0 < small <= large, scheme.name

    def test_success_probability_in_unit_interval(self, schemes, paper_errors):
        for scheme in schemes:
            design = scheme.design_clamped(0.3)
            p = design.success_probability(1040, paper_errors)
            assert 0.0 < p <= 1.0, scheme.name

    def test_ideal_channel_is_certain(self, schemes):
        ideal = SlotErrorModel.ideal()
        for scheme in schemes:
            design = scheme.design_clamped(0.6)
            assert design.success_probability(1040, ideal) == pytest.approx(1.0)

    def test_data_rate_consistent_with_normalized(self, schemes, config):
        for scheme in schemes:
            design = scheme.design_clamped(0.5)
            assert design.data_rate(config) == pytest.approx(
                design.normalized_rate() / config.t_slot)

    def test_clamping(self, schemes):
        for scheme in schemes:
            lo, hi = scheme.supported_range
            design = scheme.design_clamped(0.0001)
            assert lo <= design.target_dimming <= hi, scheme.name

    @pytest.mark.parametrize(
        "scheme_class", [AmppmScheme, OokCt, Mppm, Vppm, Oppm, DarkLight],
        ids=lambda cls: cls.name)
    def test_rejects_bits_other_than_0_and_1(self, config, scheme_class):
        design = scheme_class(config).design_clamped(0.3)
        with pytest.raises(ValueError, match="payload bits must be 0 or 1"):
            design.encode_payload([2, 0, 1] * 10)

    @given(st.floats(0.1, 0.9))
    @settings(max_examples=20, deadline=None)
    def test_property_encode_dimming_near_target(self, level):
        config = SystemConfig()
        bits = [(i * 11 + 2) % 2 for i in range(256)]
        for scheme in all_schemes(config):
            design = scheme.design_clamped(level)
            slots = design.encode_payload(bits)
            duty = sum(slots) / len(slots)
            # OOK-CT compensates exactly; PPM schemes are quantised but
            # must track the level within their own resolution.
            assert abs(duty - design.achieved_dimming) <= 0.05, scheme.name


class TestRoundTripAcrossSchemes:
    @pytest.mark.parametrize("level", [0.15, 0.4, 0.5, 0.72, 0.88])
    def test_payload_roundtrip(self, schemes, level):
        bits = [(i * 7 + 5) % 2 for i in range(512)]
        for scheme in schemes:
            design = scheme.design_clamped(level)
            recovered = design.decode_payload(design.encode_payload(bits),
                                              len(bits))
            assert recovered == bits, scheme.name
