"""The AMPPM scheme adapter and the scheme factory module."""

import pytest

from repro.core import SlotErrorModel, SystemConfig
from repro.schemes import AmppmScheme, standard_schemes


class TestAmppmScheme:
    def test_shares_designer_across_designs(self, config):
        scheme = AmppmScheme(config)
        a = scheme.design(0.3)
        b = scheme.design(0.3)
        # Designs are memoised inside the designer.
        assert a is b

    def test_custom_error_model(self, config):
        clean = AmppmScheme(config, SlotErrorModel.ideal())
        # With an ideal channel nothing is pruned: the supported range
        # is at least as wide as the default designer's.
        default = AmppmScheme(config)
        assert clean.supported_range[0] <= default.supported_range[0]
        assert clean.supported_range[1] >= default.supported_range[1]

    def test_design_exposes_super_symbol(self, config):
        design = AmppmScheme(config).design(0.4)
        assert design.super_symbol.n_slots <= config.n_max_super
        assert design.super_symbol.bits > 0

    def test_partial_unit_slot_economy(self, config):
        # payload_slots must be symbol-granular, not super-symbol-
        # granular (the fix that smoothed Fig. 15).
        design = AmppmScheme(config).design(0.15)
        one_bit = design.payload_slots(1)
        assert one_bit < design.super_symbol.n_slots or \
            design.super_symbol.n_symbols == 1

    def test_success_probability_uses_plan(self, config, paper_errors):
        design = AmppmScheme(config).design(0.15)
        # More bits -> more symbols -> lower success probability.
        assert design.success_probability(8, paper_errors) > \
            design.success_probability(2048, paper_errors)


class TestStandardSchemes:
    def test_order_and_names(self, config):
        schemes = standard_schemes(config)
        assert [s.name for s in schemes] == ["AMPPM", "OOK-CT", "MPPM"]

    def test_default_config(self):
        schemes = standard_schemes()
        assert schemes[0].config == SystemConfig()

    def test_shared_error_model(self, config):
        errors = SlotErrorModel(1e-6, 1e-6)
        ampem = standard_schemes(config, errors)[0]
        assert ampem.designer.errors == errors


class TestDesignProperties:
    @pytest.mark.parametrize("level", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_achieved_within_resolution(self, config, level):
        design = AmppmScheme(config).design(level)
        assert abs(design.achieved_dimming - level) <= config.tau_perceived

    def test_encode_matches_payload_slots(self, config):
        design = AmppmScheme(config).design(0.33)
        bits = [(i * 3) % 2 for i in range(500)]
        slots = design.encode_payload(bits)
        assert len(slots) == design.payload_slots(len(bits))
