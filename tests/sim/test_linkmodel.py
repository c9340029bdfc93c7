"""The analytic link model used by the figure harnesses."""

import random

import pytest

from repro.core import AmppmDesigner, SlotErrorModel, shared_designer
from repro.core.coding import SuperSymbolCodec
from repro.link import (
    HEADER_SLOTS,
    PREAMBLE_SLOTS,
    FrameHeader,
    Transmitter,
    compensation_run,
    descriptor_for_design,
)
from repro.link.frame import header_slots
from repro.link.transmitter import overhead_slots
from repro.phy import LinkGeometry
from repro.schemes import (
    AmppmScheme,
    AmppmSchemeDesign,
    Mppm,
    OokCt,
    Vppm,
    shared_scheme_design,
)
from repro.sim import (
    LinkEvaluator,
    expected_goodput,
    frame_slot_count,
    frame_success_probability,
    stop_and_wait_goodput,
)

PAYLOAD_SIZES = (0, 1, 7, 64, 128)


def bucket_designs(designer):
    """One design per memo bucket, requested at each canonical level."""
    lo, hi = designer.supported_range
    tau = designer.config.tau_perceived
    return [designer.design(designer.clamp(key * tau))
            for key in range(designer.memo_key(lo), designer.memo_key(hi) + 1)]


def reference_payload_success(design, n_bits, errors):
    """The per-symbol product along the symbol plan, uncached."""
    p_ok = 1.0
    for codec in SuperSymbolCodec(design.super_symbol).symbol_plan(n_bits):
        p_ok *= 1.0 - codec.pattern.symbol_error_rate(errors)
    return p_ok


def reference_header_success(errors):
    """Preamble slots one by one, then 48 equiprobable header bits."""
    n_on = sum(1 for s in PREAMBLE_SLOTS if s)
    p_pre = ((1.0 - errors.p_on_error) ** n_on
             * (1.0 - errors.p_off_error) ** (len(PREAMBLE_SLOTS) - n_on))
    p_slot = 1.0 - 0.5 * (errors.p_on_error + errors.p_off_error)
    return p_pre * p_slot ** HEADER_SLOTS


class TestFrameAccounting:
    def test_slot_count_matches_real_frame(self, config):
        # The analytic count must match an actual encoded frame for a
        # deterministic-length scheme (AMPPM).
        design = AmppmScheme(config).design(0.5)
        tx = Transmitter(config)
        actual = len(tx.encode_frame(bytes(config.payload_bytes), design))
        predicted = frame_slot_count(design, config)
        assert predicted == actual

    def test_success_probability_bounds(self, config, paper_errors):
        design = AmppmScheme(config).design(0.3)
        p = frame_success_probability(design, paper_errors, config)
        assert 0.0 < p < 1.0
        assert frame_success_probability(
            design, SlotErrorModel.ideal(), config) == 1.0


class TestGoodput:
    def test_ideal_goodput_is_rate_times_payload_fraction(self, config):
        design = AmppmScheme(config).design(0.5)
        goodput = expected_goodput(design, SlotErrorModel.ideal(), config)
        slots = frame_slot_count(design, config)
        assert goodput == pytest.approx(
            8 * config.payload_bytes / (slots * config.t_slot))

    def test_stop_and_wait_is_slower(self, config, paper_errors):
        design = AmppmScheme(config).design(0.5)
        assert stop_and_wait_goodput(design, paper_errors, config) < \
            expected_goodput(design, paper_errors, config)

    def test_goodput_monotone_in_errors(self, config):
        design = AmppmScheme(config).design(0.5)
        clean = expected_goodput(design, SlotErrorModel(1e-6, 1e-6), config)
        dirty = expected_goodput(design, SlotErrorModel(1e-3, 1e-3), config)
        assert dirty < clean


class TestLinkEvaluator:
    def test_errors_from_geometry(self, config):
        near = LinkEvaluator(config=config, geometry=LinkGeometry.on_axis(1.0))
        far = LinkEvaluator(config=config, geometry=LinkGeometry.on_axis(4.5))
        assert near.errors.p_off_error < far.errors.p_off_error

    def test_at_rebinds_geometry(self, config):
        base = LinkEvaluator(config=config)
        moved = base.at(LinkGeometry.on_axis(4.8))
        assert moved.errors.p_off_error > base.errors.p_off_error
        assert moved.channel is base.channel

    def test_throughput_positive_in_range(self, config):
        evaluator = LinkEvaluator(config=config)
        scheme = AmppmScheme(config)
        for level in (0.1, 0.5, 0.9):
            assert evaluator.throughput_bps(scheme, level) > 0

    def test_throughput_dies_out_of_range(self, config):
        evaluator = LinkEvaluator(config=config,
                                  geometry=LinkGeometry.on_axis(6.0))
        scheme = OokCt(config)
        mid = LinkEvaluator(config=config).throughput_bps(scheme, 0.5)
        assert evaluator.throughput_bps(scheme, 0.5) < 0.05 * mid

    def test_paper_scale_at_3m(self, config):
        # Fig. 15's absolute scale: AMPPM ≈ 100 kbps at l = 0.5.
        evaluator = LinkEvaluator(config=config)
        kbps = evaluator.throughput_bps(AmppmScheme(config), 0.5) / 1e3
        assert 85 <= kbps <= 120


class TestPayloadValidation:
    """All three link-model functions reject the same payload sizes."""

    @pytest.mark.parametrize("payload_bytes", [-5, 0x10000])
    def test_sizes_the_length_field_cannot_carry(self, config, paper_errors,
                                                 payload_bytes):
        design = AmppmScheme(config).design(0.5)
        with pytest.raises(ValueError, match="Length field"):
            frame_slot_count(design, config, payload_bytes)
        with pytest.raises(ValueError, match="Length field"):
            frame_success_probability(design, paper_errors, config,
                                      payload_bytes)
        with pytest.raises(ValueError, match="Length field"):
            expected_goodput(design, paper_errors, config, payload_bytes)

    def test_largest_payload_is_accepted(self, config, paper_errors):
        design = AmppmScheme(config).design(0.5)
        assert frame_slot_count(design, config, 0xFFFF) > 0
        assert 0.0 <= frame_success_probability(
            design, paper_errors, config, 0xFFFF) < 1.0


ERROR_MODELS = {
    "ideal": lambda config: SlotErrorModel.ideal(),
    "config": SlotErrorModel.from_config,
    "config-x4": lambda config: SlotErrorModel.from_config(config).scaled(4),
    "coin-flip": lambda config: SlotErrorModel(0.5, 0.5),
}


@pytest.fixture(scope="module", params=["default", "errors-x4"])
def bucket_wrappers(request, config):
    """Every bucket of the default and the conservative designer, as
    the shared wrappers the simulators use."""
    errors = SlotErrorModel.from_config(config)
    if request.param == "errors-x4":
        errors = errors.scaled(4)
    designs = bucket_designs(shared_designer(config, errors))
    return [shared_scheme_design(d, config) for d in designs]


class TestCachedFrameStructure:
    """The cached link model equals the uncached per-symbol reference."""

    def test_slot_count_matches_encoded_frames(self, config, bucket_wrappers):
        tx = Transmitter(config)
        mismatches = [
            (design.super_symbol, n)
            for design in bucket_wrappers for n in PAYLOAD_SIZES
            if frame_slot_count(design, config, n)
            != len(tx.encode_frame(bytes(n), design))]
        assert mismatches == []

    def test_cached_slot_count_equals_a_fresh_transmitter(self, config):
        designs = [shared_scheme_design(d, config)
                   for d in bucket_designs(shared_designer(config))]
        designs += [OokCt(config).design(0.3), Mppm(config).design(0.5),
                    Vppm(config).design(0.7)]
        mismatches = []
        for design in designs:
            for n in PAYLOAD_SIZES:
                fresh = (Transmitter(config).frame_overhead_slots(design, n)
                         + design.payload_slots(8 * (n + 2)))
                # The first call computes the count, the second reads it.
                counts = [frame_slot_count(design, config, n)
                          for _ in range(2)]
                if counts != [fresh, fresh]:
                    mismatches.append((design, n, counts, fresh))
        assert mismatches == []

    @pytest.mark.parametrize("model", sorted(ERROR_MODELS))
    def test_success_is_the_per_symbol_product(self, config,
                                               bucket_wrappers, model):
        errors = ERROR_MODELS[model](config)
        header = reference_header_success(errors)
        mismatches = []
        for design in bucket_wrappers:
            for n in PAYLOAD_SIZES:
                n_bits = 8 * (n + 2)
                payload = reference_payload_success(design.design, n_bits,
                                                    errors)
                if (design.success_probability(n_bits, errors) != payload
                        or frame_success_probability(design, errors, config, n)
                        != header * payload):
                    mismatches.append((design.super_symbol, n))
        assert mismatches == []

    def test_one_wrapper_per_bucket_and_config(self, config):
        designer = shared_designer(config)
        design = designer.design(0.42)
        wrapper = shared_scheme_design(design, config)
        assert shared_scheme_design(design, config) is wrapper
        assert shared_scheme_design(design=design, config=config) is wrapper
        assert AmppmScheme(config).design(0.42) is wrapper
        # Keyed by value: an equal design from another designer, or an
        # equal config, finds the same wrapper.
        twin = AmppmDesigner(config).design(0.42)
        assert twin is not design
        assert shared_scheme_design(twin, config) is wrapper
        assert shared_scheme_design(
            design, config.with_overrides()) is wrapper
        other = config.with_overrides(payload_bytes=64)
        assert shared_scheme_design(design, other) is not wrapper

    @pytest.mark.parametrize("scheme_cls", [OokCt, Mppm])
    def test_overhead_cache_holds_for_baseline_designs(self, config,
                                                       scheme_cls):
        # Figure sweeps build a fresh baseline design per call; the
        # value-keyed cache must still answer each with its own count.
        def reference(design, n):
            hdr = header_slots(FrameHeader(n, descriptor_for_design(design)))
            total = len(PREAMBLE_SLOTS) + len(hdr)
            comp, _ = compensation_run(sum(PREAMBLE_SLOTS) + sum(hdr), total,
                                       design.achieved_dimming,
                                       config.n_max_super)
            return total + comp + 1

        tx = Transmitter(config)
        levels = [0.1, 0.3, 0.5, 0.7, 0.9]
        for order in (levels, levels[::-1]):
            overhead_slots.cache_clear()
            for level in order:
                for n in PAYLOAD_SIZES:
                    design = scheme_cls(config).design(level)
                    assert tx.frame_overhead_slots(design, n) \
                        == reference(design, n)

    def test_values_do_not_depend_on_first_use_order(self, config):
        designs = bucket_designs(shared_designer(config))
        errors = SlotErrorModel.from_config(config)

        def evaluate(order):
            # Fresh wrappers and an empty overhead cache: the history
            # the run builds is the only history the values could see.
            overhead_slots.cache_clear()
            wrappers = {i: AmppmSchemeDesign(designs[i], config)
                        for i in order}
            return {(i, n): (frame_slot_count(wrappers[i], config, n),
                             expected_goodput(wrappers[i], errors, config, n))
                    for i in order for n in PAYLOAD_SIZES}

        order = list(range(len(designs)))
        forward = evaluate(order)
        backward = evaluate(order[::-1])
        random.Random(13).shuffle(order)
        assert forward == backward == evaluate(order)
        shared = {(i, n): (frame_slot_count(shared_scheme_design(d, config),
                                            config, n),
                           expected_goodput(shared_scheme_design(d, config),
                                            errors, config, n))
                  for i, d in enumerate(designs) for n in PAYLOAD_SIZES}
        assert shared == forward
