"""Parity between a Monte-Carlo batch and the production link code.

The replay (:class:`repro.sim.MonteCarloValidator`) and the fuzz
``codec`` oracle run batches of symbols through the production codec
(:mod:`repro.core.coding`) and slot corruption
(:func:`repro.link.mac.corrupt_slots`), one row at a time.  These tests
pin that a batch replays exactly that code: every value of a batch
encodes to the codeword the combinadic order ranks as that value,
row-by-row corruption draws one uniform per slot from the shared
stream, and the validator's estimates are *bit-for-bit* those of a loop
written out over the same functions under a shared seed.  They also
pin the 4-sigma binomial envelope against the analytic model for all
three schemes at two dimming levels.
"""

import numpy as np
import pytest

from repro.core import SlotErrorModel, SymbolPattern
from repro.core.coding import CodewordWeightError, decode_symbol, encode_symbol
from repro.core.combinatorics import rank_of_codeword, symbol_capacity
from repro.link.frame import FrameError
from repro.link.mac import corrupt_slots
from repro.link.receiver import Receiver
from repro.link.transmitter import Transmitter
from repro.schemes import AmppmScheme, Mppm, OokCt
from repro.sim import MonteCarloValidator
from repro.sim.montecarlo import default_payload

SEED = 0xBA7C4
PATTERNS = [(5, 2), (6, 5), (10, 1), (20, 10), (30, 15), (63, 31)]
SCHEMES = [AmppmScheme, OokCt, Mppm]
LEVELS = (0.3, 0.5)


def _values(n, k, seed):
    capacity = symbol_capacity(n, k)
    rng = np.random.default_rng(seed)
    return rng.integers(0, capacity, size=min(capacity, 300)).tolist()


class TestBatchCodec:
    """The codec over a batch of values, one symbol at a time."""

    @pytest.mark.parametrize("n,k", PATTERNS)
    def test_encode_matches_scalar(self, n, k):
        # Each codeword has weight k and ranks as its value in the
        # combinadic order, the reference the fuzz oracle checks against.
        for value in _values(n, k, SEED):
            word = encode_symbol(value, n, k)
            assert len(word) == n and sum(word) == k
            assert rank_of_codeword(word) == value

    @pytest.mark.parametrize("n,k", PATTERNS)
    def test_round_trip(self, n, k):
        values = _values(n, k, SEED + 1)
        assert [decode_symbol(encode_symbol(v, n, k), k)
                for v in values] == values

    def test_round_trip_past_int64(self):
        # C(70, 35) > 2**63: the combinadic walk runs on Python ints, so
        # the largest values of S(70, 35) encode and rank exactly.
        n, k = 70, 35
        capacity = symbol_capacity(n, k)
        assert capacity > 2 ** 63
        for value in (0, 2 ** 63, capacity - 1):
            word = encode_symbol(value, n, k)
            assert rank_of_codeword(word) == value
            assert decode_symbol(word, k) == value

    def test_weight_check_matches_scalar(self):
        # Arbitrary-weight rows: decode_symbol raises exactly where the
        # weight is not k (the replay and the oracle count a symbol
        # error there) and ranks every other row combinadically.
        n, k = 12, 4
        rows = (np.random.default_rng(SEED + 2).random((400, n))
                < 0.33).tolist()
        weight_ok = [sum(row) == k for row in rows]
        assert any(weight_ok) and not all(weight_ok)
        for row, ok in zip(rows, weight_ok):
            if ok:
                assert decode_symbol(row, k) == rank_of_codeword(row)
            else:
                with pytest.raises(CodewordWeightError):
                    decode_symbol(row, k)

    def test_validation(self):
        with pytest.raises(ValueError):
            encode_symbol(symbol_capacity(10, 5), 10, 5)
        with pytest.raises(ValueError):
            encode_symbol(-1, 10, 5)
        with pytest.raises(ValueError):
            encode_symbol(0, 10, 0)  # S(10, 0) carries no data bits
        with pytest.raises(ValueError):
            SymbolPattern(10, 11)


class TestCorruptBatchParity:
    def test_matches_scalar_stream(self):
        # Corrupting a batch row by row consumes the stream exactly as
        # one call over all of its slots: one uniform per slot, in order.
        errors = SlotErrorModel(p_off_error=0.05, p_on_error=0.11)
        rows = (np.random.default_rng(SEED + 3).random((50, 40))
                < 0.5).tolist()
        rng = np.random.default_rng(SEED + 4)
        by_row = [corrupt_slots(row, errors, rng) for row in rows]
        whole = corrupt_slots([s for row in rows for s in row], errors,
                              np.random.default_rng(SEED + 4))
        assert [s for row in by_row for s in row] == whole
        assert by_row != rows

    def test_ideal_channel_consumes_no_draws(self):
        # corrupt_slots short-circuits on a noiseless link, so a batch
        # over it leaves the generator where it found it.
        rows = [[True] * 8 for _ in range(3)]
        rng = np.random.default_rng(SEED + 5)
        out = [corrupt_slots(row, SlotErrorModel.ideal(), rng) for row in rows]
        assert out == rows
        assert rng.random() == np.random.default_rng(SEED + 5).random()


def _symbol_replay(pattern, errors, rng, n_symbols):
    """(errors, undetected) of a symbol batch, written out by hand."""
    n, k = pattern.n_slots, pattern.n_on
    values = rng.integers(0, symbol_capacity(n, k), size=n_symbols)
    n_errors = n_undetected = 0
    for value in values.tolist():
        received = corrupt_slots(list(encode_symbol(value, n, k)), errors,
                                 rng)
        if sum(received) != k:
            n_errors += 1
        elif decode_symbol(received, k) != value:
            n_errors += 1
            n_undetected += 1
    return n_errors, n_undetected


def _frame_replay(config, design, errors, rng, n_frames):
    """Frame losses of a batch, written out by hand."""
    payload = default_payload(config.payload_bytes)
    slots = Transmitter(config).encode_frame(payload, design)
    rx = Receiver(config)
    losses = 0
    for _ in range(n_frames):
        try:
            lost = rx.decode_frame(
                corrupt_slots(slots, errors, rng)).payload != payload
        except FrameError:
            lost = True
        losses += lost
    return losses


class TestValidatorParity:
    @pytest.mark.parametrize("n,k", [(30, 15), (20, 10), (12, 3)])
    def test_ser_bit_identical(self, config, n, k):
        pattern = SymbolPattern(n, k)
        errors = SlotErrorModel(3e-3, 3e-3)
        rng = np.random.default_rng(SEED)
        estimate = MonteCarloValidator(config).symbol_error_rate(
            pattern, errors, rng, n_symbols=2000)
        by_hand = np.random.default_rng(SEED)
        assert (estimate.n_errors, estimate.n_undetected) \
            == _symbol_replay(pattern, errors, by_hand, 2000)
        assert estimate.n_errors > 0
        assert estimate.analytic_ser == pattern.symbol_error_rate(errors)
        assert rng.random() == by_hand.random()  # same draws consumed

    @pytest.mark.parametrize("scheme_cls", [AmppmScheme, Mppm])
    @pytest.mark.parametrize("level", LEVELS)
    def test_ser_within_binomial_envelope(self, config, scheme_cls, level):
        # The combinadic patterns the designers actually pick (OOK-CT
        # carries no such pattern; it is checked through its frames).
        design = scheme_cls(config).design(level)
        pattern = (design.pattern if hasattr(design, "pattern")
                   else design.super_symbol.first)
        estimate = MonteCarloValidator(config).symbol_error_rate(
            pattern, SlotErrorModel(2e-3, 2e-3), np.random.default_rng(SEED),
            n_symbols=4000)
        assert estimate.consistent_with_analytic(sigmas=4.0)

    @pytest.mark.parametrize("scheme_cls", SCHEMES)
    @pytest.mark.parametrize("level", LEVELS)
    def test_frame_loss_bit_identical(self, config, scheme_cls, level):
        design = scheme_cls(config).design(level)
        errors = SlotErrorModel(8e-4, 8e-4)
        measured, analytic = MonteCarloValidator(config).frame_loss_rate(
            design, errors, np.random.default_rng(SEED), n_frames=60)
        assert measured == _frame_replay(
            config, design, errors, np.random.default_rng(SEED), 60) / 60
        std = (analytic * (1.0 - analytic) / 60) ** 0.5
        assert abs(measured - analytic) <= 4.0 * std + 0.05

    def test_args_validated(self, config):
        # An empty or negative batch is refused by both replays.
        validator = MonteCarloValidator(config)
        design = AmppmScheme(config).design(0.3)
        for count in (0, -3):
            with pytest.raises(ValueError):
                validator.symbol_error_rate(SymbolPattern(10, 5),
                                            SlotErrorModel.ideal(),
                                            np.random.default_rng(0),
                                            n_symbols=count)
            with pytest.raises(ValueError):
                validator.frame_loss_rate(design, SlotErrorModel.ideal(),
                                          np.random.default_rng(0),
                                          n_frames=count)
