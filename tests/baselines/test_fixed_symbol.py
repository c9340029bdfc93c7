"""The fixed-symbol baselines, held bit for bit to their own formulas.

MPPM, OPPM, VPPM and DarkLight share one design: Eq. (3) from
``SlotErrorModel.symbol_error_rate`` and one symbol walk.  Each used to
carry its own copy of both.  The references below write those per-scheme
formulas out again, each in its own order of operations, and every
comparison is ``==``: a shared formula that multiplies in another order,
swaps the ON and OFF counts or builds a product factor by factor moves
the last bits of a figure, and fails here.
"""

from typing import NamedTuple

import pytest

from repro.baselines import Mppm, Oppm, Vppm
from repro.baselines.darklight import DarkLightDesign
from repro.core import SlotErrorModel, SystemConfig, bits_per_symbol, encode_symbol
from repro.link import Receiver, Transmitter

CONFIG = SystemConfig()
ERROR_MODELS = (SlotErrorModel.ideal(), SlotErrorModel.from_config(CONFIG),
                SlotErrorModel(1e-3, 2e-3))
N_BITS = (0, 1, 7, 64, 1040)


class Reference(NamedTuple):
    """One scheme's formulas as it wrote them before the shared design."""

    n: int
    bits: int
    dimming: float
    ser: object        # SlotErrorModel -> float
    rate_bits: float   # numerator of the error-free rate
    symbol: object     # value -> list[bool]
    per_bit: bool = False  # VPPM sized its payload bit by bit


def mppm_reference(n, k):
    def ser(e):
        return 1.0 - (1.0 - e.p_off_error) ** (n - k) * (1.0 - e.p_on_error) ** k
    return Reference(n, bits_per_symbol(n, k), k / n, ser, bits_per_symbol(n, k),
                     lambda v: list(encode_symbol(v, n, k)))


def pulse_ser(n, w):
    def ser(e):
        return 1.0 - ((1.0 - e.p_on_error) ** w
                      * (1.0 - e.p_off_error) ** (n - w))
    return ser


def oppm_reference(n, w):
    bits = (n - w + 1).bit_length() - 1

    def symbol(v):
        slots = [False] * n
        slots[v:v + w] = [True] * w
        return slots
    return Reference(n, bits, w / n, pulse_ser(n, w), bits, symbol)


def vppm_reference(n, w):
    lead = [True] * w + [False] * (n - w)
    trail = [False] * (n - w) + [True] * w
    return Reference(n, 1, w / n, pulse_ser(n, w), 1.0,
                     lambda v: trail if v else lead, per_bit=True)


def darklight_reference(n):
    bits = n.bit_length() - 1

    def ser(e):
        return 1.0 - ((1.0 - e.p_on_error) * (1.0 - e.p_off_error) ** (n - 1))

    def symbol(v):
        slots = [False] * n
        slots[v] = True
        return slots
    return Reference(n, bits, 1.0 / n, ser, bits, symbol)


CASES = {
    "MPPM-0.1-20": (Mppm(CONFIG).design(0.1), mppm_reference(20, 2)),
    "MPPM-0.3-20": (Mppm(CONFIG).design(0.3), mppm_reference(20, 6)),
    "MPPM-0.52-20": (Mppm(CONFIG).design(0.52), mppm_reference(20, 10)),
    "MPPM-0.9-16": (Mppm(CONFIG, n_slots=16).design(0.9), mppm_reference(16, 14)),
    "MPPM-0.05-64": (Mppm(CONFIG, n_slots=64).design(0.05), mppm_reference(64, 3)),
    "OPPM-0.25-16": (Oppm(CONFIG).design(0.25), oppm_reference(16, 4)),
    "OPPM-0.375-16": (Oppm(CONFIG).design(0.375), oppm_reference(16, 6)),
    "OPPM-0.9375-16": (Oppm(CONFIG).design(0.9375), oppm_reference(16, 15)),
    "OPPM-0.1-40": (Oppm(CONFIG, n_slots=40).design(0.1), oppm_reference(40, 4)),
    "VPPM-0.2-10": (Vppm(CONFIG).design(0.2), vppm_reference(10, 2)),
    "VPPM-0.7-10": (Vppm(CONFIG).design(0.7), vppm_reference(10, 7)),
    "VPPM-0.34-12": (Vppm(CONFIG, n_slots=12).design(0.34), vppm_reference(12, 4)),
    "DarkLight-2": (DarkLightDesign(2, CONFIG), darklight_reference(2)),
    "DarkLight-100": (DarkLightDesign(100, CONFIG), darklight_reference(100)),
    "DarkLight-512": (DarkLightDesign(512, CONFIG), darklight_reference(512)),
    "DarkLight-4095": (DarkLightDesign(4095, CONFIG), darklight_reference(4095)),
}


def symbols_for(ref, n_bits):
    return n_bits if ref.per_bit else -(-n_bits // ref.bits)


def payload(n_bits):
    return [(i * i + 3 * i) >> 2 & 1 for i in range(n_bits)]


def reference_encode(ref, bits):
    """Zero-pad to whole symbols, pack each MSB first, map it alone."""
    padded = list(bits) + [0] * (-len(bits) % ref.bits)
    slots = []
    for start in range(0, len(padded), ref.bits):
        value = 0
        for bit in padded[start:start + ref.bits]:
            value = (value << 1) | bit
        slots.extend(ref.symbol(value))
    return slots


@pytest.fixture(params=sorted(CASES), ids=str)
def case(request):
    return CASES[request.param]


class TestSharedDesignIsBitIdentical:
    def test_shape(self, case):
        design, ref = case
        assert (design.n_slots, design.bits) == (ref.n, ref.bits)
        assert design.achieved_dimming == ref.dimming

    def test_normalized_rate(self, case):
        design, ref = case
        error_free = ref.rate_bits / ref.n
        assert design.normalized_rate() == error_free
        for errors in ERROR_MODELS:
            expected = error_free
            expected *= 1.0 - ref.ser(errors)
            assert design.normalized_rate(errors) == expected, errors

    def test_payload_slots(self, case):
        design, ref = case
        for n_bits in N_BITS:
            assert design.payload_slots(n_bits) == symbols_for(ref, n_bits) * ref.n

    def test_success_probability(self, case):
        design, ref = case
        for errors in ERROR_MODELS:
            for n_bits in N_BITS:
                expected = (1.0 - ref.ser(errors)) ** symbols_for(ref, n_bits)
                assert design.success_probability(n_bits, errors) == expected, \
                    (errors, n_bits)

    def test_encode_payload(self, case):
        design, ref = case
        for n_bits in N_BITS:
            bits = payload(n_bits)
            assert design.encode_payload(bits) == reference_encode(ref, bits), n_bits

    def test_decode_reads_exactly_the_symbols_it_needs(self, case):
        design, _ = case
        bits = payload(64)
        slots = design.encode_payload(bits)
        assert len(slots) == design.payload_slots(64)
        assert design.decode_payload(slots + [True] * design.n_slots, 64) == bits
        with pytest.raises(ValueError):
            design.decode_payload(slots[:-1], 64)


def oppm_reference_decision(symbol, n, w, bits):
    """Best correlation over the usable starts; the earliest wins a tie."""
    best_value, best_score = 0, -1
    for start in range(min(n - w + 1, 1 << bits)):
        score = sum(1 for i in range(w) if symbol[start + i])
        score += sum(1 for i, s in enumerate(symbol)
                     if not s and not start <= i < start + w)
        if score > best_score:
            best_value, best_score = start, score
    return best_value


def vppm_reference_decision(symbol, n, w, bits):
    """Hamming distance to the two shapes; 0 wins a tie."""
    lead = [True] * w + [False] * (n - w)
    trail = [False] * (n - w) + [True] * w
    d_lead = sum(a != b for a, b in zip(symbol, lead))
    d_trail = sum(a != b for a, b in zip(symbol, trail))
    return 1 if d_trail < d_lead else 0


@pytest.mark.parametrize("label", [k for k in sorted(CASES)
                                   if k.startswith(("OPPM", "VPPM"))])
def test_pulse_decision_matches_the_scheme_own_rule(label):
    """Every one-slot corruption of every codeword, and every two-slot
    one up to N = 16, decodes as the scheme's own decision rule did."""
    design, ref = CASES[label]
    decide = (oppm_reference_decision if label.startswith("OPPM")
              else vppm_reference_decision)
    n = ref.n
    flips = [(i,) for i in range(n)]
    if n <= 16:
        flips += [(i, j) for i in range(n) for j in range(i + 1, n)]
    for value in range(1 << ref.bits):
        for flip in flips:
            symbol = ref.symbol(value)[:]
            for i in flip:
                symbol[i] = not symbol[i]
            assert design.decode(symbol) == decide(symbol, n, design.width,
                                                   ref.bits), (value, flip)


@pytest.mark.parametrize("n", [2, 100, 512, 4095])
def test_darklight_frame_roundtrip(n):
    design = DarkLightDesign(n, CONFIG)
    slots = Transmitter(CONFIG).encode_frame(b"goodnight", design)
    frame = Receiver(CONFIG).decode_frame(slots)
    assert frame.payload == b"goodnight"
    assert frame.header.descriptor.darklight_n == n
