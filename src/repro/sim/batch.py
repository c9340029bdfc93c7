"""Vectorized batched Monte-Carlo engine.

:mod:`repro.sim.montecarlo` replays symbols and frames one at a time
through the scalar codec — the *reference* implementation, kept for
auditability.  This module is the throughput path: it carries the same
combinadic walk (Algorithms 1 and 2) across a whole batch at once, so a
Monte-Carlo run touches NumPy a constant number of times instead of
once per symbol:

* :class:`BatchCodec` — encode all ``n_symbols`` values into one
  ``(n_symbols, n_slots)`` boolean array and rank-decode the whole
  batch back, with the ON-count weight check vectorized alongside.
* :func:`corrupt_batch` — flip every slot of every codeword in a single
  ``rng.random(shape) < p`` pass.
* :class:`BatchMonteCarloValidator` — drop-in batched counterpart of
  :class:`~repro.sim.montecarlo.MonteCarloValidator`.

Reproducibility contract: for the same seed the batch engine consumes
the *identical* random stream as the scalar path (``rng.random((b, n))``
fills row-by-row exactly like ``b`` successive ``rng.random(n)`` calls),
so batch and scalar results are bit-identical, not merely statistically
compatible.  The parity suite in ``tests/sim/test_batch_parity.py``
asserts both the exact match and the 4-sigma binomial envelope.

The vectorized walk stores binomial coefficients in an ``int64`` table;
patterns whose coefficient triangle exceeds ``int64`` (no (N, K) with
N <= 66 does — the frame header caps N at 63) fall back to the scalar
reference path transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.base import SchemeDesign
from ..core.combinatorics import binomial, bits_per_symbol, symbol_capacity
from ..core.errormodel import SlotErrorModel
from ..core.params import SystemConfig
from ..core.symbols import SymbolPattern
from ..link.frame import FrameError
from ..link.receiver import Receiver
from ..link.transmitter import Transmitter
from ..obs import metrics, span
from .montecarlo import MonteCarloValidator, SymbolErrorEstimate, default_payload

_INT64_MAX = np.iinfo(np.int64).max


def _binomial_table(n: int, k: int) -> np.ndarray | None:
    """Shifted binomial table as int64; None on overflow.

    ``table[m, j] = C(m, j - 1)`` with a zero column at ``j = 0``, so
    the walk can index it directly with ``ones_left`` (which is always
    >= 0) instead of clamping ``ones_left - 1``.  The walk only ever
    looks up C(m, j) with m <= n and j < k, so the largest entry is
    C(n, min(k, n // 2)).
    """
    if binomial(n, min(k, n // 2)) > _INT64_MAX:
        return None
    table = np.zeros((n + 1, k + 1), dtype=np.int64)
    for m in range(n + 1):
        for j in range(1, min(m + 1, k) + 1):
            table[m, j] = binomial(m, j - 1)
    return table


class BatchCodec:
    """Vectorized Algorithms 1 and 2 for a fixed (n, k) pattern.

    Encoding and decoding are loops over the ``n`` slot positions, each
    step a handful of O(batch) array operations — the per-symbol Python
    loop of :mod:`repro.core.coding` becomes a per-slot NumPy loop.
    """

    def __init__(self, n: int, k: int):
        if n < 1:
            raise ValueError("a symbol needs at least one slot")
        if not 0 <= k <= n:
            raise ValueError(f"n_on must lie in [0, n_slots], got K={k} N={n}")
        self.n = n
        self.k = k
        self.bits = bits_per_symbol(n, k)
        self.capacity = symbol_capacity(n, k)
        self._table = _binomial_table(n, k)

    @property
    def supported(self) -> bool:
        """False when the binomial triangle overflows int64."""
        return self._table is not None

    def _require_supported(self) -> np.ndarray:
        if self._table is None:
            raise ValueError(
                f"S({self.n},{self.k}) exceeds the int64 batch codec range; "
                "use the scalar codec"
            )
        return self._table

    def encode_batch(self, values: np.ndarray) -> np.ndarray:
        """Encode a 1-D array of values into an (len(values), n) bool array.

        Mirrors :func:`repro.core.coding.encode_symbol` exactly,
        including its validation errors.
        """
        table = self._require_supported()
        if self.bits == 0:
            raise ValueError(f"S({self.n},{self.k}) carries no data bits")
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise ValueError("values must be a 1-D array")
        if values.size and (int(values.min()) < 0
                            or int(values.max()) >= self.capacity):
            raise ValueError(
                f"values out of range for S({self.n},{self.k}) "
                f"(capacity {self.capacity})"
            )
        n, k = self.n, self.k
        slots = np.zeros((values.size, n), dtype=bool)
        remaining = values.copy()
        ones_left = np.full(values.size, k, dtype=np.int64)
        for i in range(n):
            # Inside the walk (both sides still available) an OFF is
            # chosen when the value exceeds the ON-branch count; once
            # one side is exhausted the tail is forced (all remaining
            # ONs, then all remaining OFFs).
            branching = (ones_left > 0) & (ones_left < n - i)
            with_on_here = table[n - i - 1].take(ones_left)
            choose_off = branching & (remaining >= with_on_here)
            on = (ones_left > 0) & ~choose_off
            slots[:, i] = on
            np.subtract(remaining, with_on_here, out=remaining,
                        where=choose_off)
            ones_left -= on
        metrics().counter("repro_codec_symbols_encoded_total",
                          help="symbols encoded by the batch codec") \
            .inc(values.size)
        return slots

    def decode_batch(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rank-decode an (b, n) bool array.

        Returns ``(values, weight_ok)``: the combinadic rank of every
        row and a mask that is False where the row's ON count disagrees
        with ``k`` (the scalar path raises CodewordWeightError there;
        ranks of weight-failing rows are meaningless).
        """
        table = self._require_supported()
        slots = np.asarray(slots, dtype=bool)
        if slots.ndim != 2 or slots.shape[1] != self.n:
            raise ValueError(f"expected shape (batch, {self.n}), "
                             f"got {slots.shape}")
        n, k = self.n, self.k
        weight_ok = slots.sum(axis=1) == k
        values = np.zeros(slots.shape[0], dtype=np.int64)
        ones_left = np.full(slots.shape[0], k, dtype=np.int64)
        for i in range(n):
            remaining = n - i - 1
            active = (ones_left > 0) & (ones_left <= remaining)
            column = slots[:, i]
            skipped = table[remaining].take(ones_left)
            np.add(values, skipped, out=values, where=active & ~column)
            ones_left -= active & column
        metrics().counter("repro_codec_symbols_decoded_total",
                          help="symbols rank-decoded by the batch codec") \
            .inc(slots.shape[0])
        return values, weight_ok


def corrupt_batch(slots: np.ndarray, errors: SlotErrorModel,
                  rng: np.random.Generator) -> np.ndarray:
    """Flip every slot of a (batch, n_slots) array independently.

    The batched analogue of :func:`repro.link.mac.corrupt_slots`: one
    uniform draw per slot, compared against the ON/OFF error
    probability of that slot.  Row ``i`` consumes exactly the draws the
    scalar loop would consume for frame ``i``, so results match
    bit-for-bit under a shared seed.
    """
    slots = np.asarray(slots, dtype=bool)
    if errors.p_off_error == 0.0 and errors.p_on_error == 0.0:
        return slots.copy()
    draws = rng.random(slots.shape)
    p = np.where(slots, errors.p_on_error, errors.p_off_error)
    return slots ^ (draws < p)


@dataclass
class BatchMonteCarloValidator:
    """Batched stochastic replays of the analytic link-model quantities.

    Method-for-method counterpart of
    :class:`~repro.sim.montecarlo.MonteCarloValidator`; same signatures,
    same random-stream consumption, vectorized hot loops.
    """

    config: SystemConfig = field(default_factory=SystemConfig)

    def symbol_error_rate(self, pattern: SymbolPattern,
                          errors: SlotErrorModel,
                          rng: np.random.Generator,
                          n_symbols: int = 5000) -> SymbolErrorEstimate:
        """Empirical SER of a pattern, whole batch at once."""
        if n_symbols < 1:
            raise ValueError("n_symbols must be positive")
        codec = BatchCodec(pattern.n_slots, pattern.n_on)
        if not codec.supported:
            return MonteCarloValidator(self.config).symbol_error_rate(
                pattern, errors, rng, n_symbols)
        with span("batch.symbol_error_rate", n_symbols=n_symbols,
                  pattern=f"S({pattern.n_slots},{pattern.n_on})"):
            values = rng.integers(0, codec.capacity, size=n_symbols)
            sent = codec.encode_batch(values)
            received = corrupt_batch(sent, errors, rng)
            decoded, weight_ok = codec.decode_batch(received)
            wrong = decoded != values
            estimate = SymbolErrorEstimate(
                n_symbols=n_symbols,
                n_errors=int(np.count_nonzero(~weight_ok | wrong)),
                n_undetected=int(np.count_nonzero(weight_ok & wrong)),
                analytic_ser=pattern.symbol_error_rate(errors),
            )
        registry = metrics()
        registry.counter("repro_batch_symbols_total",
                         help="symbols replayed by the batch engine") \
            .inc(n_symbols)
        registry.counter("repro_batch_symbol_errors_total",
                         help="symbol errors observed by the batch engine") \
            .inc(estimate.n_errors)
        registry.histogram("repro_batch_size",
                           help="symbols per batched SER call",
                           buckets=(100, 1000, 10_000, 100_000, 1_000_000)) \
            .observe(n_symbols)
        return estimate

    def frame_loss_rate(self, design: SchemeDesign, errors: SlotErrorModel,
                        rng: np.random.Generator, n_frames: int = 200,
                        payload: bytes | None = None) -> tuple[float, float]:
        """(measured, analytic) frame loss, corruption vectorized.

        All frames are corrupted in one pass; only rows where at least
        one slot actually flipped are pushed through the real receiver
        (an unflipped frame round-trips by construction), which removes
        the per-frame Python work at the low error rates the link
        operates at.
        """
        from .linkmodel import frame_success_probability

        if n_frames < 1:
            raise ValueError("n_frames must be positive")
        payload = (payload if payload is not None
                   else default_payload(self.config.payload_bytes))
        with span("batch.frame_loss_rate", n_frames=n_frames):
            tx = Transmitter(self.config)
            rx = Receiver(self.config)
            slots = np.asarray(tx.encode_frame(payload, design), dtype=bool)
            received = corrupt_batch(
                np.broadcast_to(slots, (n_frames, slots.size)), errors, rng)
            flipped_rows = np.nonzero(
                (received != slots[None, :]).any(axis=1))[0]
            losses = 0
            for row in flipped_rows:
                try:
                    frame = rx.decode_frame(received[row].tolist())
                    if frame.payload != payload:
                        losses += 1
                except FrameError:
                    losses += 1
            analytic = 1.0 - frame_success_probability(
                design, errors, self.config, len(payload))
        registry = metrics()
        registry.counter("repro_batch_frames_total",
                         help="frames replayed by the batch engine") \
            .inc(n_frames)
        registry.counter("repro_batch_frame_losses_total",
                         help="frames lost in batched replays").inc(losses)
        return losses / n_frames, analytic
