"""Monte-Carlo validation of the analytic error models.

The figure harnesses lean on closed forms — Eq. (3) for symbol errors
and the frame-success product for goodput.  This module replays the
same quantities stochastically through the *real* codec and receiver,
so the analytic layer is continuously validated against the executable
one:

* :meth:`MonteCarloValidator.symbol_error_rate` — flip slots with the
  channel probabilities, decode with Algorithm 2, count mismatches.
  Must converge to Eq. (3).  Its :class:`SymbolErrorEstimate` also
  counts how many of those errors alias to a *valid but wrong* value
  (compensating flips that preserve the ON count): the residual the
  frame CRC exists to catch.
* :meth:`MonteCarloValidator.frame_loss_rate` — whole frames through
  the real receiver vs the analytic frame-success probability.

The replay runs one symbol or frame at a time through the same codec
(:mod:`repro.core.coding`), slot corruption
(:func:`repro.link.mac.corrupt_slots`) and receiver that carry every
real frame, so what it checks the analytic model against is the code
that runs, not a copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.base import SchemeDesign
from ..core.coding import CodewordWeightError, decode_symbol, encode_symbol
from ..core.combinatorics import symbol_capacity
from ..core.errormodel import SlotErrorModel
from ..core.params import SystemConfig
from ..core.symbols import SymbolPattern
from ..link.frame import FrameError
from ..link.mac import corrupt_slots
from ..link.receiver import Receiver
from ..link.transmitter import Transmitter
from ..obs import metrics, span


def default_payload(n_bytes: int) -> bytes:
    """A deterministic ``n_bytes``-long ramp payload (0, 1, ..., 255, 0, ...).

    The previous expression — ``bytes(range(n % 256))`` tiled — produced
    an *empty* payload whenever ``n_bytes`` was a multiple of 256 and a
    wrong ramp otherwise (e.g. 300 bytes became a repeated 44-byte
    pattern); this covers every length correctly.
    """
    if n_bytes < 0:
        raise ValueError("n_bytes must be non-negative")
    return bytes(i % 256 for i in range(n_bytes))


@dataclass(frozen=True)
class SymbolErrorEstimate:
    """Outcome of a symbol-level Monte-Carlo run."""

    n_symbols: int
    n_errors: int
    n_undetected: int
    analytic_ser: float

    @property
    def measured_ser(self) -> float:
        """Fraction of symbols that decoded wrongly (any cause)."""
        if self.n_symbols == 0:
            return 0.0
        return self.n_errors / self.n_symbols

    def consistent_with_analytic(self, sigmas: float = 4.0) -> bool:
        """Binomial consistency test against Eq. (3)."""
        p = self.analytic_ser
        std = (p * (1.0 - p) / max(self.n_symbols, 1)) ** 0.5
        return abs(self.measured_ser - p) <= sigmas * std + 1e-12


@dataclass
class MonteCarloValidator:
    """Stochastic replays of the analytic link-model quantities."""

    config: SystemConfig = field(default_factory=SystemConfig)

    def symbol_error_rate(self, pattern: SymbolPattern,
                          errors: SlotErrorModel,
                          rng: np.random.Generator,
                          n_symbols: int = 5000) -> SymbolErrorEstimate:
        """Empirical SER of a pattern through the real codec."""
        if n_symbols < 1:
            raise ValueError("n_symbols must be positive")
        n, k = pattern.n_slots, pattern.n_on
        with span("montecarlo.symbol_error_rate", n_symbols=n_symbols,
                  pattern=f"S({n},{k})"):
            capacity = symbol_capacity(n, k)
            values = rng.integers(0, capacity, size=n_symbols)
            n_errors = 0
            n_undetected = 0
            for value in values:
                slots = list(encode_symbol(int(value), n, k))
                received = corrupt_slots(slots, errors, rng)
                try:
                    decoded = decode_symbol(received, k)
                except CodewordWeightError:
                    n_errors += 1
                    continue
                if decoded != value:
                    n_errors += 1
                    n_undetected += 1
        registry = metrics()
        registry.counter("repro_montecarlo_symbols_total",
                         help="symbols replayed by the scalar reference "
                              "engine").inc(n_symbols)
        registry.counter("repro_montecarlo_symbol_errors_total",
                         help="symbol errors observed by the scalar "
                              "reference engine").inc(n_errors)
        return SymbolErrorEstimate(
            n_symbols=n_symbols,
            n_errors=n_errors,
            n_undetected=n_undetected,
            analytic_ser=pattern.symbol_error_rate(errors),
        )

    def frame_loss_rate(self, design: SchemeDesign, errors: SlotErrorModel,
                        rng: np.random.Generator, n_frames: int = 200,
                        payload: bytes | None = None) -> tuple[float, float]:
        """(measured, analytic) frame loss through the real receiver."""
        from .linkmodel import frame_success_probability

        if n_frames < 1:
            raise ValueError("n_frames must be positive")
        payload = (payload if payload is not None
                   else default_payload(self.config.payload_bytes))
        tx = Transmitter(self.config)
        rx = Receiver(self.config)
        with span("montecarlo.frame_loss_rate", n_frames=n_frames,
                  payload_bytes=len(payload)):
            slots = tx.encode_frame(payload, design)
            losses = 0
            for _ in range(n_frames):
                received = corrupt_slots(slots, errors, rng)
                try:
                    frame = rx.decode_frame(received)
                    if frame.payload != payload:
                        losses += 1
                except FrameError:
                    losses += 1
        registry = metrics()
        registry.counter("repro_montecarlo_frames_total",
                         help="frames replayed through the real "
                              "receiver").inc(n_frames)
        registry.counter("repro_montecarlo_frame_losses_total",
                         help="frames the real receiver lost or "
                              "corrupted").inc(losses)
        analytic = 1.0 - frame_success_probability(
            design, errors, self.config, len(payload))
        return losses / n_frames, analytic
