"""System-wide parameters of SmartVLC.

The values collected here are the ones the paper fixes in its Section 6
setup: the slot time imposed by the Philips LED's rise/fall speed
(t_slot = 8 us, i.e. f_tx = 125 kHz), the flicker-safe super-symbol
frequency found in the user study (f_th = 250 Hz, giving N_max = 500
slots per super-symbol), the measured per-slot detection error
probabilities (P1 = 9e-5 for an OFF decoded wrongly, P2 = 8e-5 for an
ON), the symbol-error-rate upper bound used to prune candidate symbol
patterns, and the perceived-domain adaptation step (tau_p = 0.003).

All experiments accept a :class:`SystemConfig` so every parameter can be
swept; the module-level :data:`DEFAULT_CONFIG` reproduces the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

#: Largest payload the frame's 2-byte Length field can carry (Table 1).
MAX_PAYLOAD_BYTES = 0xFFFF


def require_finite(model: object) -> None:
    """Reject a dataclass model with a NaN or infinite float field.

    Raises ``ValueError`` naming the first such field.  A model calls it
    first in ``__post_init__``: a non-finite time, distance or level
    would otherwise pass the range checks (NaN fails no comparison) and
    surface mid-run as a crash or a NaN result.
    """
    for spec in fields(model):
        value = getattr(model, spec.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{spec.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Operating parameters shared by the modulator, PHY and controller.

    Attributes:
        t_slot: Duration of one ON/OFF slot in seconds (paper: 8 us).
        f_flicker: Minimum brightness-repetition frequency in Hz that is
            guaranteed flicker-free (paper's user study: 250 Hz; the
            IEEE 802.15.7 floor is 200 Hz).
        p_off_error: Probability that an OFF slot is decoded as ON (P1).
        p_on_error: Probability that an ON slot is decoded as OFF (P2).
        ser_bound: Upper bound on the per-symbol error rate; patterns
            whose SER exceeds it are abandoned (paper Step 2).  The
            default 5.45e-3 is chosen so the candidate set supports the
            throughputs of the paper's Figs. 8-9 and 15 while the bound
            still visibly prunes the longest symbols, as in Fig. 8 (see
            DESIGN.md for why the paper's quoted 1e-3 is inconsistent
            with its own figures).
        n_min: Smallest symbol length considered.
        n_cap: Largest symbol length considered by the designer.  The
            frame header packs N in 6 bits, so n_cap must stay <= 63.
        m_cap: Largest per-pattern repeat count in a super-symbol; the
            header packs each count in 4 bits.
        tau_perceived: Maximum perceived-domain brightness step (on the
            0..1 scale) that no volunteer could detect (paper: 0.003).
        payload_bytes: Default MAC payload size (paper: 128 bytes); the
            frame's 2-byte Length field caps it at
            :data:`MAX_PAYLOAD_BYTES`.
        oversampling: Receiver samples per slot (paper: 500 kHz / 125 kHz).
        adc_bits: Receiver ADC resolution (TI ADS7883 is a 12-bit part).
    """

    t_slot: float = 8e-6
    f_flicker: float = 250.0
    p_off_error: float = 9e-5
    p_on_error: float = 8e-5
    ser_bound: float = 5.45e-3
    n_min: int = 2
    n_cap: int = 63
    m_cap: int = 15
    tau_perceived: float = 0.003
    payload_bytes: int = 128
    oversampling: int = 4
    adc_bits: int = 12

    def __post_init__(self) -> None:
        if self.t_slot <= 0:
            raise ValueError("t_slot must be positive")
        if self.f_flicker <= 0:
            raise ValueError("f_flicker must be positive")
        if not 0 <= self.p_off_error < 1 or not 0 <= self.p_on_error < 1:
            raise ValueError("slot error probabilities must lie in [0, 1)")
        if not 0 < self.ser_bound <= 1:
            raise ValueError("ser_bound must lie in (0, 1]")
        if self.n_min < 2:
            raise ValueError("n_min must be at least 2 (a symbol needs ON and OFF)")
        if self.n_cap < self.n_min:
            raise ValueError("n_cap must be >= n_min")
        if self.n_cap > 63:
            raise ValueError("n_cap must fit the 6-bit header field (<= 63)")
        if not 1 <= self.m_cap <= 15:
            raise ValueError("m_cap must fit the 4-bit header field (1..15)")
        if not 0 < self.tau_perceived < 1:
            raise ValueError("tau_perceived must lie in (0, 1)")
        if not 0 <= self.payload_bytes <= MAX_PAYLOAD_BYTES:
            raise ValueError(
                "payload_bytes must fit the 2-byte Length field "
                f"(0..{MAX_PAYLOAD_BYTES})")
        if self.oversampling < 1:
            raise ValueError("oversampling must be at least 1")
        if self.adc_bits < 1:
            raise ValueError("adc_bits must be at least 1")

    @property
    def f_tx(self) -> float:
        """Maximum ON/OFF toggle rate of the transmitter, 1 / t_slot."""
        return 1.0 / self.t_slot

    @property
    def n_max_super(self) -> int:
        """Maximum super-symbol length in slots before Type-I flicker.

        Eq. (4) of the paper: N_max = f_tx / f_th.  With the defaults
        this is 125 kHz / 250 Hz = 500 slots.
        """
        return max(1, math.floor(self.f_tx / self.f_flicker))

    @property
    def sample_rate(self) -> float:
        """Receiver sampling rate in Hz (oversampling x f_tx)."""
        return self.oversampling * self.f_tx

    def with_overrides(self, **changes: object) -> "SystemConfig":
        """Return a copy of this configuration with fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


DEFAULT_CONFIG = SystemConfig()
"""The configuration used throughout the paper's evaluation."""
