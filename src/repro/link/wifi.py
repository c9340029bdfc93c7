"""The out-of-band Wi-Fi uplink (ESP8266 stand-in).

The paper's receivers acknowledge frames and report their sensed
ambient light over Wi-Fi, because the mobile node's LED is too weak for
a VLC uplink.  Only the properties that shape MAC behaviour are
modelled: delivery latency (with jitter) and a loss probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.params import require_finite


@dataclass(frozen=True)
class WifiUplink:
    """A lossy, delayed datagram channel.

    Attributes:
        latency_s: Median one-way delivery latency.
        jitter_s: Half-width of the uniform jitter around the latency.
        loss_probability: Chance a datagram never arrives.
    """

    latency_s: float = 2.0e-3
    jitter_s: float = 0.5e-3
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self)
        if self.latency_s < 0 or self.jitter_s < 0:
            raise ValueError("latency and jitter must be non-negative")
        # A zero-latency uplink with jitter is a legitimate test double
        # (delays are clamped at zero in deliver); only a positive
        # median latency constrains the jitter half-width.
        if self.latency_s > 0 and self.jitter_s > self.latency_s:
            raise ValueError("jitter must not exceed a positive latency")
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError("loss_probability must lie in [0, 1)")

    def deliver(self, sent_at: float, rng: np.random.Generator) -> float | None:
        """Arrival time of a datagram sent at ``sent_at`` (None if lost).

        The delivery delay is clamped at zero, so a datagram never
        arrives before it was sent even when jitter dominates latency.
        """
        if self.loss_probability and rng.random() < self.loss_probability:
            return None
        jitter = rng.uniform(-self.jitter_s, self.jitter_s) if self.jitter_s else 0.0
        return sent_at + max(self.latency_s + jitter, 0.0)

    @property
    def expected_latency_s(self) -> float:
        """Mean delivery latency for delivered datagrams."""
        return self.latency_s
