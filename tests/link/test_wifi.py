"""The Wi-Fi ACK side channel."""

import math

import pytest

from repro.link import WifiUplink


class TestDelivery:
    def test_latency_applied(self, rng):
        uplink = WifiUplink(latency_s=2e-3, jitter_s=0.0)
        assert uplink.deliver(1.0, rng) == pytest.approx(1.002)

    def test_jitter_bounded(self, rng):
        uplink = WifiUplink(latency_s=2e-3, jitter_s=0.5e-3)
        for _ in range(100):
            arrival = uplink.deliver(0.0, rng)
            assert 1.5e-3 <= arrival <= 2.5e-3

    def test_lossless_by_default(self, rng):
        uplink = WifiUplink()
        assert all(uplink.deliver(0.0, rng) is not None for _ in range(50))

    def test_loss_rate_statistics(self, rng):
        uplink = WifiUplink(loss_probability=0.3)
        losses = sum(uplink.deliver(0.0, rng) is None for _ in range(5000))
        assert losses / 5000 == pytest.approx(0.3, abs=0.03)

    def test_zero_latency_with_jitter_is_a_valid_test_double(self, rng):
        # Regression: __post_init__ used to reject jitter_s > latency_s
        # even at latency zero, outlawing a legitimate configuration.
        uplink = WifiUplink(latency_s=0.0, jitter_s=1e-3)
        for _ in range(200):
            arrival = uplink.deliver(5.0, rng)
            assert arrival >= 5.0  # the delay is clamped at zero

    def test_arrival_never_precedes_sending(self, rng):
        uplink = WifiUplink(latency_s=1e-3, jitter_s=1e-3)
        assert all(uplink.deliver(2.0, rng) >= 2.0 for _ in range(200))


class TestValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            WifiUplink(latency_s=-1.0)

    def test_jitter_above_latency_rejected(self):
        with pytest.raises(ValueError):
            WifiUplink(latency_s=1e-3, jitter_s=2e-3)

    def test_loss_probability_range(self):
        with pytest.raises(ValueError):
            WifiUplink(loss_probability=1.0)

    def test_non_finite_fields_rejected(self):
        for name in ("latency_s", "jitter_s", "loss_probability"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    WifiUplink(**{name: bad})
