"""SystemConfig invariants and derived quantities."""

import math

import pytest

from repro.core import DEFAULT_CONFIG, SystemConfig


class TestDefaults:
    def test_paper_slot_time(self):
        assert DEFAULT_CONFIG.t_slot == pytest.approx(8e-6)

    def test_paper_tx_rate(self):
        assert DEFAULT_CONFIG.f_tx == pytest.approx(125e3)

    def test_paper_flicker_threshold(self):
        assert DEFAULT_CONFIG.f_flicker == 250.0

    def test_eq4_n_max_super(self):
        # N_max = f_tx / f_th = 125000 / 250 = 500
        assert DEFAULT_CONFIG.n_max_super == 500

    def test_paper_error_constants(self):
        assert DEFAULT_CONFIG.p_off_error == pytest.approx(9e-5)
        assert DEFAULT_CONFIG.p_on_error == pytest.approx(8e-5)

    def test_paper_payload(self):
        assert DEFAULT_CONFIG.payload_bytes == 128

    def test_sampling_rate_is_4x(self):
        assert DEFAULT_CONFIG.sample_rate == pytest.approx(500e3)

    def test_tau_perceived_from_user_study(self):
        assert DEFAULT_CONFIG.tau_perceived == pytest.approx(0.003)


class TestDerived:
    def test_n_max_super_floors(self):
        cfg = SystemConfig(t_slot=9e-6)  # f_tx ≈ 111.1 kHz
        assert cfg.n_max_super == math.floor(cfg.f_tx / cfg.f_flicker)

    def test_with_overrides_returns_new_instance(self):
        cfg = SystemConfig()
        other = cfg.with_overrides(n_cap=30)
        assert other.n_cap == 30
        assert cfg.n_cap != 30
        assert other is not cfg

    def test_with_overrides_validates(self):
        with pytest.raises(ValueError):
            SystemConfig().with_overrides(n_cap=1)


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("t_slot", 0.0),
        ("t_slot", -1e-6),
        ("f_flicker", 0.0),
        ("p_off_error", -0.1),
        ("p_off_error", 1.0),
        ("p_on_error", 1.5),
        ("ser_bound", 0.0),
        ("ser_bound", 1.5),
        ("n_min", 1),
        ("n_cap", 64),
        ("m_cap", 0),
        ("m_cap", 16),
        ("tau_perceived", 0.0),
        ("tau_perceived", 1.0),
        ("payload_bytes", -1),
        ("oversampling", 0),
        ("adc_bits", 0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            SystemConfig(**{field: value})

    def test_payload_must_fit_the_length_field(self):
        # The frame's 2-byte Length field carries at most 0xFFFF bytes.
        assert SystemConfig(payload_bytes=0xFFFF).payload_bytes == 0xFFFF
        with pytest.raises(ValueError, match="Length field"):
            SystemConfig(payload_bytes=0x10000)

    def test_n_cap_below_n_min_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(n_min=10, n_cap=5)

    def test_frozen(self):
        cfg = SystemConfig()
        with pytest.raises(Exception):
            cfg.t_slot = 1.0  # type: ignore[misc]
