"""Cross-module integration: the whole system working together."""

import pytest

from repro.core import AmppmDesigner, SystemConfig
from repro.lighting import (
    BlindRampAmbient,
    SmartLightingController,
    type1_structural_ok,
    type2_analyze,
)
from repro.link import Receiver, StopAndWaitMac, Transmitter
from repro.phy import LinkGeometry, calibrated_channel
from repro.schemes import AmppmScheme
from repro.sim import EndToEndLink, expected_goodput


class TestControllerToAir:
    """Ambient change → controller → designer → frames on the air."""

    def test_full_chain_delivers_while_adapting(self, config, rng):
        designer = AmppmDesigner(config)
        controller = SmartLightingController(target_sum=1.0, config=config,
                                             designer=designer)
        tx = Transmitter(config)
        rx = Receiver(config)
        profile = BlindRampAmbient()

        led_levels = []
        for t in range(0, 60, 10):
            sample = controller.tick(float(t), profile.intensity(float(t)))
            led_levels.append(sample.led)
            payload = f"tick {t}".encode()
            slots = tx.encode_frame(payload, sample.design)
            # The frame's duty cycle is the commanded dimming level...
            assert sum(slots) / len(slots) == pytest.approx(sample.led,
                                                            abs=0.04)
            # ...the stream never flickers...
            assert type1_structural_ok(slots, config)
            # ...and the receiver recovers the payload with no prior
            # knowledge of the chosen super-symbol.
            assert rx.decode_frame(slots).payload == payload

        # The LED intensity trace itself stays Type-II clean per design
        # step (each retarget is internally micro-stepped).
        assert type2_analyze(led_levels, config).n_moves == len(led_levels) - 1

    def test_mac_session_during_ambient_change(self, config, rng):
        designer = AmppmDesigner(config)
        controller = SmartLightingController(target_sum=1.0, config=config,
                                             designer=designer)
        channel = calibrated_channel(config)
        geometry = LinkGeometry.on_axis(3.0)
        mac = StopAndWaitMac(config)

        delivered = 0
        for t, ambient in enumerate((0.2, 0.4, 0.6, 0.8)):
            sample = controller.tick(float(t), ambient)
            errors = channel.slot_error_model(geometry, ambient)
            stats = mac.run([bytes(range(64))] * 3, sample.design, errors,
                            rng)
            delivered += stats.frames_delivered
        assert delivered == 12


class TestAnalyticVsWaveform:
    """The analytic link model and the waveform pipeline must agree."""

    def test_goodput_realised_by_waveform_path(self, config, rng):
        scheme = AmppmScheme(config)
        design = scheme.design(0.5)
        channel = calibrated_channel(config)
        geometry = LinkGeometry.on_axis(3.0)
        errors = channel.slot_error_model(geometry, 1.0)

        predicted = expected_goodput(design, errors, config, payload_bytes=64)
        link = EndToEndLink(config=config, channel=channel, geometry=geometry)
        airtime_slots = 0
        bits = 0
        for _ in range(4):
            report = link.send_frame(bytes(range(64)), design, rng)
            assert report.delivered
            airtime_slots += report.n_slots
            bits += 64 * 8
        realised = bits / (airtime_slots * config.t_slot)
        # The waveform path has no losses at 3 m, so realised goodput
        # matches the analytic expectation (which is also lossless here).
        assert realised == pytest.approx(predicted, rel=0.02)

    def test_distance_cliff_consistent(self, config, rng):
        scheme = AmppmScheme(config)
        design = scheme.design(0.5)
        ok_near = EndToEndLink(config=config,
                               geometry=LinkGeometry.on_axis(3.0))
        ok = sum(ok_near.send_frame(bytes(32), design, rng).delivered
                 for _ in range(3))
        assert ok == 3
        dead_far = EndToEndLink(config=config,
                                geometry=LinkGeometry.on_axis(7.5))
        dead = sum(dead_far.send_frame(bytes(32), design, rng).delivered
                   for _ in range(3))
        assert dead == 0


class TestDesignTimeVsRunTime:
    """The designer budgets errors conservatively (3.6 m worst case);
    the runtime channel at 3 m must then comfortably meet the bound."""

    def test_worst_case_design_works_at_nominal_range(self, config):
        designer = AmppmDesigner(config)  # prunes with P1/P2 at 3.6 m
        channel = calibrated_channel(config)
        nominal = channel.slot_error_model(LinkGeometry.on_axis(3.0), 1.0)
        for level in (0.1, 0.5, 0.9):
            design = designer.design(level)
            for pattern in {design.super_symbol.first,
                            design.super_symbol.second}:
                assert pattern.symbol_error_rate(nominal) < config.ser_bound

    def test_reconfigured_slot_time_scales_rates(self):
        # A faster LED (micro-LED future work, Section 6.1 footnote)
        # scales throughput linearly without touching the design logic.
        slow = SystemConfig()
        fast = SystemConfig(t_slot=1e-6, f_flicker=250.0)
        slow_rate = AmppmScheme(slow).design(0.5).data_rate(slow)
        fast_rate = AmppmScheme(fast).design(0.5).data_rate(fast)
        assert fast_rate > 5 * slow_rate
