"""Integration of the extension substrates with the core loop."""

import pytest

from repro.lighting import (
    DayNightManager,
    DaylightAmbient,
    LinkMode,
    SmartLightingController,
    energy_report,
)
from repro.link import Receiver, Transmitter, WifiUplink
from repro.net import desk_room
from repro.lighting import StaticAmbient


#: A 10-minute day of fast clouds whose midday sun alone lights the room.
DAY = DaylightAmbient(sunrise_s=0.0, sunset_s=600.0, peak_level=1.0,
                      night_level=0.0, shape=1.0, cloud_depth=0.2,
                      cloud_time_scale_s=20.0, seed=21)


def control(result, field: str) -> list[float]:
    """One field of the room's per-tick ``control`` entries."""
    return [e.get(field) for e in result.journal.of_kind("control")]


class TestDayNightLoop:
    """Controller + mode manager over a full simulated day."""

    def test_link_never_goes_silent(self, config):
        manager = DayNightManager(config=config)
        controller = SmartLightingController(target_sum=0.8, config=config)
        tx, rx = Transmitter(config), Receiver(config)

        saw_night = False
        saw_day = False
        for t in range(0, 601, 30):
            sample = controller.tick(float(t), DAY.intensity(float(t)))
            decision = manager.select(sample.led)
            saw_night |= decision.mode is LinkMode.DARKLIGHT
            saw_day |= decision.mode is LinkMode.SMARTVLC
            slots = tx.encode_frame(b"around the clock", decision.design)
            assert rx.decode_frame(slots).payload == b"around the clock"
        assert saw_day
        assert saw_night  # midday sun pushes the LED to zero

    def test_energy_ledger_over_the_day(self, config):
        controller = SmartLightingController(target_sum=0.8, config=config)
        samples = controller.run(DAY, 600.0, tick_s=10.0)
        report = energy_report([s.led for s in samples], tick_s=10.0)
        # Midday sun should save a substantial share of the energy.
        assert report.saving_fraction > 0.3
        assert report.smart_average_w < 4.7


class TestRoomUnderDegradedWifi:
    def test_total_wifi_loss_falls_back_to_local_sensor(self):
        result = desk_room(
            profile=StaticAmbient(0.4),
            uplink=WifiUplink(loss_probability=0.999999),
        ).run(5.0)
        # No reports arrive; the transmitter's own reading (the room
        # ambient) drives the controller.
        assert result.journal.count("report-arrival") == 0
        assert control(result, "fused") == pytest.approx([0.4] * 6)
        assert all(e.get("goodput_bps") >= 1e3
                   for e in result.journal.of_kind("link"))

    def test_fusion_is_the_mean_of_the_desks(self):
        # Tick 0 primes the feedback plane; tick 1 fuses its reports.
        room = desk_room(
            profile=StaticAmbient(0.5),
            uplink=WifiUplink(latency_s=1e-3, jitter_s=0.0),
        )
        result = room.run(1.0)
        sensed = [0.5 * node.daylight_gain for node in room.nodes]
        assert control(result, "fused")[-1] == pytest.approx(
            sum(sensed) / len(sensed), abs=1e-6)
        # The LED completes the fused ambient to the target sum.
        assert control(result, "led")[-1] == pytest.approx(
            room.target_sum - control(result, "fused")[-1], abs=1e-6)

    def test_lossy_wifi_room_still_converges(self):
        rng_independent_runs = []
        for seed in (1, 2):
            result = desk_room(
                profile=StaticAmbient(0.3),
                uplink=WifiUplink(loss_probability=0.5),
                seed=seed,
            ).run(10.0)
            final_led = control(result, "led")[-1]
            rng_independent_runs.append(final_led)
            assert final_led == pytest.approx(0.7, abs=0.1)
        # Different loss realisations, same steady state.
        assert rng_independent_runs[0] == pytest.approx(
            rng_independent_runs[1], abs=0.05)
