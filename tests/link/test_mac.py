"""Stop-and-wait MAC: delivery, retransmission, throughput accounting."""

import pytest

from repro.core import SlotErrorModel, SystemConfig
from repro.link import StopAndWaitMac, WifiUplink, corrupt_slots
from repro.link.mac import header_success_probability
from repro.schemes import AmppmScheme, OokCt


@pytest.fixture(scope="module")
def mac():
    return StopAndWaitMac(SystemConfig())


@pytest.fixture(scope="module")
def design():
    return AmppmScheme(SystemConfig()).design(0.5)


class TestCorruptSlots:
    def test_noiseless_is_identity(self, rng):
        slots = [True, False] * 50
        assert corrupt_slots(slots, SlotErrorModel.ideal(), rng) == slots

    def test_flip_statistics(self, rng):
        slots = [True] * 20000
        errors = SlotErrorModel(0.0, 0.1)
        flipped = corrupt_slots(slots, errors, rng)
        rate = sum(1 for s in flipped if not s) / len(slots)
        assert rate == pytest.approx(0.1, abs=0.01)

    def test_asymmetric_rates(self, rng):
        on_slots = [True] * 10000
        off_slots = [False] * 10000
        errors = SlotErrorModel(0.2, 0.01)
        on_errs = sum(1 for s in corrupt_slots(on_slots, errors, rng) if not s)
        off_errs = sum(1 for s in corrupt_slots(off_slots, errors, rng) if s)
        assert off_errs > on_errs


class TestRun:
    def test_clean_channel_delivers_everything(self, mac, design, rng):
        payloads = [bytes([i] * 32) for i in range(10)]
        stats = mac.run(payloads, design, SlotErrorModel.ideal(), rng)
        assert stats.frames_delivered == 10
        assert stats.retransmissions == 0
        assert stats.payload_bits_acked == 10 * 32 * 8
        assert stats.throughput_bps > 0

    def test_noisy_channel_retransmits(self, mac, design, rng):
        errors = SlotErrorModel(2e-3, 2e-3)
        payloads = [bytes(64)] * 20
        stats = mac.run(payloads, design, errors, rng)
        assert stats.retransmissions > 0
        assert stats.frames_sent > stats.frames_delivered or \
            stats.retransmissions == stats.frames_sent - stats.frames_delivered

    def test_hopeless_channel_gives_up(self, design, rng):
        mac = StopAndWaitMac(SystemConfig(), max_retries=2)
        errors = SlotErrorModel(0.2, 0.2)
        stats = mac.run([bytes(64)], design, errors, rng)
        assert stats.frames_delivered == 0
        assert stats.frames_sent == 3  # 1 + 2 retries

    def test_exhausted_retries_pin_the_retransmission_count(self, design,
                                                            rng):
        # Regression: the first transmission of a payload is not a
        # retransmission, and the final timeout of an abandoned payload
        # must not count one either — a payload that exhausts
        # ``max_retries`` retries contributes exactly ``max_retries``.
        mac = StopAndWaitMac(SystemConfig(), max_retries=2)
        errors = SlotErrorModel(0.2, 0.2)
        stats = mac.run([bytes(64)], design, errors, rng)
        assert stats.retransmissions == 2
        assert stats.frames_abandoned == 1
        assert stats.frames_sent == stats.retransmissions + 1

    def test_custom_corruptor_burst_channel(self, mac, design, rng):
        from repro.core import SlotErrorModel as Sem
        from repro.phy import GilbertElliottChannel

        channel = GilbertElliottChannel(good=Sem.ideal(),
                                        p_good_to_bad=2e-4,
                                        p_bad_to_good=2e-3)
        stats = mac.run([bytes(64)] * 15, design, Sem.ideal(), rng,
                        corruptor=lambda s, r: channel.corrupt(s, r)[0])
        assert stats.frames_delivered == 15
        assert stats.frames_sent >= 15

    def test_each_lost_attempt_waits_the_fixed_timeout(self, design, rng):
        # The paper's loop: no backoff, the same ACK timeout after every
        # lost attempt, the abandoned payload's last one included.
        mac = StopAndWaitMac(SystemConfig(), ack_timeout_s=25e-3,
                             max_retries=3)
        stats = mac.run([bytes(64)], design, SlotErrorModel.ideal(), rng,
                        corruptor=lambda slots, _rng: [not s for s in slots])
        assert stats.frames_abandoned == 1
        assert stats.frames_sent == 4
        assert stats.elapsed_s == pytest.approx(stats.airtime_s + 4 * 25e-3)

    def test_corruptor_sees_every_attempt(self, design, rng):
        calls = []

        def corruptor(slots, generator):
            calls.append(generator)
            return slots if len(calls) > 2 else [not s for s in slots]

        mac = StopAndWaitMac(SystemConfig(),
                             uplink=WifiUplink(loss_probability=0.0))
        stats = mac.run([bytes(32)], design, SlotErrorModel.ideal(), rng,
                        corruptor=corruptor)
        assert len(calls) == stats.frames_sent == 3
        assert all(generator is rng for generator in calls)
        assert stats.frames_delivered == 1
        assert stats.crc_failures == 2

    def test_ack_loss_counts_as_retransmission(self, design, rng):
        mac = StopAndWaitMac(SystemConfig(),
                             uplink=WifiUplink(loss_probability=0.5))
        stats = mac.run([bytes(32)] * 20, design, SlotErrorModel.ideal(), rng)
        assert stats.retransmissions > 0
        assert stats.frames_delivered == 20


class TestExpectedThroughput:
    def test_matches_simulation_roughly(self, mac, design, rng):
        errors = SlotErrorModel(9e-5, 8e-5)
        expected = mac.expected_throughput(design, errors, payload_bytes=128)
        stats = mac.run([bytes(range(128))] * 40, design, errors, rng)
        assert stats.throughput_bps == pytest.approx(expected, rel=0.15)

    def test_decreases_with_noise(self, mac, design):
        clean = mac.expected_throughput(design, SlotErrorModel.ideal())
        noisy = mac.expected_throughput(design, SlotErrorModel(1e-3, 1e-3))
        assert noisy < clean

    def test_longer_timeout_costs_throughput(self, design):
        errors = SlotErrorModel(2e-4, 2e-4)
        short = StopAndWaitMac(SystemConfig(), ack_timeout_s=5e-3)
        long = StopAndWaitMac(SystemConfig(), ack_timeout_s=40e-3)
        assert long.expected_throughput(design, errors) \
            < short.expected_throughput(design, errors)

    def test_timeout_is_free_on_a_lossless_link(self, design):
        # P_ok = 1: no cycle ever waits the timeout out.
        lossless = WifiUplink(loss_probability=0.0)
        short = StopAndWaitMac(SystemConfig(), uplink=lossless,
                               ack_timeout_s=5e-3)
        long = StopAndWaitMac(SystemConfig(), uplink=lossless,
                              ack_timeout_s=40e-3)
        ideal = SlotErrorModel.ideal()
        assert long.expected_throughput(design, ideal) \
            == short.expected_throughput(design, ideal)

    def test_larger_payload_amortises_overhead(self, mac, design):
        small = mac.expected_throughput(design, SlotErrorModel.ideal(),
                                        payload_bytes=16)
        large = mac.expected_throughput(design, SlotErrorModel.ideal(),
                                        payload_bytes=512)
        assert large > small

    def test_gain_shrinks_with_small_payloads(self, mac):
        # Section 6.1: AMPPM's edge decreases when the payload is small
        # because of the fixed header overhead.
        config = SystemConfig()
        ampem = AmppmScheme(config).design(0.2)
        ook = OokCt(config).design(0.2)
        errors = SlotErrorModel.ideal()
        gain_small = (mac.expected_throughput(ampem, errors, 8)
                      / mac.expected_throughput(ook, errors, 8))
        gain_large = (mac.expected_throughput(ampem, errors, 512)
                      / mac.expected_throughput(ook, errors, 512))
        assert gain_large > gain_small


class TestHeaderSuccess:
    def test_ideal_is_certain(self):
        assert header_success_probability(SlotErrorModel.ideal()) == 1.0

    def test_decreases_with_errors(self):
        low = header_success_probability(SlotErrorModel(1e-5, 1e-5))
        high = header_success_probability(SlotErrorModel(1e-3, 1e-3))
        assert high < low < 1.0


class TestValidation:
    def test_bad_timeout(self):
        with pytest.raises(ValueError):
            StopAndWaitMac(SystemConfig(), ack_timeout_s=0.0)

    def test_bad_retries(self):
        with pytest.raises(ValueError):
            StopAndWaitMac(SystemConfig(), max_retries=-1)
