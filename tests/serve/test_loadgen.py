"""The fleet load generator's profile and report arithmetic (no sockets)."""

import math

import pytest

from repro.serve import LoadProfile, LoadReport


class TestLoadProfile:
    @pytest.mark.parametrize("fields, message", [
        pytest.param(dict(clients=0), "clients", id="clients"),
        pytest.param(dict(requests_per_client=0), "requests_per_client",
                     id="requests-per-client"),
        pytest.param(dict(arrival_rate_hz=0.0), "arrival_rate_hz",
                     id="arrival-rate"),
        pytest.param(dict(ndjson_fraction=1.5), "ndjson_fraction",
                     id="ndjson-fraction"),
        pytest.param(dict(dimming_lo=0.0), "dimming bounds",
                     id="dimming-lo-zero"),
        pytest.param(dict(dimming_lo=0.8, dimming_hi=0.6), "dimming bounds",
                     id="dimming-order"),
        pytest.param(dict(dimming_hi=1.0), "dimming bounds",
                     id="dimming-hi-one"),
    ])
    def test_invalid_profile_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            LoadProfile(**fields)

    def test_totals_and_transport_split(self):
        profile = LoadProfile(clients=7, requests_per_client=3,
                              ndjson_fraction=0.5)
        assert profile.total_requests == 21
        assert profile.ndjson_clients == 4     # round(3.5): half to even
        assert LoadProfile(clients=5, ndjson_fraction=0.0).ndjson_clients == 0
        assert LoadProfile(clients=5, ndjson_fraction=1.0).ndjson_clients == 5


class TestLoadReport:
    def test_replies_are_classified_ok_shed_or_error(self):
        report = LoadReport()
        report._classify({"ok": True}, 0.002)
        report._classify({"ok": True}, None)
        report._classify({"ok": False, "error": {"code": "overloaded"}}, 0.1)
        report._classify({"ok": False, "error": {"code": "draining"}}, 0.1)
        report._classify({"ok": False, "error": {"code": "bad-request"}}, 0.1)
        report._classify({"ok": False}, 0.1)
        assert (report.ok, report.shed, report.errors) == (2, 2, 2)
        assert report.answered == 6
        # Only successful replies with a measured latency are sampled.
        assert report.latencies_s == [0.002]

    def test_throughput_counts_only_successes(self):
        report = LoadReport(ok=30, shed=10, errors=5, elapsed_s=2.0)
        assert report.throughput_rps == 15.0
        assert LoadReport(ok=30, elapsed_s=0.0).throughput_rps == 0.0

    def test_percentiles_interpolate_between_order_statistics(self):
        report = LoadReport(latencies_s=[0.4, 0.1, 0.3, 0.2, 0.5])
        assert report.latency_percentile(0) == 0.1
        assert report.latency_percentile(50) == 0.3
        assert report.latency_percentile(100) == 0.5
        assert report.latency_percentile(90) == pytest.approx(0.46)
        assert report.latency_percentile(12.5) == pytest.approx(0.15)

    def test_single_sample_is_every_percentile(self):
        report = LoadReport(latencies_s=[0.25])
        for q in (0, 50, 95, 99, 100):
            assert report.latency_percentile(q) == 0.25

    def test_empty_report_has_nan_percentiles(self):
        report = LoadReport(sent=3, elapsed_s=1.0)
        assert math.isnan(report.latency_percentile(50))
        summary = report.summary()
        assert math.isnan(summary["latency_p99_ms"])
        assert "latency" not in report.render()

    @pytest.mark.parametrize("q", [-1.0, 100.5])
    def test_percentile_outside_0_100_rejected(self, q):
        with pytest.raises(ValueError, match="percentile"):
            LoadReport(latencies_s=[0.1]).latency_percentile(q)

    def test_render_reports_latency_in_milliseconds(self):
        report = LoadReport(sent=4, ok=4, elapsed_s=2.0,
                            latencies_s=[0.001, 0.002, 0.003, 0.004])
        text = report.render()
        assert "loadgen: 4 sent, 4 ok, 0 shed, 0 errors, 0 dropped" in text
        assert "2 adapt/s" in text
        assert "latency p50 2.50 ms" in text
