"""Tests of the benchmark's own machinery (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import statistics
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
from stats import histogram_percentile, median, percentile  # noqa: E402

WORKLOADS = {"scenario", "fleet", "serve", "fuzz"}
END_TO_END = {"setup_s", "peak_rss_mb", "throughput", "p50_ms"}
PER_LAYER = {
    "core.designer.builds", "core.designer.build_s",
    "core.designer.design_calls", "core.designer.design_s",
    "core.designer.miss_frac",
    "des.kernel.run_calls", "des.kernel.run_s", "des.kernel.self_s",
    "des.journal.events",
    "net.sharded.rounds", "net.sharded.overhead_s",
    "net.spatial.within_calls", "net.handovers",
    "lighting.controller.ticks", "lighting.controller.tick_s",
    "sim.linkmodel.goodput_calls", "sim.linkmodel.goodput_s",
    "sim.sweep.idle_frac",
    "scenarios.compile_s", "scenarios.run_s", "scenarios.grade_s",
    *(f"fuzz.oracle.{oracle}.{what}" for oracle in layers.ORACLES
      for what in ("cases", "s")),
    "serve.protocol.parse_s", "serve.protocol.encode_s",
    "serve.coalescer.wait_ms", "serve.coalescer.ratio",
    "serve.coalescer.flushes", "serve.engine.design_s",
    "serve.engine.result_s", "serve.server.p50_ms", "serve.server.p99_ms",
    "serve.transport_ms", "serve.shed",
    "serve.loadgen.late_ms_p99", "serve.loadgen.late_ms_max",
    "trace.overhead_frac",
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec() -> dict:
    return run.load_spec(ROOT)


# -- percentile math -----------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 99.0) == 99
    assert percentile(values, 100.0) == 100
    assert percentile([4, 1, 3, 2], 50.0) == 2
    assert percentile([7.5], 99.0) == 7.5
    assert percentile(list(range(9)), 90.0) == 8  # < 10 samples: the max


@pytest.mark.parametrize("values, q", [([], 50.0), ([1.0], 0.0),
                                       ([1.0], 101.0)])
def test_percentile_rejects_bad_input(values, q):
    with pytest.raises(ValueError):
        percentile(values, q)


def test_median_matches_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert median(values) == statistics.median(values)
    assert median([2.0, 1.0, 3.0]) == 2.0
    with pytest.raises(ValueError):
        median([])


def test_host_speed_scale_is_relative_to_the_reference():
    meter = hostspeed.Meter()
    meter.samples = [hostspeed.REFERENCE_S] * 3
    assert meter.scale() == pytest.approx(1.0)
    # the mean probe counts: twice the reference time is half speed
    meter.samples = [hostspeed.REFERENCE_S, 3 * hostspeed.REFERENCE_S]
    assert meter.scale() == pytest.approx(0.5)
    assert hostspeed.probe(500) == hostspeed.probe(500)


def test_meter_samples_while_the_body_runs():
    with hostspeed.Meter(period=0.01) as meter:
        time.sleep(0.1)
    assert len(meter.samples) >= 3
    assert not meter._thread.is_alive()
    with hostspeed.Meter(period=60.0) as idle:
        pass
    assert len(idle.samples) == 1  # taken at exit
    # probes taking turns on CPUs move the probe thread, not the caller
    home = os.sched_getaffinity(0)
    with hostspeed.Meter(period=0.01, cpus=(min(home),)) as pinned:
        time.sleep(0.05)
    assert pinned.samples and os.sched_getaffinity(0) == home


def test_histogram_percentile_interpolates_within_buckets():
    bounds, cumulative = [1.0, 2.0, 4.0], [10, 20, 30, 40]
    assert histogram_percentile(bounds, cumulative, 25.0) == 1.0
    assert histogram_percentile(bounds, cumulative, 12.5) == 0.5
    assert histogram_percentile(bounds, cumulative, 50.0) == 2.0
    assert histogram_percentile(bounds, cumulative, 62.5) == 3.0
    assert histogram_percentile(bounds, cumulative, 90.0) == 4.0  # +Inf
    with pytest.raises(ValueError):
        histogram_percentile(bounds, [0, 0, 0, 0], 50.0)


def test_prometheus_scrape_round_trips_a_histogram():
    from repro.obs import MetricsRegistry, render_prometheus
    from repro.serve.server import LATENCY_BUCKETS
    from workloads import _server_latency_ms, parse_prometheus

    registry = MetricsRegistry()
    latency = registry.histogram("repro_serve_request_latency_s",
                                 buckets=LATENCY_BUCKETS)
    for ms in (0.3, 0.8, 2.0, 3.0, 4.0, 7.0, 20.0, 40.0):
        latency.observe(ms / 1e3, op="adapt")
    samples = parse_prometheus(render_prometheus(registry))
    p50 = _server_latency_ms(samples, 50.0)
    assert 2.5 <= p50 <= 5.0  # the fourth of eight lies in (2.5, 5] ms


# -- names and BENCHMARK.json ----------------------------------------------


def test_benchmark_json_lists_the_named_workloads_and_metrics(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == WORKLOADS
    assert {m["name"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]


def test_benchmark_json_respects_the_format_limits(spec):
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    names = []
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_layer_metric_names_what_it_should_move(spec):
    for metric in spec["per_layer"]:
        assert run.moves(metric["name"]), metric["name"]


def test_layer_fold_emits_only_declared_metrics():
    from repro.obs import Telemetry

    empty = Telemetry()
    produced = set(layers.layer_metrics(empty))
    produced |= set(layers.serve_layer_metrics(empty))
    assert produced <= PER_LAYER
    assert all(value == 0.0 for value in layers.layer_metrics(empty).values())


# -- the open-loop driver --------------------------------------------------


async def _against_slow_server(delay_s: float, requests):
    """Run one phase against a server answering each line after a delay."""

    async def handle(reader, writer):
        while line := await reader.readline():
            await asyncio.sleep(delay_s)  # one line at a time: a backlog
            request_id = json.loads(line)["id"]
            writer.write((json.dumps({"id": request_id, "ok": True})
                          + "\n").encode())
            await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    connections = await loadgen.open_connections("127.0.0.1", port, 2)
    try:
        return await loadgen.run_phase(connections, requests, grace_s=5.0)
    finally:
        await loadgen.close_connections(connections)
        server.close()
        await server.wait_closed()


def _requests(n: int, interval_s: float) -> list[loadgen.Request]:
    return [loadgen.Request(i * interval_s, f"r{i}",
                            (json.dumps({"id": f"r{i}"}) + "\n").encode())
            for i in range(n)]


def test_open_loop_keeps_due_times_under_a_slow_server():
    # Each connection gets a request every 10 ms but the server needs
    # 20 ms per request: a closed loop would fall 200 ms behind.
    exchanges = asyncio.run(_against_slow_server(0.02, _requests(40, 0.005)))
    assert all(e.reply == {"id": e.request.id, "ok": True}
               for e in exchanges)
    assert max(e.late_s for e in exchanges) < 0.05
    latencies = [e.latency_s for e in exchanges]
    assert latencies[-1] > latencies[0] + 0.1  # the backlog is charged
    assert min(latencies) >= 0.02


def test_unanswered_requests_stay_unanswered_after_the_grace():
    async def phase():
        async def silent(reader, writer):
            await reader.read()
            writer.close()

        server = await asyncio.start_server(silent, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        connections = await loadgen.open_connections("127.0.0.1", port, 1)
        try:
            return await loadgen.run_phase(connections, _requests(3, 0.0),
                                           grace_s=0.1)
        finally:
            await loadgen.close_connections(connections)
            server.close()
            await server.wait_closed()

    exchanges = asyncio.run(phase())
    assert all(e.sent is not None and e.received is None for e in exchanges)
