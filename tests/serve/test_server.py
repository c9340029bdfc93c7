"""The control plane end to end: both transports over real sockets.

Every test drives a listening :class:`ControlPlane` through
``asyncio.run`` — no event-loop plugins — and asserts the subsystem's
contracts: served designs byte-identical to the direct designer path,
structured shedding that never drops a connection, graceful drain, and
a 200-client synthetic fleet with zero dropped connections.
"""

import asyncio
import contextlib
import json
import math

import pytest

from repro.core import AmppmDesigner
from repro.obs import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from repro.serve import (
    AdaptEngine,
    ControlPlane,
    LoadProfile,
    ServeConfig,
    encode,
    ok_response,
    parse_request,
    run_loadgen,
)


@contextlib.asynccontextmanager
async def running(engine, registry=None, **knobs):
    """A started plane over the shared engine; always stopped."""
    plane = ControlPlane(ServeConfig(**knobs), config=engine.config,
                         registry=registry, engine=engine)
    await plane.start()
    try:
        yield plane
    finally:
        if not plane.draining:
            await plane.stop()


async def http_exchange(reader, writer, method, path, body=b""):
    """One keep-alive HTTP round trip; returns (status, headers, body)."""
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    head += "\r\n"
    writer.write(head.encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    data = await reader.readexactly(length) if length else b""
    return status, headers, data


async def connect(plane):
    return await asyncio.open_connection(plane.host, plane.port)


def hold_adapts(plane, wait):
    """Make every adapt request ``await wait()`` before its design.

    Adapt requests are answered on arrival, so the overload and drain
    tests hold them in flight through this test-local gate.
    """
    submit = plane.coalescer.submit

    async def held(dimming):
        await wait()
        return await submit(dimming)

    plane.coalescer.submit = held


async def admitted(plane, count):
    """Wait until ``count`` adapt requests are in flight."""
    while plane.inflight < count:
        await asyncio.sleep(0.001)


class TestServeConfig:
    def test_drain_grace_must_be_finite(self):
        for grace in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="drain_grace_s"):
                ServeConfig(drain_grace_s=grace)
        assert ServeConfig(drain_grace_s=0.0).drain_grace_s == 0.0

    def test_port_must_fit_sixteen_bits(self):
        for port in (-1, 65536, 70000):
            with pytest.raises(ValueError, match="port"):
                ServeConfig(port=port)
        assert ServeConfig(port=65535).port == 65535

    @pytest.mark.parametrize("cap", ["max_connections", "queue_limit",
                                     "max_inflight"])
    def test_caps_must_be_positive(self, cap):
        with pytest.raises(ValueError, match=cap):
            ServeConfig(**{cap: 0})
        assert getattr(ServeConfig(**{cap: 1}), cap) == 1


class TestHttp:
    def test_healthz(self, engine):
        async def run():
            async with running(engine) as plane:
                reader, writer = await connect(plane)
                status, headers, body = await http_exchange(
                    reader, writer, "GET", "/healthz")
                writer.close()
                return status, headers, json.loads(body)

        status, headers, reply = asyncio.run(run())
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert reply["ok"] is True
        assert reply["result"]["status"] == "ok"
        assert reply["result"]["connections"] == 1

    def test_metrics_exposition(self, engine):
        async def run():
            async with running(engine, registry=MetricsRegistry()) as plane:
                reader, writer = await connect(plane)
                await http_exchange(reader, writer, "GET", "/healthz")
                status, headers, body = await http_exchange(
                    reader, writer, "GET", "/metrics")
                writer.close()
                return status, headers, body.decode()

        status, headers, text = asyncio.run(run())
        assert status == 200
        assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "# TYPE repro_serve_link_state gauge" in text
        assert 'repro_serve_link_state{state="up"} 1' in text

    def test_adapt_parity_with_the_direct_designer(self, engine, config):
        """A served design is byte-identical to the direct answer."""
        raw = {"dimming": 0.47, "ambient": 0.8, "distance_m": 2.0,
               "angle_deg": 10.0}

        async def run():
            async with running(engine) as plane:
                reader, writer = await connect(plane)
                status, _, body = await http_exchange(
                    reader, writer, "POST", "/v1/adapt",
                    json.dumps(raw).encode())
                writer.close()
                return status, body

        status, served = asyncio.run(run())
        assert status == 200
        # An independent engine over a *fresh* designer must produce the
        # same bytes: the parity contract of the serving path.
        direct_engine = AdaptEngine(config, AmppmDesigner(config))
        request = parse_request({"op": "adapt", **raw})
        direct = encode(ok_response("adapt",
                                    direct_engine.adapt_direct(request)))
        assert served == direct

    def test_keep_alive_serves_many_requests(self, engine):
        async def run():
            async with running(engine) as plane:
                reader, writer = await connect(plane)
                replies = []
                for dimming in (0.4, 0.5, 0.6):
                    status, _, body = await http_exchange(
                        reader, writer, "POST", "/v1/adapt",
                        json.dumps({"dimming": dimming}).encode())
                    replies.append((status, json.loads(body)))
                writer.close()
                return replies, plane.connection_count

        replies, connections = asyncio.run(run())
        assert connections == 1
        for status, reply in replies:
            assert status == 200 and reply["ok"]

    @pytest.mark.parametrize("method,path,body,status,code", [
        ("POST", "/v1/adapt", b"{}", 400, "bad-request"),
        ("POST", "/v1/adapt", b"not json", 400, "bad-request"),
        ("POST", "/v1/adapt", b'{"dimming": 2.0}', 400, "bad-request"),
        ("GET", "/nope", b"", 404, "bad-request"),
        ("DELETE", "/healthz", b"", 405, "bad-request"),
    ])
    def test_structured_http_errors(self, engine, method, path, body,
                                    status, code):
        async def run():
            async with running(engine) as plane:
                reader, writer = await connect(plane)
                got_status, _, got_body = await http_exchange(
                    reader, writer, method, path, body)
                # The connection survives the error.
                ok_status, _, _ = await http_exchange(
                    reader, writer, "GET", "/healthz")
                writer.close()
                return got_status, json.loads(got_body), ok_status

        got_status, reply, ok_status = asyncio.run(run())
        assert got_status == status
        assert reply["error"]["code"] == code
        assert ok_status == 200

    def test_link_endpoint_drives_the_supervisor(self, engine):
        async def run():
            async with running(engine) as plane:
                reader, writer = await connect(plane)
                _, _, body = await http_exchange(
                    reader, writer, "GET", "/v1/link")
                initial = json.loads(body)["result"]
                for _ in range(3):
                    _, _, body = await http_exchange(
                        reader, writer, "POST", "/v1/link",
                        json.dumps({"report": {"outcome": "failure",
                                               "reason": "crc"}}).encode())
                after = json.loads(body)["result"]
                writer.close()
                return initial, after

        initial, after = asyncio.run(run())
        assert initial["state"] == "up"
        assert initial["fail_streak"] == 0
        assert after["state"] == "degraded"
        assert after["fail_streak"] == 3
        assert after["backoff_remaining_s"] > 0
        assert after["recent_transitions"][-1]["target"] == "degraded"


class TestNdjson:
    def test_mixed_session_with_id_echo(self, engine):
        async def run():
            async with running(engine) as plane:
                reader, writer = await connect(plane)
                writer.write(encode({"op": "adapt", "id": "a1",
                                     "dimming": 0.55}))
                writer.write(encode({"op": "health", "id": "h1"}))
                writer.write(b"this is not json\n")
                writer.write(encode({"op": "metrics", "id": "m1"}))
                await writer.drain()
                replies = [json.loads(await reader.readline())
                           for _ in range(4)]
                writer.close()
                return replies

        replies = asyncio.run(run())
        by_id = {r.get("id"): r for r in replies}
        assert by_id["a1"]["ok"] and by_id["h1"]["ok"] and by_id["m1"]["ok"]
        assert "repro_serve" in by_id["m1"]["result"]["prometheus"]
        (bad,) = [r for r in replies if not r["ok"]]
        assert bad["error"]["code"] == "bad-request"

    def test_validation_errors_echo_the_request_id(self, engine):
        # A pipelined client correlates by id, so even a rejected
        # envelope must carry the id back when it is well-typed.
        async def run():
            async with running(engine) as plane:
                reader, writer = await connect(plane)
                writer.write(encode({"v": 99, "op": "adapt", "id": "v9",
                                     "dimming": 0.5}))
                writer.write(encode({"op": "adapt", "id": 7}))
                writer.write(encode({"op": "adapt", "id": ["not-an-id"],
                                     "dimming": 0.5}))
                await writer.drain()
                replies = [json.loads(await reader.readline())
                           for _ in range(3)]
                writer.close()
                return replies

        replies = asyncio.run(run())
        assert all(not r["ok"] for r in replies)
        ids = [r.get("id") for r in replies]
        # Well-typed ids come back (ints stringified like parse_request
        # does); the ill-typed one is dropped, not echoed malformed.
        assert "v9" in ids and "7" in ids
        assert ["not-an-id"] not in ids

    def test_failure_streak_past_the_float_range_keeps_serving(self, engine):
        # The 1025th consecutive failure's backoff, 0.01 · 2.0 ** 1024,
        # overflows a float; the link endpoint must read the cap and
        # keep the connection, and /metrics must still answer.
        line = encode({"v": 1, "op": "link",
                       "report": {"outcome": "failure", "reason": "crc"}})

        async def run():
            async with running(engine) as plane:
                reader, writer = await connect(plane)
                replies = []
                for _ in range(11):
                    writer.write(line * 100)
                    await writer.drain()
                    for _ in range(100):
                        replies.append(json.loads(await reader.readline()))
                writer.close()
                reader, writer = await connect(plane)
                status, _, _ = await http_exchange(reader, writer, "GET",
                                                   "/metrics")
                writer.close()
                return replies, status

        replies, status = asyncio.run(run())
        assert len(replies) == 1100
        assert all(reply["ok"] for reply in replies)
        assert replies[-1]["result"]["fail_streak"] == 1100
        assert replies[-1]["result"]["backoff_remaining_s"] == 0.16
        assert status == 200

    def test_link_endpoint_and_gauges_read_the_cap_after_the_streak(
            self, engine):
        line = encode({"v": 1, "op": "link",
                       "report": {"outcome": "failure", "reason": "crc"}})

        async def run():
            async with running(engine) as plane:
                reader, writer = await connect(plane)
                writer.write(line * 1100)
                await writer.drain()
                for _ in range(1100):
                    await reader.readline()
                writer.close()
                reader, writer = await connect(plane)
                link_status, _, link_body = await http_exchange(
                    reader, writer, "GET", "/v1/link")
                _, _, metrics_body = await http_exchange(
                    reader, writer, "GET", "/metrics")
                writer.close()
                return link_status, json.loads(link_body), metrics_body

        link_status, reply, metrics_body = asyncio.run(run())
        assert link_status == 200
        assert reply["result"]["state"] == "down"
        assert reply["result"]["fail_streak"] == 1100
        assert reply["result"]["backoff_remaining_s"] == 0.16
        text = metrics_body.decode()
        assert "repro_serve_link_fail_streak 1100" in text
        assert "repro_serve_link_backoff_remaining_s 0.16" in text

    def test_pipelined_adapts_all_answered(self, engine):
        n = 20

        async def run():
            async with running(engine) as plane:
                reader, writer = await connect(plane)
                for i in range(n):
                    writer.write(encode({"op": "adapt", "id": f"r{i}",
                                         "dimming": 0.3 + 0.02 * i}))
                await writer.drain()
                replies = [json.loads(await reader.readline())
                           for _ in range(n)]
                writer.close()
                return replies, plane.coalescer.requests

        replies, submitted = asyncio.run(run())
        assert {r["id"] for r in replies} == {f"r{i}" for i in range(n)}
        assert all(r["ok"] for r in replies)
        assert submitted == n

    def test_dimming_error_is_measured_against_each_request(self, engine):
        """Two requests of one bucket share its design, and each reply's
        error is measured against that request's own dimming."""
        tau = engine.config.tau_perceived
        center = engine.bucket(0.337) * tau
        levels = (center - 0.45 * tau, center + 0.45 * tau)
        assert engine.bucket(levels[0]) == engine.bucket(levels[1])

        async def run():
            async with running(engine) as plane:
                reader, writer = await connect(plane)
                for i, level in enumerate(levels):
                    writer.write(encode({"op": "adapt", "id": f"e{i}",
                                         "dimming": level}))
                await writer.drain()
                replies = [json.loads(await reader.readline())
                           for _ in levels]
                writer.close()
                return replies

        results = [r["result"] for r in asyncio.run(run())]
        assert results[0]["super_symbol"] == results[1]["super_symbol"]
        assert results[0]["dimming"] != results[1]["dimming"]
        for result in results:
            assert result["dimming_error"] == abs(
                result["achieved_dimming"] - result["dimming"])
            assert result["dimming_error"] <= tau


class TestOverload:
    def test_connection_queue_sheds_but_keeps_the_connection(self, engine):
        async def run():
            async with running(engine, queue_limit=1) as plane:
                release = asyncio.Event()
                hold_adapts(plane, release.wait)
                reader, writer = await connect(plane)
                for i in range(3):
                    writer.write(encode({"op": "adapt", "id": f"q{i}",
                                         "dimming": 0.5}))
                await writer.drain()
                # q0 is held in flight, so q1 and q2 find the queue full.
                dropped = [json.loads(await reader.readline())
                           for _ in range(2)]
                release.set()
                served = json.loads(await reader.readline())
                # The connection still serves after shedding.
                writer.write(encode({"op": "health", "id": "h"}))
                await writer.drain()
                health = json.loads(await reader.readline())
                writer.close()
                return dropped, served, health, plane.shed_count

        dropped, served, health, shed = asyncio.run(run())
        assert {r["id"] for r in dropped} == {"q1", "q2"}
        assert all(r["error"]["code"] == "overloaded" for r in dropped)
        assert served["ok"] and served["id"] == "q0"
        assert health["ok"]
        assert shed == 2

    def test_global_inflight_cap_sheds_across_connections(self, engine):
        async def run():
            async with running(engine, max_inflight=1) as plane:
                release = asyncio.Event()
                hold_adapts(plane, release.wait)
                r1, w1 = await connect(plane)
                w1.write(encode({"op": "adapt", "id": "a", "dimming": 0.4}))
                await w1.drain()
                await admitted(plane, 1)
                r2, w2 = await connect(plane)
                w2.write(encode({"op": "adapt", "id": "b", "dimming": 0.6}))
                await w2.drain()
                reply_b = json.loads(await r2.readline())
                release.set()
                reply_a = json.loads(await r1.readline())
                # The shed connection still works once load clears.
                w2.write(encode({"op": "adapt", "id": "c", "dimming": 0.6}))
                await w2.drain()
                reply_c = json.loads(await r2.readline())
                w1.close()
                w2.close()
                return reply_a, reply_b, reply_c

        reply_a, reply_b, reply_c = asyncio.run(run())
        assert reply_a["ok"]
        assert not reply_b["ok"]
        assert reply_b["error"]["code"] == "overloaded"
        assert reply_c["ok"]

    def test_http_overload_is_a_structured_503(self, engine):
        async def run():
            async with running(engine, max_inflight=1) as plane:
                release = asyncio.Event()
                hold_adapts(plane, release.wait)
                r1, w1 = await connect(plane)
                w1.write(encode({"op": "adapt", "id": "a", "dimming": 0.4}))
                await w1.drain()
                await admitted(plane, 1)
                r2, w2 = await connect(plane)
                status, _, body = await http_exchange(
                    r2, w2, "POST", "/v1/adapt", b'{"dimming": 0.6}')
                # Same connection, after load clears: served.
                release.set()
                await r1.readline()
                status_after, _, _ = await http_exchange(
                    r2, w2, "POST", "/v1/adapt", b'{"dimming": 0.6}')
                w1.close()
                w2.close()
                return status, json.loads(body), status_after

        status, reply, status_after = asyncio.run(run())
        assert status == 503
        assert reply["error"]["code"] == "overloaded"
        assert status_after == 200

    def test_connection_cap_refuses_politely(self, engine):
        async def run():
            async with running(engine, max_connections=1) as plane:
                r1, w1 = await connect(plane)
                w1.write(encode({"op": "health"}))
                await w1.drain()
                first = json.loads(await r1.readline())
                r2, w2 = await connect(plane)
                w2.write(encode({"op": "health"}))
                await w2.drain()
                refusal = json.loads(await r2.readline())
                eof = await r2.readline()
                w1.close()
                w2.close()
                return first, refusal, eof, plane.refused_connections

        first, refusal, eof, refused = asyncio.run(run())
        assert first["ok"]
        assert refusal["error"]["code"] == "overloaded"
        assert eof == b""
        assert refused == 1


class TestDrain:
    def test_graceful_drain_finishes_inflight_work(self, engine):
        async def run():
            async with running(engine) as plane:
                release = asyncio.Event()
                hold_adapts(plane, release.wait)
                reader, writer = await connect(plane)
                writer.write(encode({"op": "adapt", "id": "last",
                                     "dimming": 0.5}))
                await writer.drain()
                await admitted(plane, 1)
                stopper = asyncio.ensure_future(plane.stop())
                await asyncio.sleep(0.05)
                # The drain waits for the request it holds in flight.
                assert plane.draining and not stopper.done()
                release.set()
                reply = json.loads(await reader.readline())
                await stopper
                # The listener is closed: new connections are refused.
                with pytest.raises(OSError):
                    await asyncio.open_connection(plane.host, plane.port)
                writer.close()
                return reply, plane.draining

        reply, draining = asyncio.run(run())
        assert reply["ok"] and reply["id"] == "last"
        assert draining

    def test_connection_held_across_stop_closes_cleanly(self, engine):
        """An idle client still connected when the drain starts: stop()
        returns only after its handler saw EOF, so leaving the loop
        cancels nothing and logs no traceback."""
        unhandled = []

        async def run():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            plane = ControlPlane(ServeConfig(), config=engine.config,
                                 engine=engine)
            await plane.start()
            reader, writer = await connect(plane)
            writer.write(encode({"op": "health", "id": "held"}))
            await writer.drain()
            reply = json.loads(await reader.readline())
            await plane.stop()
            open_after = plane.connection_count
            writer.close()
            return reply, open_after

        reply, open_after = asyncio.run(run())
        assert reply["ok"] and reply["id"] == "held"
        assert open_after == 0
        assert unhandled == []

    def test_draining_refuses_new_requests_with_a_structured_error(
            self, engine):
        async def run():
            async with running(engine) as plane:
                reader, writer = await connect(plane)
                # Establish the session before the drain begins.
                writer.write(encode({"op": "health"}))
                await writer.drain()
                assert json.loads(await reader.readline())["ok"]
                plane._draining = True
                writer.write(encode({"op": "adapt", "id": "x",
                                     "dimming": 0.5}))
                await writer.drain()
                refused = json.loads(await reader.readline())
                plane._draining = False
                writer.write(encode({"op": "adapt", "id": "y",
                                     "dimming": 0.5}))
                await writer.drain()
                served = json.loads(await reader.readline())
                writer.close()
                return refused, served

        refused, served = asyncio.run(run())
        assert refused["error"]["code"] == "draining"
        assert refused["id"] == "x"
        assert served["ok"] and served["id"] == "y"


class TestFleet:
    def test_200_concurrent_clients_zero_dropped_connections(self, engine):
        """The acceptance bar: a 200-client fleet, nothing dropped."""
        profile = LoadProfile(clients=200, requests_per_client=3, seed=11)

        async def run():
            async with running(engine) as plane:
                report = await run_loadgen(plane.host, plane.port, profile)
                return report, plane.coalescer.requests

        report, submitted = asyncio.run(run())
        assert report.sent == 600
        assert report.dropped_connections == 0
        assert report.ok == 600
        assert report.errors == 0
        assert submitted == 600
        assert report.latency_percentile(50) < 1.0

    def test_overloaded_fleet_sheds_without_dropping(self, engine):
        profile = LoadProfile(clients=30, requests_per_client=10,
                              ndjson_fraction=1.0, arrival_rate_hz=5000.0,
                              seed=5)

        async def run():
            async with running(engine, queue_limit=2) as plane:
                # Each design takes 50 ms, so pipelining clients outrun
                # their two-request queues.
                hold_adapts(plane, lambda: asyncio.sleep(0.05))
                return await run_loadgen(plane.host, plane.port, profile)

        report = asyncio.run(run())
        assert report.dropped_connections == 0
        assert report.shed > 0
        assert report.ok + report.shed + report.errors == report.sent
        assert report.errors == 0

    def test_loadgen_is_seed_deterministic_in_shape(self, engine):
        profile = LoadProfile(clients=8, requests_per_client=4, seed=3)

        async def run():
            async with running(engine) as plane:
                return await run_loadgen(plane.host, plane.port, profile)

        first = asyncio.run(run())
        second = asyncio.run(run())
        assert first.sent == second.sent == 32
        assert first.ok == second.ok == 32
