"""A seeded synthetic client fleet for the control plane.

Drives a running :class:`~repro.serve.server.ControlPlane` the way a
smart-lighting deployment would: many concurrent clients, each asking
for adaptations as its dimming setpoint wanders.  Two client species,
mixed by ``ndjson_fraction``:

* **NDJSON clients** hold one persistent socket and pipeline: requests
  leave open-loop on a seeded exponential arrival process while a
  reader task matches correlation ids coming back — the demanding
  case for the server's per-connection queues.
* **HTTP clients** run closed-loop request/response over a keep-alive
  connection with the same arrival gaps between calls.

Everything random flows from ``LoadProfile.seed`` through per-client
:class:`random.Random` instances, so a load run is replayable.  The
:class:`LoadReport` totals are what the overload tests and the
serve perf floor assert against — in particular
``dropped_connections``, which a healthy server keeps at zero no
matter how hard it sheds.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
from dataclasses import dataclass, field

from .protocol import PROTOCOL_VERSION, encode

_SHED_CODES = ("overloaded", "draining")


@dataclass(frozen=True)
class LoadProfile:
    """Shape of one synthetic fleet run."""

    clients: int = 20
    requests_per_client: int = 10
    arrival_rate_hz: float = 500.0    # per-client open-loop arrival rate
    ndjson_fraction: float = 0.5
    dimming_lo: float = 0.3
    dimming_hi: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be positive")
        if self.requests_per_client < 1:
            raise ValueError("requests_per_client must be positive")
        if self.arrival_rate_hz <= 0:
            raise ValueError("arrival_rate_hz must be positive")
        if not 0.0 <= self.ndjson_fraction <= 1.0:
            raise ValueError("ndjson_fraction must lie in [0, 1]")
        if not 0.0 < self.dimming_lo <= self.dimming_hi < 1.0:
            raise ValueError("dimming bounds must satisfy 0 < lo <= hi < 1")

    @property
    def ndjson_clients(self) -> int:
        """How many of the clients speak NDJSON (the rest speak HTTP)."""
        return round(self.clients * self.ndjson_fraction)

    @property
    def total_requests(self) -> int:
        """Requests the whole fleet will send."""
        return self.clients * self.requests_per_client


@dataclass
class LoadReport:
    """Aggregated outcome of one fleet run."""

    sent: int = 0
    ok: int = 0
    shed: int = 0
    errors: int = 0
    dropped_connections: int = 0
    elapsed_s: float = 0.0
    latencies_s: list = field(default_factory=list)

    @property
    def answered(self) -> int:
        """Replies of any kind (ok + shed + errors)."""
        return self.ok + self.shed + self.errors

    @property
    def throughput_rps(self) -> float:
        """Successful adaptations per wall-clock second."""
        if self.elapsed_s <= 0:
            return 0.0
        return self.ok / self.elapsed_s

    def latency_percentile(self, q: float) -> float:
        """The ``q``-th latency percentile in seconds (NaN when empty)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must lie in [0, 100], got {q}")
        if not self.latencies_s:
            return float("nan")
        ordered = sorted(self.latencies_s)
        rank = q / 100.0 * (len(ordered) - 1)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        if lo == hi:
            return ordered[lo]
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self) -> dict:
        """A JSON-able digest of the run."""
        return {
            "sent": self.sent,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "dropped_connections": self.dropped_connections,
            "elapsed_s": self.elapsed_s,
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": self.latency_percentile(50) * 1e3,
            "latency_p95_ms": self.latency_percentile(95) * 1e3,
            "latency_p99_ms": self.latency_percentile(99) * 1e3,
        }

    def render(self) -> str:
        """One human line per fact, for the CLI."""
        s = self.summary()
        lines = [
            f"loadgen: {s['sent']} sent, {s['ok']} ok, {s['shed']} shed, "
            f"{s['errors']} errors, {s['dropped_connections']} dropped "
            f"connections",
            f"loadgen: {s['elapsed_s']:.3f} s, "
            f"{s['throughput_rps']:.0f} adapt/s",
        ]
        if self.latencies_s:
            lines.append(
                f"loadgen: latency p50 {s['latency_p50_ms']:.2f} ms, "
                f"p95 {s['latency_p95_ms']:.2f} ms, "
                f"p99 {s['latency_p99_ms']:.2f} ms")
        return "\n".join(lines)

    def _classify(self, obj: dict, latency_s: float | None) -> None:
        if obj.get("ok"):
            self.ok += 1
            if latency_s is not None:
                self.latencies_s.append(latency_s)
        elif (obj.get("error") or {}).get("code") in _SHED_CODES:
            self.shed += 1
        else:
            self.errors += 1


def _adapt_line(request_id: str, dimming: float) -> bytes:
    return encode({"v": PROTOCOL_VERSION, "op": "adapt", "id": request_id,
                   "dimming": round(dimming, 6)})


async def _pace(rng: random.Random, rate_hz: float) -> None:
    gap = rng.expovariate(rate_hz)
    if gap > 0:
        await asyncio.sleep(min(gap, 0.05))


async def _ndjson_client(host: str, port: int, index: int,
                         profile: LoadProfile, report: LoadReport) -> None:
    rng = random.Random(f"{profile.seed}-ndjson-{index}")
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError:
        report.dropped_connections += 1
        return
    loop = asyncio.get_running_loop()
    sends: dict[str, float] = {}
    n = profile.requests_per_client

    async def collect() -> None:
        received = 0
        while received < n:
            line = await reader.readline()
            if not line:
                report.dropped_connections += 1
                report.errors += n - received
                return
            received += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                report.errors += 1
                continue
            started = sends.pop(obj.get("id"), None)
            report._classify(
                obj, loop.time() - started if started is not None else None)

    collector = loop.create_task(collect())
    try:
        for i in range(n):
            request_id = f"c{index}-{i}"
            dimming = rng.uniform(profile.dimming_lo, profile.dimming_hi)
            sends[request_id] = loop.time()
            writer.write(_adapt_line(request_id, dimming))
            report.sent += 1
            await writer.drain()
            await _pace(rng, profile.arrival_rate_hz)
        await collector
    except (ConnectionError, OSError):
        report.dropped_connections += 1
        collector.cancel()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _read_http_response(reader: asyncio.StreamReader) -> dict | None:
    """One keep-alive HTTP response body as JSON (None on EOF)."""
    status_line = await reader.readline()
    if not status_line:
        return None
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    body = await reader.readexactly(length) if length else b""
    try:
        return json.loads(body)
    except json.JSONDecodeError:
        return {"ok": False, "error": {"code": "bad-reply"}}


async def _http_client(host: str, port: int, index: int,
                       profile: LoadProfile, report: LoadReport) -> None:
    rng = random.Random(f"{profile.seed}-http-{index}")
    try:
        reader, writer = await asyncio.open_connection(host, port)
    except OSError:
        report.dropped_connections += 1
        return
    loop = asyncio.get_running_loop()
    try:
        for i in range(profile.requests_per_client):
            dimming = rng.uniform(profile.dimming_lo, profile.dimming_hi)
            body = _adapt_line(f"h{index}-{i}", dimming)
            head = (f"POST /v1/adapt HTTP/1.1\r\n"
                    f"Host: {host}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n")
            started = loop.time()
            writer.write(head.encode() + body)
            report.sent += 1
            await writer.drain()
            obj = await _read_http_response(reader)
            if obj is None:
                report.dropped_connections += 1
                report.errors += profile.requests_per_client - i
                return
            report._classify(obj, loop.time() - started)
            await _pace(rng, profile.arrival_rate_hz)
    except (ConnectionError, OSError):
        report.dropped_connections += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def run_loadgen(host: str, port: int,
                      profile: LoadProfile | None = None) -> LoadReport:
    """Run the whole fleet against a listening server; returns totals."""
    profile = profile if profile is not None else LoadProfile()
    report = LoadReport()
    loop = asyncio.get_running_loop()
    started = loop.time()
    clients = []
    for index in range(profile.clients):
        if index < profile.ndjson_clients:
            clients.append(_ndjson_client(host, port, index, profile, report))
        else:
            clients.append(_http_client(host, port, index, profile, report))
    await asyncio.gather(*clients)
    report.elapsed_s = loop.time() - started
    return report
