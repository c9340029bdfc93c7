"""The always-on asyncio control plane daemon.

One process, one event loop, many concurrent clients.  The listener
speaks two protocols on the same port, told apart by the first byte of
the first line:

* **HTTP/1.1** (first line is a request line): ``GET /healthz``,
  ``GET /metrics`` (Prometheus text exposition via
  :func:`repro.obs.render_prometheus`), ``GET /v1/link`` and
  ``POST /v1/adapt`` / ``POST /v1/link`` with JSON bodies.  Keep-alive
  is honoured, so a client fleet can hold persistent connections.
* **NDJSON** (first line starts with ``{``): a persistent socket
  protocol — one request object per line, one response line each, with
  client correlation ids, for streaming clients that pipeline.

Load discipline, in order: per-connection bounded queues (a pipelining
client that outruns the daemon gets structured ``overloaded``
replies, its connection stays up), a global in-flight cap, and a
connection cap.  ``SIGTERM``/``SIGINT`` trigger a graceful drain: the
listener closes, in-flight requests finish, new ones are refused with
``draining``, and the process exits 0.

Each admitted adapt request is answered on arrival through the
:class:`~repro.serve.coalescer.AdaptCoalescer` seam from the shared
designer, whose memo composes each dimming bucket once; no request
waits on a timer.  Everything is instrumented live through
``repro.obs`` counters/gauges/histograms, which is exactly what
``/metrics`` exposes.
"""

from __future__ import annotations

import asyncio
import math
import signal
import sys
from dataclasses import dataclass, field

from ..core.ampdesign import AmppmDesigner, shared_designer
from ..core.errormodel import SlotErrorModel
from ..core.params import SystemConfig
from ..link.supervision import BackoffPolicy, LinkSupervisor
from ..obs.export import PROMETHEUS_CONTENT_TYPE, render_prometheus
from ..obs.metrics import MetricsRegistry
from ..phy.channel import calibrated_channel
from ..phy.optics import LinkGeometry
from .coalescer import AdaptCoalescer
from .protocol import (
    E_BAD_REQUEST,
    E_DRAINING,
    E_INTERNAL,
    E_OVERLOADED,
    HTTP_STATUS,
    PROTOCOL_VERSION,
    AdaptRequest,
    LinkRequest,
    ProtocolError,
    SimpleRequest,
    adapt_result,
    decode_json,
    encode,
    error_response,
    ok_response,
    parse_request,
)

JSON_CONTENT_TYPE = "application/json"

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error",
            503: "Service Unavailable"}

#: Request-latency histogram bounds (seconds): sub-ms to seconds.
LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5)

_MAX_BODY_BYTES = 1 << 20

#: The ACK backoff under which ``/v1/link`` reports the remaining wait.
LINK_BACKOFF = BackoffPolicy()


def _salvage_id(obj: object) -> str | None:
    """Recover a request id for an error reply, mirroring parse_request.

    Validation failures must still be correlatable on a pipelined
    NDJSON session, so a well-typed ``id`` is echoed even when the
    rest of the envelope is rejected.
    """
    if not isinstance(obj, dict):
        return None
    request_id = obj.get("id")
    if isinstance(request_id, bool):
        return None
    if isinstance(request_id, int):
        return str(request_id)
    return request_id if isinstance(request_id, str) else None


@dataclass(frozen=True)
class ServeConfig:
    """Operating knobs of the control-plane daemon."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0: bind an ephemeral port
    max_connections: int = 1024
    queue_limit: int = 64             # per-connection in-flight adapt cap
    max_inflight: int = 4096          # global in-flight adapt cap
    drain_grace_s: float = 5.0

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must lie in [0, 65535], got {self.port}")
        if self.max_connections < 1:
            raise ValueError("max_connections must be positive")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be positive")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be positive")
        if not 0.0 <= self.drain_grace_s < math.inf:
            raise ValueError("drain_grace_s must be finite and "
                             "non-negative")


class AdaptEngine:
    """The serving data plane: designer + calibrated channel.

    Designs depend only on the (clamped, quantized) dimming level —
    candidate pruning uses the paper's conservative design-time error
    budget, exactly as :class:`~repro.sim.linkmodel.LinkEvaluator`
    works — while the *reported* performance of a design is evaluated
    under the request's actual placement and ambient level.  That split
    is what lets requests share a design: same bucket, same design,
    whichever request arrived first.
    """

    def __init__(self, config: SystemConfig | None = None,
                 designer: AmppmDesigner | None = None):
        self.config = config if config is not None else SystemConfig()
        self.designer = (designer if designer is not None
                         else shared_designer(self.config))
        self.channel = calibrated_channel(self.config)

    def bucket(self, dimming: float):
        """The designer memo bucket a request quantizes to."""
        return self.designer.memo_key(dimming)

    def design(self, dimming: float):
        """One designer call (clamped to the supported range)."""
        return self.designer.design_clamped(dimming)

    def errors_for(self, request: AdaptRequest) -> SlotErrorModel:
        """Slot error model at the request's placement and ambient."""
        geometry = LinkGeometry.on_arc(request.distance_m, request.angle_deg)
        return self.channel.slot_error_model(geometry, request.ambient)

    def result(self, request: AdaptRequest, design) -> dict:
        """The response payload for a finished design."""
        return adapt_result(request, design, self.errors_for(request),
                            self.config, self.designer.clamp(request.dimming))

    def adapt_direct(self, request: AdaptRequest) -> dict:
        """The reference path: one designer call, one reply."""
        return self.result(request, self.design(request.dimming))


def link_snapshot_metrics(snapshot: dict, registry: MetricsRegistry) -> None:
    """Mirror a supervisor snapshot into gauges on ``registry``.

    One-hot ``repro_serve_link_state{state=...}`` plus the streak and
    backoff numbers — the form ``/metrics`` scrapes and ``repro stats``
    renders from an exported telemetry dump.
    """
    state_gauge = registry.gauge("repro_serve_link_state",
                                 help="supervised link state (one-hot)")
    for state in ("up", "degraded", "down", "probing"):
        state_gauge.set(1.0 if snapshot["state"] == state else 0.0,
                        state=state)
    for key, name in (("fail_streak", "repro_serve_link_fail_streak"),
                      ("crc_streak", "repro_serve_link_crc_streak"),
                      ("ok_streak", "repro_serve_link_ok_streak"),
                      ("transitions", "repro_serve_link_transitions"),
                      ("backoff_remaining_s",
                       "repro_serve_link_backoff_remaining_s")):
        registry.gauge(name, help=f"supervised link {key}").set(
            float(snapshot[key]))
    registry.gauge("repro_serve_link_data_suspended",
                   help="1 when data transmission is suspended").set(
        1.0 if snapshot["data_suspended"] else 0.0)


@dataclass
class _Connection:
    """Book-keeping for one accepted socket."""

    transport: str = "?"
    inflight: int = 0
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)


class ControlPlane:
    """The daemon: listener, dispatcher, adapt seam, supervisor, metrics.

    Construct, ``await start()``, and either ``await serve_until()`` a
    shutdown event (the CLI path, with signal handlers) or drive it
    from tests and ``await stop()`` when done.
    """

    def __init__(self, serve_config: ServeConfig | None = None,
                 config: SystemConfig | None = None,
                 registry: MetricsRegistry | None = None,
                 engine: AdaptEngine | None = None):
        self.serve_config = (serve_config if serve_config is not None
                             else ServeConfig())
        self.config = config if config is not None else SystemConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.engine = (engine if engine is not None
                       else AdaptEngine(self.config))
        self.supervisor = LinkSupervisor()
        self.coalescer = AdaptCoalescer(self.engine.design,
                                        registry=self.registry)
        self._server: asyncio.Server | None = None
        self._bound_port: int | None = None
        self._connections: dict[int, _Connection] = {}
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._conn_seq = 0
        self._inflight = 0
        self._idle: asyncio.Event | None = None
        self._draining = False
        self._started_at = 0.0
        self.shed_count = 0
        self.refused_connections = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (after :meth:`start`)."""
        assert self._bound_port is not None, "server not started"
        return self._bound_port

    @property
    def host(self) -> str:
        """The configured bind host."""
        return self.serve_config.host

    @property
    def draining(self) -> bool:
        """Whether a graceful drain is in progress."""
        return self._draining

    @property
    def connection_count(self) -> int:
        """Currently accepted connections."""
        return len(self._connections)

    @property
    def inflight(self) -> int:
        """Adapt requests currently being served."""
        return self._inflight

    async def start(self) -> None:
        """Bind the listener and start accepting connections."""
        loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._started_at = loop.time()
        self._server = await asyncio.start_server(
            self._on_connection, self.serve_config.host,
            self.serve_config.port)
        self._bound_port = self._server.sockets[0].getsockname()[1]

    async def serve_until(self, shutdown: asyncio.Event) -> None:
        """Serve until ``shutdown`` is set, then drain gracefully."""
        await shutdown.wait()
        await self.stop()

    def install_signal_handlers(self, shutdown: asyncio.Event) -> None:
        """SIGTERM/SIGINT set the shutdown event (graceful drain)."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, shutdown.set)
            except NotImplementedError:  # pragma: no cover — non-POSIX
                pass

    async def stop(self) -> None:
        """Graceful drain: finish in-flight work, refuse new, close.

        Returns once every connection handler has finished (or the
        drain grace expired): a handler still parked in ``readline()``
        when the loop shuts down would be cancelled and log a traceback.
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.serve_config.drain_grace_s
        if self._server is not None:
            self._server.close()
        if self._idle is not None and self._inflight > 0:
            try:
                await asyncio.wait_for(self._idle.wait(),
                                       self.serve_config.drain_grace_s)
            except asyncio.TimeoutError:  # pragma: no cover — grace expired
                pass
        for writer in self._handlers.values():
            writer.close()  # the handler reads EOF and returns
        if self._handlers:
            await asyncio.wait(list(self._handlers),
                               timeout=max(0.0, deadline - loop.time()))
        if self._server is not None:
            await self._server.wait_closed()

    # -- accounting -----------------------------------------------------

    def _task_started(self) -> None:
        self._inflight += 1
        assert self._idle is not None
        self._idle.clear()

    def _task_finished(self) -> None:
        self._inflight -= 1
        if self._inflight == 0 and self._idle is not None:
            self._idle.set()

    def _shed(self, reason: str) -> None:
        self.shed_count += 1
        self.registry.counter(
            "repro_serve_shed_total",
            help="requests shed under overload").inc(reason=reason)

    def _observe(self, op: str, transport: str, elapsed_s: float) -> None:
        self.registry.counter(
            "repro_serve_requests_total",
            help="requests served").inc(op=op, transport=transport)
        self.registry.histogram(
            "repro_serve_request_latency_s",
            help="request service latency",
            buckets=LATENCY_BUCKETS).observe(elapsed_s, op=op)

    def _refresh_gauges(self) -> None:
        self.registry.gauge("repro_serve_connections",
                            help="accepted connections").set(
            len(self._connections))
        self.registry.gauge("repro_serve_inflight",
                            help="adapt requests in flight").set(
            self._inflight)
        link_snapshot_metrics(self.supervisor.snapshot(LINK_BACKOFF),
                              self.registry)

    # -- shared op handlers --------------------------------------------

    def _uptime(self) -> float:
        return asyncio.get_running_loop().time() - self._started_at

    def _health_payload(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "version": PROTOCOL_VERSION,
            "uptime_s": round(self._uptime(), 3),
            "connections": len(self._connections),
            "inflight": self._inflight,
            "shed": self.shed_count,
        }

    def _link_payload(self, request: LinkRequest) -> dict:
        now = self._uptime()
        if request.outcome == "success":
            self.supervisor.on_success(now)
        elif request.outcome == "failure":
            self.supervisor.on_failure(now, request.reason)
        elif request.outcome == "probe":
            self.supervisor.start_probing(now)
        elif request.outcome == "probe-success":
            self.supervisor.on_probe_success(now)
        elif request.outcome == "probe-failure":
            self.supervisor.on_probe_failure(now)
        snapshot = self.supervisor.snapshot(LINK_BACKOFF)
        link_snapshot_metrics(snapshot, self.registry)
        recent = [{"time": t.time, "source": t.source.value,
                   "target": t.target.value, "reason": t.reason}
                  for t in self.supervisor.transitions[-5:]]
        return {**snapshot, "recent_transitions": recent}

    async def _adapt_payload(self, request: AdaptRequest) -> dict:
        design = await self.coalescer.submit(request.dimming)
        return self.engine.result(request, design)

    def _admission_error(self, conn: _Connection,
                         request_id: str | None) -> dict | None:
        """The structured refusal for an adapt request, or None to admit."""
        if self._draining:
            self._shed("draining")
            return error_response(E_DRAINING, "server is draining",
                                  op="adapt", request_id=request_id)
        if conn.inflight >= self.serve_config.queue_limit:
            self._shed("connection-queue")
            return error_response(
                E_OVERLOADED,
                f"connection queue full ({self.serve_config.queue_limit} "
                f"in flight)", op="adapt", request_id=request_id)
        if self._inflight >= self.serve_config.max_inflight:
            self._shed("global-inflight")
            return error_response(
                E_OVERLOADED,
                f"server at capacity ({self.serve_config.max_inflight} "
                f"in flight)", op="adapt", request_id=request_id)
        return None

    # -- connection handling -------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        handler = asyncio.current_task()
        self._handlers[handler] = writer
        handler.add_done_callback(self._handlers.pop)
        try:
            first = await reader.readline()
        except (ConnectionError, ValueError):
            # ValueError is how StreamReader.readline reports a line
            # overrunning the stream limit: a fuzzer-shaped first line
            # with no newline in sight.  No transport was ever
            # established, so a clean close is the whole answer.
            writer.close()
            return
        if not first:
            writer.close()
            return
        is_ndjson = first.lstrip().startswith(b"{")
        if (self._draining
                or len(self._connections) >= self.serve_config.max_connections):
            self.refused_connections += 1
            code = E_DRAINING if self._draining else E_OVERLOADED
            body = error_response(code, "connection refused")
            try:
                if is_ndjson:
                    writer.write(encode(body))
                else:
                    writer.write(self._http_response(503, encode(body),
                                                     keep_alive=False))
                await writer.drain()
            except ConnectionError:
                pass
            writer.close()
            return
        self._conn_seq += 1
        key = self._conn_seq
        conn = _Connection(transport="ndjson" if is_ndjson else "http")
        self._connections[key] = conn
        self.registry.counter(
            "repro_serve_connections_total",
            help="connections accepted").inc(transport=conn.transport)
        try:
            if is_ndjson:
                await self._ndjson_session(first, reader, writer, conn)
            else:
                await self._http_session(first, reader, writer, conn)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            del self._connections[key]
            writer.close()

    # -- NDJSON transport ----------------------------------------------

    async def _ndjson_session(self, first: bytes,
                              reader: asyncio.StreamReader,
                              writer: asyncio.StreamWriter,
                              conn: _Connection) -> None:
        tasks: set[asyncio.Task] = set()
        line = first
        while line:
            stripped = line.strip()
            if stripped:
                task = self._ndjson_dispatch(stripped, writer, conn)
                if task is not None:
                    tasks.add(task)
                    task.add_done_callback(tasks.discard)
            try:
                line = await reader.readline()
            except (ConnectionError, asyncio.IncompleteReadError):
                break
            except ValueError:
                # The line overran the stream limit.  The stream is no
                # longer frame-aligned, so tell the client and close —
                # but as a structured protocol error, never a crash.
                await self._write(writer, conn,
                                  encode(error_response(
                                      E_BAD_REQUEST,
                                      "request line too long")))
                break
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def _ndjson_dispatch(self, raw: bytes, writer: asyncio.StreamWriter,
                         conn: _Connection) -> asyncio.Task | None:
        """Handle one request line; returns the task for adapt requests."""
        loop = asyncio.get_running_loop()
        started = loop.time()
        obj = None
        try:
            obj = decode_json(raw)
            request = parse_request(obj)
        except ProtocolError as exc:
            self._write_soon(writer, conn,
                            encode(error_response(
                                exc.code, exc.message,
                                request_id=_salvage_id(obj))))
            return None
        if isinstance(request, AdaptRequest):
            refusal = self._admission_error(conn, request.id)
            if refusal is not None:
                self._write_soon(writer, conn, encode(refusal))
                return None
            conn.inflight += 1
            self._task_started()
            return loop.create_task(
                self._ndjson_adapt(request, writer, conn, started))
        reply = self._simple_reply(request)
        self._observe(request.op, "ndjson", loop.time() - started)
        self._write_soon(writer, conn, encode(reply))
        return None

    def _simple_reply(self, request: "LinkRequest | SimpleRequest") -> dict:
        if isinstance(request, LinkRequest):
            return ok_response("link", self._link_payload(request),
                               request.id)
        if request.op == "health":
            return ok_response("health", self._health_payload(), request.id)
        self._refresh_gauges()
        return ok_response("metrics",
                           {"prometheus": render_prometheus(self.registry)},
                           request.id)

    async def _ndjson_adapt(self, request: AdaptRequest,
                            writer: asyncio.StreamWriter, conn: _Connection,
                            started: float) -> None:
        loop = asyncio.get_running_loop()
        try:
            payload = await self._adapt_payload(request)
            reply = ok_response("adapt", payload, request.id)
        except Exception as exc:  # noqa: BLE001 — reported to the client
            reply = error_response(E_INTERNAL, f"{type(exc).__name__}: {exc}",
                                   op="adapt", request_id=request.id)
        finally:
            conn.inflight -= 1
            self._task_finished()
        self._observe("adapt", "ndjson", loop.time() - started)
        await self._write(writer, conn, encode(reply))

    def _write_soon(self, writer: asyncio.StreamWriter, conn: _Connection,
                    data: bytes) -> None:
        asyncio.get_running_loop().create_task(
            self._write(writer, conn, data))

    async def _write(self, writer: asyncio.StreamWriter, conn: _Connection,
                     data: bytes) -> None:
        async with conn.lock:
            try:
                writer.write(data)
                await writer.drain()
            except ConnectionError:  # client went away mid-reply
                pass

    # -- HTTP transport -------------------------------------------------

    def _http_response(self, status: int, body: bytes,
                       content_type: str = JSON_CONTENT_TYPE,
                       keep_alive: bool = True) -> bytes:
        head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n")
        return head.encode() + body

    async def _http_session(self, first: bytes,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter,
                            conn: _Connection) -> None:
        line = first
        while line:
            parts = line.decode("latin-1").strip().split()
            if len(parts) != 3 or not parts[2].startswith("HTTP/"):
                body = encode(error_response(E_BAD_REQUEST,
                                             "malformed request line"))
                await self._write(writer, conn,
                                  self._http_response(400, body,
                                                      keep_alive=False))
                return
            method, path, _version = parts
            headers: dict[str, str] = {}
            while True:
                try:
                    header = await reader.readline()
                except ValueError:  # header line overran the stream limit
                    body = encode(error_response(E_BAD_REQUEST,
                                                 "header line too long"))
                    await self._write(writer, conn,
                                      self._http_response(400, body,
                                                          keep_alive=False))
                    return
                if header in (b"\r\n", b"\n", b""):
                    break
                name, _, value = header.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length", "0") or "0")
            except ValueError:
                length = -1
            if not 0 <= length <= _MAX_BODY_BYTES:
                detail = ("request body too large" if length > 0
                          else "invalid content-length")
                body = encode(error_response(E_BAD_REQUEST, detail))
                await self._write(writer, conn,
                                  self._http_response(400, body,
                                                      keep_alive=False))
                return
            body_bytes = await reader.readexactly(length) if length else b""
            keep_alive = headers.get("connection", "keep-alive") != "close"
            status, content_type, payload = await self._http_dispatch(
                method, path, body_bytes, conn)
            await self._write(writer, conn,
                              self._http_response(status, payload,
                                                  content_type, keep_alive))
            if not keep_alive:
                return
            line = await reader.readline()

    async def _http_dispatch(self, method: str, path: str, body: bytes,
                             conn: _Connection) -> tuple[int, str, bytes]:
        loop = asyncio.get_running_loop()
        started = loop.time()
        if path == "/healthz" and method == "GET":
            self._observe("health", "http", loop.time() - started)
            return 200, JSON_CONTENT_TYPE, encode(
                ok_response("health", self._health_payload()))
        if path == "/metrics" and method == "GET":
            self._refresh_gauges()
            self._observe("metrics", "http", loop.time() - started)
            return (200, PROMETHEUS_CONTENT_TYPE,
                    render_prometheus(self.registry).encode())
        if path == "/v1/adapt" and method == "POST":
            return await self._http_adapt(body, conn, started)
        if path == "/v1/link" and method in ("GET", "POST"):
            obj = None
            try:
                obj = decode_json(body) if body else {"v": PROTOCOL_VERSION,
                                                      "op": "link"}
                if isinstance(obj, dict):
                    obj.setdefault("op", "link")
                request = parse_request(obj)
                if not isinstance(request, LinkRequest):
                    raise ProtocolError(E_BAD_REQUEST,
                                        "body op must be 'link'")
            except ProtocolError as exc:
                return 400, JSON_CONTENT_TYPE, encode(
                    error_response(exc.code, exc.message, op="link",
                                   request_id=_salvage_id(obj)))
            payload = self._link_payload(request)
            self._observe("link", "http", loop.time() - started)
            return 200, JSON_CONTENT_TYPE, encode(
                ok_response("link", payload, request.id))
        if path in ("/healthz", "/metrics", "/v1/adapt", "/v1/link"):
            return 405, JSON_CONTENT_TYPE, encode(
                error_response(E_BAD_REQUEST,
                               f"{method} not supported on {path}"))
        return 404, JSON_CONTENT_TYPE, encode(
            error_response(E_BAD_REQUEST, f"unknown path {path}"))

    async def _http_adapt(self, body: bytes, conn: _Connection,
                          started: float) -> tuple[int, str, bytes]:
        loop = asyncio.get_running_loop()
        obj = None
        try:
            obj = decode_json(body)
            if isinstance(obj, dict):
                obj.setdefault("op", "adapt")
            request = parse_request(obj)
            if not isinstance(request, AdaptRequest):
                raise ProtocolError(E_BAD_REQUEST, "body op must be 'adapt'")
        except ProtocolError as exc:
            return HTTP_STATUS.get(exc.code, 400), JSON_CONTENT_TYPE, encode(
                error_response(exc.code, exc.message, op="adapt",
                               request_id=_salvage_id(obj)))
        refusal = self._admission_error(conn, request.id)
        if refusal is not None:
            return 503, JSON_CONTENT_TYPE, encode(refusal)
        conn.inflight += 1
        self._task_started()
        try:
            payload = await self._adapt_payload(request)
            reply = ok_response("adapt", payload, request.id)
            status = 200
        except Exception as exc:  # noqa: BLE001 — reported to the client
            reply = error_response(E_INTERNAL, f"{type(exc).__name__}: {exc}",
                                   op="adapt", request_id=request.id)
            status = 500
        finally:
            conn.inflight -= 1
            self._task_finished()
        self._observe("adapt", "http", loop.time() - started)
        return status, JSON_CONTENT_TYPE, encode(reply)


async def run_daemon(serve_config: ServeConfig | None = None,
                     config: SystemConfig | None = None,
                     registry: MetricsRegistry | None = None,
                     out=None) -> ControlPlane:
    """The CLI daemon body: start, announce, serve until SIGTERM, drain.

    Returns the (stopped) control plane so the caller can report final
    stats or export telemetry.
    """
    out = out if out is not None else sys.stdout
    plane = ControlPlane(serve_config, config, registry)
    shutdown = asyncio.Event()
    await plane.start()
    plane.install_signal_handlers(shutdown)
    print(f"repro serve: listening on {plane.host}:{plane.port} "
          f"(HTTP/1.1 + NDJSON)", file=out, flush=True)
    await plane.serve_until(shutdown)
    return plane
