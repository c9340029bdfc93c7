"""The always-on control plane: AMPPM adaptation served at fleet scale.

The paper's transmitter adapts when *its* lighting controller moves the
setpoint; a deployment has hundreds of luminaires asking one control
plane.  ``repro.serve`` is that daemon, stdlib-only on top of asyncio:

* :mod:`~repro.serve.protocol` — the versioned JSON wire protocol
  (``adapt`` / ``link`` / ``health`` / ``metrics``) shared by both
  transports, with strict validation and structured errors;
* :mod:`~repro.serve.coalescer` — the adapt seam: each admitted
  ``adapt`` request is answered on arrival from the shared designer,
  whose memo composes each quantized dimming bucket once;
* :mod:`~repro.serve.server` — the dual-protocol listener (minimal
  HTTP/1.1 + persistent NDJSON) with bounded queues, overload
  shedding, live ``repro.obs`` metrics and graceful SIGTERM drain;
* :mod:`~repro.serve.loadgen` — a seeded synthetic client fleet for
  the tests and ``repro serve --load``.

Start one from the CLI with ``repro serve`` (add ``--load`` to point
the synthetic fleet at it and exit with a report).
"""

from .coalescer import AdaptCoalescer
from .loadgen import LoadProfile, LoadReport, run_loadgen
from .protocol import (
    HTTP_STATUS,
    LINK_OUTCOMES,
    OPS,
    PROTOCOL_VERSION,
    AdaptRequest,
    LinkRequest,
    ProtocolError,
    SimpleRequest,
    adapt_result,
    encode,
    error_response,
    ok_response,
    parse_line,
    parse_request,
)
from .server import (
    LATENCY_BUCKETS,
    AdaptEngine,
    ControlPlane,
    ServeConfig,
    link_snapshot_metrics,
    run_daemon,
)

__all__ = [
    "AdaptCoalescer",
    "AdaptEngine",
    "AdaptRequest",
    "ControlPlane",
    "HTTP_STATUS",
    "LATENCY_BUCKETS",
    "LINK_OUTCOMES",
    "LinkRequest",
    "LoadProfile",
    "LoadReport",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeConfig",
    "SimpleRequest",
    "adapt_result",
    "encode",
    "error_response",
    "link_snapshot_metrics",
    "ok_response",
    "parse_line",
    "parse_request",
    "run_daemon",
    "run_loadgen",
]
