"""Unified telemetry: metrics, spans, run manifests, exporters.

``repro.obs`` is the observability subsystem threaded through the
whole stack — the Monte-Carlo replay, the waveform path, the
DES kernel, the MAC, the sweep runner and every experiment harness.
It is zero-dependency and **off by default**: without an active
session, :func:`metrics` returns a shared null registry and
:func:`span` a shared no-op context manager, so the permanent
instrumentation costs one attribute call in the hot loops.

Quickstart::

    from repro.obs import telemetry_session, write_telemetry_jsonl
    from repro.experiments import run_experiment

    with telemetry_session() as session:
        result = run_experiment("fig16")
    write_telemetry_jsonl(session, "telemetry.jsonl")
    print(result.manifest.summary())        # provenance of the figure

Determinism contract: telemetry only *observes*.  Wall-clock values
live exclusively in spans, manifests and exported telemetry files —
never in result values, journals, or determinism digests — so
enabling a session cannot change any golden-seed artefact.
"""

from .export import (
    PROMETHEUS_CONTENT_TYPE,
    read_telemetry_jsonl,
    render_prometheus,
    render_text,
    telemetry_rows,
    write_telemetry_jsonl,
)
from .manifest import RunManifest, config_digest, write_manifest
from .metrics import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    merge,
)
from .profile import ProfileEntry, ProfileSession, aggregate_spans
from .runtime import (
    Telemetry,
    active,
    enabled,
    metrics,
    record_manifest,
    span,
    telemetry_session,
)
from .spans import NULL_SPAN, SpanRecord, SpanRecorder, active_span, span_tree
from .trace import (
    chrome_trace,
    trace_events,
    validate_trace,
    write_chrome_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NullRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "ProfileEntry",
    "ProfileSession",
    "RunManifest",
    "SpanRecord",
    "SpanRecorder",
    "Telemetry",
    "active",
    "active_span",
    "aggregate_spans",
    "chrome_trace",
    "config_digest",
    "enabled",
    "merge",
    "metrics",
    "read_telemetry_jsonl",
    "record_manifest",
    "render_prometheus",
    "render_text",
    "span",
    "span_tree",
    "telemetry_rows",
    "telemetry_session",
    "trace_events",
    "validate_trace",
    "write_chrome_trace",
    "write_manifest",
    "write_telemetry_jsonl",
]
