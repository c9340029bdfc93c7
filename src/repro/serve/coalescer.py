"""The adapt seam: every admitted request answered on arrival.

The designer composes each quantized dimming bucket
(:meth:`~repro.core.AmppmDesigner.memo_key`) once per process and
answers every later request of that bucket from its memo, so requests
for one bucket already share one composition, whichever arrives first.
Nothing is left to batch: :meth:`AdaptCoalescer.submit` designs at
once and never waits on a timer.

``design_fn`` is injected, so the engine is swappable for a counting
fake in tests; :class:`AdaptCoalescer` never inspects the results it
returns.
"""

from __future__ import annotations

from typing import Any, Callable

from ..obs.metrics import MetricsRegistry, NullRegistry


class AdaptCoalescer:
    """Answers each adapt request from the shared designer on arrival.

    It no longer coalesces: the designer's memo dedups every bucket.
    The name and the awaitable :meth:`submit` stay because both
    transports ``await`` it and the benchmark harness wraps it as the
    ``serve.coalescer`` layer.
    """

    def __init__(self, design_fn: Callable[[float], Any], *,
                 registry: MetricsRegistry | NullRegistry | None = None):
        self._design_fn = design_fn
        self._registry = registry if registry is not None else NullRegistry()
        self.requests = 0

    async def submit(self, dimming: float) -> Any:
        """One request's design, at once; designer exceptions propagate."""
        self.requests += 1
        self._registry.counter("repro_serve_adapt_requests_total",
                               help="adapt requests submitted").inc()
        self._registry.counter("repro_serve_designer_calls_total",
                               help="designer invocations").inc()
        return self._design_fn(dimming)
