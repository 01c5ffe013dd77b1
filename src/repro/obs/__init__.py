"""Observability for the serving stack: tracing and metrics.

Extension beyond the paper (see DESIGN.md E23): the paper's per-stage
analysis is reproduced *as telemetry* -- a span tracer with per-stage /
per-worker timings and a metrics registry (plan-cache, arena, backend
mix, fallbacks, latency percentiles).
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "Span",
    "Tracer",
]
