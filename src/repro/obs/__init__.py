"""Observability: tracing, metrics export, structured logs.

``repro.obs`` is the measurement substrate for the platform.  It adds a
request-scoped view (hierarchical :class:`Tracer` spans threaded through
the device → cloud → storage hot paths), an export path for the existing
:class:`~repro.core.metrics.MetricsRegistry` (Prometheus text + JSON
snapshots), and a bounded span-aware :class:`LogSink`.

Conventions:

* every instrumented component accepts ``tracer: Tracer | None`` next to
  ``metrics: MetricsRegistry | None`` and defaults to a fresh
  :class:`NoopTracer`, so un-traced runs pay (almost) nothing;
* to trace end-to-end, construct one enabled :class:`Tracer` and inject
  it at the top (e.g. ``MetaversePlatform(tracer=tracer)``) — the facade
  hands it down to the broker, transaction manager, buffer pool, and
  stores, and adopts registered gateways that kept their default.
"""

from .export import (
    render_json,
    render_prometheus,
    sanitize_metric_name,
    snapshot_dict,
    write_snapshot,
)
from .logsink import LogRecord, LogSink
from .tracing import NoopTracer, Span, Tracer

__all__ = [
    "LogRecord",
    "LogSink",
    "NoopTracer",
    "Span",
    "Tracer",
    "render_json",
    "render_prometheus",
    "sanitize_metric_name",
    "snapshot_dict",
    "write_snapshot",
]
