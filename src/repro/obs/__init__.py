"""repro.obs — tracing, metrics, and structured logging.

Three independent pieces with one job: make the distributed runtime's
behaviour *visible* without changing it.

- :mod:`repro.obs.tracing` — nestable spans with host/pid/tid tags,
  remote propagation through task payloads and agent frames, Chrome
  trace-event export (Perfetto / ``chrome://tracing``).
- :mod:`repro.obs.metrics` — process-wide named counters / gauges /
  histograms (reservoir quantiles, labeled :meth:`scope` windows)
  behind ``session.metrics()`` and the agent STAT opcode.
- :mod:`repro.obs.profile` — EXPLAIN ANALYZE: :class:`QueryProfile`
  assembled per run from the span/metrics streams above.
- :mod:`repro.obs.expo` — Prometheus-style text exposition for the
  agent EXPO opcode and ``repro serve --expo-port``.
- :mod:`repro.obs.log` — the ``repro.*`` logger hierarchy with a
  key=value formatter, configured via ``--log-level`` / ``REPRO_LOG``.

See docs/observability.md for the span model, metric names, and usage.
"""

from .expo import CONTENT_TYPE_TEXT, prometheus_text, \
    start_http_exposition
from .log import KeyValueFormatter, configure_logging, get_logger, kv
from .metrics import (METRICS, Counter, Gauge, Histogram,
                      MetricsRegistry, MetricsScope, snapshot_delta)
from .profile import PROFILE_SCHEMA_VERSION, PhaseRow, QueryProfile, \
    build_profile
from .tracing import (NOOP_TRACER, NoopTracer, Span,
                      Tracer, chrome_trace_events, current_tracer,
                      set_thread_tracer, set_tracer, task_tracer,
                      trace_context, use_tracer, write_chrome_trace)

__all__ = [
    # tracing
    "Span", "Tracer", "NoopTracer", "NOOP_TRACER",
    "current_tracer", "set_tracer", "set_thread_tracer", "use_tracer",
    "trace_context", "task_tracer", "chrome_trace_events",
    "write_chrome_trace",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricsScope",
    "snapshot_delta", "METRICS",
    # profiling
    "QueryProfile", "PhaseRow", "build_profile",
    "PROFILE_SCHEMA_VERSION",
    # exposition
    "prometheus_text", "start_http_exposition", "CONTENT_TYPE_TEXT",
    # logging
    "get_logger", "kv", "configure_logging",
    "KeyValueFormatter",
]
