"""``repro.obs`` — virtual-time observability for the serving stack.

Tracing, metrics, and export for :mod:`repro.serve`: per-request
lifecycle spans and per-replica step spans recorded on the simulation's
own deterministic clock (:mod:`repro.obs.trace`), a counter / gauge /
histogram registry with virtual-time series (:mod:`repro.obs.metrics`),
Perfetto-loadable Chrome trace JSON plus JSONL logs and timeline
reports (:mod:`repro.obs.export`). A tracer's ``capacity`` caps it to a
flight-recorder ring, so million-request runs trace their tail at fixed
memory.

Everything hangs off two nullable handles — ``tracer=`` and
``metrics=`` on the engine/cluster — whose off-path is a single ``if``:
an uninstrumented run is bit-identical to the seed, and a traced run's
:class:`~repro.serve.cluster.FleetResult` fingerprint matches the
untraced one exactly.

>>> from repro.obs import Tracer, chrome_trace, validate_chrome_trace
>>> t = Tracer()
>>> t.emit(0.0, 0, "arrive", "r0", (8, 2))
>>> validate_chrome_trace(chrome_trace(t.events()))["n_events"]
3
"""

from .export import (
    Span,
    chrome_trace,
    lifecycle_spans,
    timeline_report,
    validate_chrome_trace,
    write_chrome_trace,
    write_event_log,
    write_metrics_csv,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import KIND_ORDER, TraceEvent, Tracer, event_key, merge_events

__all__ = [
    "Tracer",
    "TraceEvent",
    "KIND_ORDER",
    "event_key",
    "merge_events",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "lifecycle_spans",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "write_event_log",
    "timeline_report",
    "write_metrics_csv",
]
