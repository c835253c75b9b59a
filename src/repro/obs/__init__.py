"""repro.obs — causal observability over the simulated deployment.

The pieces (DESIGN.md §5.10, §5.14):

* a span model in :mod:`repro.util.trace` (re-exported here) giving every
  top-level operation a ``trace_id`` that propagates across simulated
  RPC hops;
* :class:`MetricsRegistry` — per-node, per-subsystem counters, gauges
  and windowed quantile digests (with exact count, sum, min and max)
  that absorb the ad-hoc counters scattered through the stack
  (``NetworkStats`` is a view over it);
* deterministic exporters (:mod:`repro.obs.export`) — Chrome
  ``trace_event`` JSON loadable in Perfetto, and a plain-text span tree —
  driven by the ``python -m repro obs`` CLI;
* the analysis layer — :mod:`repro.obs.critical` (critical-path
  extraction + latency attribution), :mod:`repro.obs.digest`
  (deterministic mergeable quantile sketches), :mod:`repro.obs.slo`
  (declarative per-operation objectives evaluated per chaos episode).
"""

from repro.obs.critical import (
    CATEGORIES,
    Attribution,
    attribute,
    attribute_trace,
    attribution_report,
    critical_path,
    find_root,
    linked_roots,
    render_attribution,
    render_path,
)
from repro.obs.digest import QuantileDigest
from repro.obs.export import (
    chrome_trace,
    render_span_tree,
    validate_chrome_trace,
    write_timeline,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import DEFAULT_SLOS, SloResult, SloSpec, evaluate, render_report
from repro.util.trace import NULL_SPAN, Span, Tracer

__all__ = [
    "MetricsRegistry",
    "chrome_trace",
    "render_span_tree",
    "validate_chrome_trace",
    "write_timeline",
    "Span",
    "Tracer",
    "NULL_SPAN",
    "CATEGORIES",
    "Attribution",
    "attribute",
    "attribution_report",
    "attribute_trace",
    "critical_path",
    "find_root",
    "linked_roots",
    "render_attribution",
    "render_path",
    "QuantileDigest",
    "DEFAULT_SLOS",
    "SloSpec",
    "SloResult",
    "evaluate",
    "render_report",
]
