"""Critical-path extraction and latency attribution over span trees.

PR 5 made every operation a span tree; PR 8 added the gray tail. This
module answers the production question the raw tree cannot: **where did
the time go?** Two views, both deterministic:

* :func:`attribute` — partition the root span's elapsed virtual time
  into a closed category set. The algorithm is an exact interval
  partition: for each span, the sub-intervals covered by its (closed,
  clipped) children belong to those children, recursively; everything
  left over is the span's *self time* and is attributed to a category
  derived from its name and attributes. Because the partition is exact,
  the categories sum to the root's elapsed time by construction — the
  acceptance bar for this PR (±0.1% for float rounding).

* :func:`critical_path` — the *blocking chain*: starting at the root,
  repeatedly descend into the child that finished last (the one that
  determined the parent's end time). Through a retry loop this walks
  into the final attempt; through a hedged read it follows the leg that
  ended last (the winner — the loser's reply was discarded earlier).

Categories (:data:`CATEGORIES`):

``net.transit``
    self time of wire spans (``rpc:*``, ``send:*``, ``net.batch``,
    ``net.redeliver``, ``net.attempt``) — request/reply transit plus
    gray inflation,
    minus the portions carved out below.
``stall``
    the slice of a wire span's self time caused by a stalled
    destination (the span's ``stall`` attribute, stamped by the
    transport), plus the entire self time of spans that ended with
    ``outcome="deadline"`` — time spent waiting for a reply that the
    caller eventually abandoned.
``retry.backoff``
    self time of ``net.call`` / ``net.retry_wave`` spans — exactly the
    backoff sleeps between attempts (the attempts themselves are
    children).
``lock.wait``
    self time of ``txn.lock`` spans. The simulator's lock manager never
    blocks (refusal is immediate), so this is structurally ~0 here; the
    category exists so the model is closed over systems that do block.
``queue``
    self time of ``txn.admission`` spans plus the ``admission_wait``
    attribute carved from ``txn.negotiate`` — again structurally ~0
    under the shed-immediately admission policy, and kept for closure.
``handler``
    self time of application/protocol spans (``handle:*``, ``cal.*``,
    ``txn.*``, ``links.*``, ``chaos.*``, ...) — CPU-ish work, which in
    virtual time is usually 0 unless the handler slept.
``other``
    anything unrecognized, so the partition stays total.

Spans from *other traces* linked via an ``origin_trace`` attribute
(post-crash ``txn.replay`` trees) are surfaced by :func:`linked_roots`;
they are attributed as their own trees, never folded into the origin —
the replay ran after the original trace ended.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple, Sequence

from repro.util.trace import Span

#: the closed category set, in report order
CATEGORIES = (
    "net.transit",
    "handler",
    "retry.backoff",
    "lock.wait",
    "stall",
    "queue",
    "other",
)

#: span names whose self time is wire transit
_WIRE_NAMES = ("net.batch", "net.redeliver", "net.attempt")
#: span names whose self time is retry backoff sleep
_BACKOFF_NAMES = ("net.call", "net.retry_wave")
#: name prefixes whose self time is handler/protocol work
_HANDLER_PREFIXES = (
    "handle:", "cal.", "txn.", "links.", "chaos.", "kernel.", "dir.",
    "sched.", "health.", "shard.",
)


def category_of(span: Span) -> str:
    """Base attribution category for a span's self time.

    Carve-outs (``stall`` slices of wire spans, ``admission_wait``
    slices of negotiations) are applied by :func:`attribute` on top.
    """
    name = span.name
    if name.startswith(("rpc:", "send:")) or name in _WIRE_NAMES:
        return "net.transit"
    if name in _BACKOFF_NAMES:
        return "retry.backoff"
    if name == "txn.lock":
        return "lock.wait"
    if name == "txn.admission":
        return "queue"
    if name.startswith(_HANDLER_PREFIXES):
        return "handler"
    return "other"


def index_spans(
    spans: Iterable[Span],
) -> tuple[dict[str, Span], dict[str, list[Span]]]:
    """``(by_id, children)`` maps over the closed spans of ``spans``.

    Open spans (``end is None``) are excluded: they cannot own time.
    Children lists preserve record order (deterministic input order).
    """
    by_id: dict[str, Span] = {}
    children: dict[str, list[Span]] = {}
    for span in spans:
        if span.end is None:
            continue
        by_id[span.span_id] = span
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    return by_id, children


def find_root(spans: Sequence[Span], trace_id: str) -> Span:
    """The root span of ``trace_id`` (raises ``ValueError`` if absent)."""
    for span in spans:
        if span.trace_id == trace_id and span.parent_id is None:
            return span
    raise ValueError(f"no root span for trace {trace_id!r}")


def linked_roots(spans: Sequence[Span], trace_id: str) -> list[Span]:
    """Roots of *other* traces that link back to ``trace_id``.

    Post-crash recovery opens fresh root spans (``txn.recover`` /
    ``txn.replay``) stamped with ``origin_trace=<original trace id>``;
    those trees are causally ours but temporally disjoint.
    """
    return [
        span
        for span in spans
        if span.parent_id is None
        and span.trace_id != trace_id
        and span.attrs.get("origin_trace") == trace_id
    ]


def self_times(spans: Sequence[Span], root: Span) -> dict[str, float]:
    """Exact partition of ``root``'s interval into per-span self time.

    Every sub-interval of ``[root.start, root.end]`` is owned by exactly
    one span: the deepest span covering it. Children are clipped to
    their parent's (remaining) window, so asynchronous stragglers that
    outlive their parent (``net.redeliver`` re-entering a closed trace)
    contribute nothing — their time is not part of the root's elapsed.
    """
    if root.end is None:
        raise ValueError(f"root span {root.span_id} is still open")
    by_id, children = index_spans(spans)
    acc: dict[str, float] = {}
    stack: list[tuple[Span, float, float]] = [(root, root.start, root.end)]
    while stack:
        span, lo, hi = stack.pop()
        if hi <= lo:
            continue
        cur = hi
        kids = children.get(span.span_id)
        if kids:
            # Backward scan: walk children by decreasing end time, carving
            # each one's (clipped) interval out of the remaining window.
            # The gap between a child's end and the current bound is the
            # parent's own time.
            for child in sorted(
                kids, key=lambda s: (s.end, s.start, s.span_id), reverse=True
            ):
                if cur <= lo:
                    break
                end = min(child.end, cur)  # type: ignore[type-var]
                start = max(child.start, lo)
                if end <= start:
                    continue  # outside the remaining window
                if end < cur:
                    acc[span.span_id] = acc.get(span.span_id, 0.0) + (cur - end)
                stack.append((child, start, end))
                cur = start
        if cur > lo:
            acc[span.span_id] = acc.get(span.span_id, 0.0) + (cur - lo)
    return acc


@dataclass
class Attribution:
    """Where one root span's elapsed time went, by category."""

    trace_id: str
    root_id: str
    root_name: str
    elapsed: float
    categories: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.categories.values())

    @property
    def coverage(self) -> float:
        """Attributed fraction of the root's elapsed time (~1.0)."""
        return self.total / self.elapsed if self.elapsed > 0 else 1.0

    def shares(self) -> dict[str, float]:
        """Per-category fraction of elapsed time (0.0 on a 0-length root)."""
        if self.elapsed <= 0:
            return {cat: 0.0 for cat in CATEGORIES}
        return {cat: self.categories.get(cat, 0.0) / self.elapsed for cat in CATEGORIES}

    def to_dict(self) -> dict[str, Any]:
        """JSON-able, deterministically ordered report."""
        return {
            "trace_id": self.trace_id,
            "root_id": self.root_id,
            "root_name": self.root_name,
            "elapsed": round(self.elapsed, 9),
            "categories": {
                cat: round(self.categories.get(cat, 0.0), 9) for cat in CATEGORIES
            },
            "coverage": round(self.coverage, 6),
        }


def attribute(spans: Sequence[Span], root: Span) -> Attribution:
    """Attribute every second of ``root``'s elapsed time to a category."""
    acc = self_times(spans, root)
    by_id, _ = index_spans(spans)
    categories = {cat: 0.0 for cat in CATEGORIES}
    for span_id, owned in acc.items():
        span = by_id[span_id]
        cat = category_of(span)
        if span.attrs.get("outcome") == "deadline":
            # The caller sat out its whole budget waiting on this span:
            # the wait is a stall whatever the wire would have charged.
            categories["stall"] += owned
            continue
        if cat == "net.transit":
            stall = float(span.attrs.get("stall", 0.0) or 0.0)
            carve = min(owned, stall)
            if carve > 0.0:
                categories["stall"] += carve
                owned -= carve
        elif span.name == "txn.negotiate":
            wait = float(span.attrs.get("admission_wait", 0.0) or 0.0)
            carve = min(owned, wait)
            if carve > 0.0:
                categories["queue"] += carve
                owned -= carve
        categories[cat] += owned
    return Attribution(
        trace_id=root.trace_id,
        root_id=root.span_id,
        root_name=root.name,
        elapsed=(root.end or root.start) - root.start,
        categories=categories,
    )


def attribute_trace(spans: Sequence[Span], trace_id: str) -> Attribution:
    """:func:`attribute` rooted at the trace's root span."""
    return attribute(spans, find_root(spans, trace_id))


class AttributionReport(NamedTuple):
    """What ``obs --attribute`` exports and prints."""

    #: the exported JSON document (rounded)
    doc: dict[str, Any]
    #: per-category seconds summed over the roots
    totals: dict[str, float]
    #: the roots' summed elapsed seconds
    elapsed: float
    #: the lowest coverage of a root that took time
    worst_coverage: float


def attribution_report(spans: Sequence[Span], label: str) -> AttributionReport:
    """Attribute every closed root, ordered by ``(trace_id, span_id)``.

    Each root's entry lists the roots its trace links to; the document's
    ``totals`` sum the categories over the roots and its ``coverage`` is
    their share of the summed elapsed time.
    """
    roots = sorted(
        (s for s in spans if s.parent_id is None and s.end is not None),
        key=lambda s: (s.trace_id, s.span_id),
    )
    reports = []
    totals = {cat: 0.0 for cat in CATEGORIES}
    elapsed_total = 0.0
    worst_coverage = 1.0
    for root in roots:
        attr = attribute(spans, root)
        entry = attr.to_dict()
        links = linked_roots(spans, root.trace_id)
        if links:
            entry["linked"] = [attribute(spans, link).to_dict() for link in links]
        reports.append(entry)
        for cat in CATEGORIES:
            totals[cat] += attr.categories.get(cat, 0.0)
        elapsed_total += attr.elapsed
        if attr.elapsed > 0 and attr.coverage < worst_coverage:
            worst_coverage = attr.coverage
    doc = {
        "label": label,
        "roots": reports,
        "totals": {cat: round(totals[cat], 9) for cat in CATEGORIES},
        "elapsed_total": round(elapsed_total, 9),
        "coverage": round(
            sum(totals.values()) / elapsed_total if elapsed_total else 1.0, 6
        ),
    }
    return AttributionReport(doc, totals, elapsed_total, worst_coverage)


@dataclass(frozen=True)
class PathStep:
    """One hop of the blocking chain."""

    span_id: str
    name: str
    node: str
    start: float
    end: float
    category: str
    depth: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def critical_path(spans: Sequence[Span], root: Span) -> list[PathStep]:
    """The blocking chain from ``root`` down to the span that ended last.

    At every level, descend into the closed child with the latest end
    time inside the parent's interval — the child that determined when
    the parent could finish. Retry loops resolve to the final attempt;
    hedged fan-outs resolve to the leg that ended last (ties break to
    the later-started, then later-recorded leg, i.e. the one that ran
    closest to the finish).
    """
    if root.end is None:
        raise ValueError(f"root span {root.span_id} is still open")
    _, children = index_spans(spans)
    path: list[PathStep] = []
    span, depth = root, 0
    while True:
        path.append(
            PathStep(
                span_id=span.span_id,
                name=span.name,
                node=span.node,
                start=span.start,
                end=span.end,  # type: ignore[arg-type]
                category=category_of(span),
                depth=depth,
            )
        )
        kids = [
            child
            for child in children.get(span.span_id, ())
            if child.start < span.end  # type: ignore[operator]
        ]
        if not kids:
            return path
        span = max(kids, key=lambda s: (s.end, s.start, s.span_id))
        depth += 1


def render_path(path: Sequence[PathStep]) -> str:
    """One hop per line: indent, name, node, interval, category."""
    lines = []
    for step in path:
        indent = "  " * step.depth
        lines.append(
            f"{indent}{step.name} [{step.span_id}] node={step.node} "
            f"{step.start:.6f}..{step.end:.6f} "
            f"({step.duration * 1e3:.3f} ms) {step.category}"
        )
    return "\n".join(lines)


def render_attribution(attr: Attribution) -> str:
    """Deterministic text table for one attribution."""
    lines = [
        f"trace {attr.trace_id} root {attr.root_name} [{attr.root_id}] "
        f"elapsed {attr.elapsed * 1e3:.3f} ms "
        f"(coverage {attr.coverage * 100:.2f}%)"
    ]
    shares = attr.shares()
    for cat in CATEGORIES:
        value = attr.categories.get(cat, 0.0)
        lines.append(
            f"  {cat:<14} {value * 1e3:>12.3f} ms  {shares[cat] * 100:>6.2f}%"
        )
    return "\n".join(lines)
