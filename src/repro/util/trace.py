"""Structured execution tracing.

Two layers share this module:

* **Step events** (PR 0): Figure 4 of the paper is a UML activity diagram
  showing the exact step order of a negotiation or link execution
  (mark/lock the activator, mark the targets, lock those that succeed,
  change, unlock).  To *reproduce a figure that is a diagram*, we record
  a machine-checkable trace of those steps and assert the ordering in
  tests (``tests/kernel/test_figure4_trace.py``).

* **Spans** (repro.obs): every top-level operation opens a root
  :class:`Span` with a fresh ``trace_id``; the transport stamps outgoing
  requests with ``(trace_id, parent_span_id)`` and the remote listener
  re-enters that context, so handler work, retries, dedup verdicts and
  recovery replay land as children of the call that caused them — across
  simulated nodes.  Spans carry virtual-clock start/end times and a flat
  attribute dict; exporters in :mod:`repro.obs.export` turn them into
  Perfetto-loadable timelines.

The span stack is push/pop symmetric regardless of ``enabled`` or
sampling: disabled or unsampled operations push :data:`NULL_SPAN`, so
context managers stay balanced and suppressed roots suppress their
children (and their trace stamps) for free.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from repro.util.clock import VirtualClock

#: steps shown from each end of a trace dump before truncating
_DUMP_LIMIT = 40


@dataclass(frozen=True)
class TraceEvent:
    """One step of a traced protocol execution.

    Attributes:
        t: virtual time at which the step happened.
        actor: entity performing the step (e.g. ``"A"`` or a node id).
        step: machine-readable step name (e.g. ``"mark"``, ``"lock"``).
        detail: free-form context (slot, link id, outcome ...).
        span_id: id of the span open when the step was recorded, if any.
    """

    t: float
    actor: str
    step: str
    detail: dict[str, Any] = field(default_factory=dict)
    span_id: str | None = None


@dataclass
class Span:
    """One timed unit of work inside a trace.

    ``start``/``end`` are virtual-clock seconds; ``end`` is ``None``
    while the span is open.  ``parent_id`` may name a span recorded on a
    *different* node — that is the point: causality survives the hop.
    """

    span_id: str
    trace_id: str
    parent_id: str | None
    name: str
    node: str
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    status: str = "ok"

    def set(self, **attrs: Any) -> None:
        """Attach structured attributes to the span."""
        self.attrs.update(attrs)


class _NullSpan:
    """Stand-in pushed when tracing is off or the root was sampled out."""

    span_id = None
    trace_id = None
    parent_id = None
    name = "null"
    node = ""
    start = 0.0
    end = 0.0
    attrs: dict[str, Any] = {}
    status = "ok"

    def set(self, **attrs: Any) -> None:  # pragma: no cover - trivial
        pass


#: shared no-op span; ``span.set(...)`` is always safe on it
NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable ``with``-target yielding :data:`NULL_SPAN`.

    The hot path enters this instead of ``contextlib`` generator
    machinery when tracing is off: no generator frame, no stack push,
    no per-call allocation. It is stateless, so one shared instance
    serves every call site.
    """

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


#: precomputed no-op span context shared by every suppressed maybe_span
NULL_SPAN_CONTEXT = _NullSpanContext()


@dataclass(frozen=True)
class _RemoteRef:
    """Stack frame for a context activated from a message header.

    The parent span lives on another node's stack (or has already
    closed); we only know its ids.
    """

    trace_id: str
    span_id: str


class Tracer:
    """Append-only recorder of :class:`TraceEvent` and :class:`Span` items."""

    def __init__(self, clock: VirtualClock | None = None, *, sample: int = 1):
        self._clock = clock or VirtualClock()
        self._events: list[TraceEvent] = []
        self._spans: list[Span] = []
        self._stack: list[Span | _NullSpan | _RemoteRef] = []
        self._trace_seq = 0
        self._span_seq = 0
        self._root_seq = 0
        self.enabled = True
        #: record every ``sample``-th root trace (1 = all); unsampled
        #: roots are NULL so their entire subtree costs nothing
        self.sample = sample

    # -- step events (Figure 4 layer) ------------------------------------

    def record(self, actor: str, step: str, **detail: Any) -> None:
        """Append one event (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        self._events.append(
            TraceEvent(self._clock.now(), actor, step, detail, self.current_span_id())
        )

    def events(self) -> list[TraceEvent]:
        """All recorded events, oldest first."""
        return list(self._events)

    def steps(self) -> list[tuple[str, str]]:
        """Compact ``(actor, step)`` view of the trace."""
        return [(e.actor, e.step) for e in self._events]

    def filter(self, *, actor: str | None = None, step: str | None = None) -> list[TraceEvent]:
        """Events matching the given actor and/or step name."""
        out = []
        for e in self._events:
            if actor is not None and e.actor != actor:
                continue
            if step is not None and e.step != step:
                continue
            out.append(e)
        return out

    def clear(self) -> None:
        """Drop all recorded events and spans (open spans stay tracked)."""
        self._events.clear()
        self._spans.clear()

    def assert_order(self, expected: Iterable[tuple[str, str]]) -> None:
        """Check that ``expected`` (actor, step) pairs appear in order.

        The expected sequence must be a subsequence of the trace (other
        events may be interleaved). Raises ``AssertionError`` otherwise —
        used by the Figure 4 reproduction test.  Large traces are
        truncated in the error message; the index of the last matched
        step is included so the failure points at where matching stalled.
        """
        steps = self.steps()
        pos = 0
        last_match = -1
        for want in expected:
            while pos < len(steps):
                if steps[pos] == want:
                    last_match = pos
                    pos += 1
                    break
                pos += 1
            else:
                raise AssertionError(
                    f"trace missing step {want!r} (in order); "
                    f"last matched step at index {last_match}; "
                    f"trace={self._dump(steps)}"
                )

    @staticmethod
    def _dump(steps: list[tuple[str, str]]) -> str:
        """Render ``steps`` for an error message, truncating large traces."""
        if len(steps) <= _DUMP_LIMIT:
            return repr(steps)
        head = _DUMP_LIMIT // 2
        tail = _DUMP_LIMIT - head
        shown = ", ".join(repr(s) for s in steps[:head])
        ending = ", ".join(repr(s) for s in steps[-tail:])
        omitted = len(steps) - head - tail
        return f"[{shown}, ... {omitted} steps omitted ..., {ending}]"

    # -- span layer -------------------------------------------------------

    def start_span(self, name: str, node: str = "", **attrs: Any) -> Span | _NullSpan:
        """Open a span under the current context and push it on the stack.

        Always pushes exactly one frame (a real span or ``NULL_SPAN``) so
        a matching :meth:`end_span` keeps the stack balanced even if
        ``enabled`` flips mid-operation.
        """
        span = self._open(name, node, attrs)
        self._stack.append(span)
        return span

    def end_span(self, span: Span | _NullSpan | None = None, *, error: str | None = None) -> None:
        """Close the top-of-stack span (checked against ``span`` if given)."""
        if not self._stack:
            return
        top = self._stack.pop()
        if isinstance(top, Span):
            top.end = self._clock.now()
            if error is not None:
                top.status = error

    @contextmanager
    def span(self, name: str, node: str = "", **attrs: Any) -> Iterator[Span | _NullSpan]:
        """Context-managed span; exceptions mark the span's status."""
        span = self.start_span(name, node, **attrs)
        try:
            yield span
        except BaseException as exc:
            self.end_span(span, error=type(exc).__name__)
            raise
        else:
            self.end_span(span)

    def _open(self, name: str, node: str, attrs: dict[str, Any]) -> Span | _NullSpan:
        if not self.enabled:
            return NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            # root span: apply sampling
            self._root_seq += 1
            if self.sample > 1 and (self._root_seq - 1) % self.sample:
                return NULL_SPAN
            self._trace_seq += 1
            trace_id = f"t{self._trace_seq:04d}"
            parent_id = None
        elif isinstance(parent, _NullSpan):
            return NULL_SPAN
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        self._span_seq += 1
        span = Span(
            span_id=f"s{self._span_seq:06d}",
            trace_id=trace_id,
            parent_id=parent_id,
            name=name,
            node=node,
            start=self._clock.now(),
            attrs=dict(attrs),
        )
        self._spans.append(span)
        return span

    def current_context(self) -> tuple[str, str] | None:
        """``(trace_id, span_id)`` of the innermost live frame, if any."""
        if not self._stack:
            return None
        top = self._stack[-1]
        if isinstance(top, _NullSpan):
            return None
        return (top.trace_id, top.span_id)

    def current_span_id(self) -> str | None:
        ctx = self.current_context()
        return ctx[1] if ctx else None

    @contextmanager
    def activate(self, ctx: tuple[str, str] | None) -> Iterator[None]:
        """Re-enter a remote context carried in a message header.

        Spans opened inside become children of the remote caller's span.
        ``ctx=None`` (unstamped message, tracing off at the sender) is a
        passthrough — work nests under whatever is already open here.
        """
        if ctx is None:
            yield
            return
        self._stack.append(_RemoteRef(ctx[0], ctx[1]))
        try:
            yield
        finally:
            self._stack.pop()

    @contextmanager
    def detached(self) -> Iterator[None]:
        """Run the block with an empty span stack.

        Scheduler-fired callbacks (lease sweeps, fault events, delayed
        redeliveries) must become *root* spans, not children of whatever
        span happened to be open while the clock advanced.
        """
        saved, self._stack = self._stack, []
        try:
            yield
        finally:
            self._stack = saved

    @contextmanager
    def deferring(self, ctx: tuple[str, str] | None) -> Iterator[None]:
        """Mark every span the block opens directly under ``ctx`` as deferred.

        For late redeliveries: a handler re-enters the context stamped on
        the message, whose span closed long before the duplicate arrived,
        so its spans cannot lie inside that span's interval. Only the
        ``deferred`` attribute is added; span ids and parents stay as they
        are.
        """
        start = len(self._spans)
        try:
            yield
        finally:
            if ctx is not None:
                for span in self._spans[start:]:
                    if span.parent_id == ctx[1]:
                        span.attrs["deferred"] = True

    def spans(self) -> list[Span]:
        """All recorded spans, in open order."""
        return list(self._spans)


def maybe_span(tracer: Tracer | None, name: str, node: str = "", **attrs: Any):
    """``tracer.span(...)`` that tolerates ``tracer=None``.

    When the tracer is absent *or disabled* this returns the shared
    :data:`NULL_SPAN_CONTEXT` and never touches the span stack — a
    disabled-tracing run pays one attribute check per call site instead
    of two context-manager frames. (``Tracer.span`` itself still pushes
    balanced NULL frames when called directly on a disabled tracer; only
    this helper short-circuits, and a tracer re-enabled mid-operation
    simply starts a fresh root at the next call site.)
    """
    if tracer is None or not tracer.enabled:
        return NULL_SPAN_CONTEXT
    return tracer.span(name, node, **attrs)
