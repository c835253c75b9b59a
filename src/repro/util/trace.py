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
scopes stay balanced and suppressed roots suppress their children (and
their trace stamps) for free.

Every span layer entry point returns a small slotted scope object
rather than a generator context manager: :meth:`Tracer.span` opens and
pushes the span when called and hands back the tracer's one reusable
scope, whose ``__exit__`` pops and closes the top frame; ``activate``,
``detached`` and ``deferring`` build scopes that act only at
``__enter__`` and ``__exit__``, so they may be built before they are
entered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

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


@dataclass(slots=True)
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

    The hot path enters this instead of a span scope when tracing is
    off: no stack push and no per-call allocation. It is stateless, so
    one shared instance serves every call site.
    """

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: object) -> bool:
        return False


#: precomputed no-op span context shared by every suppressed maybe_span
NULL_SPAN_CONTEXT = _NullSpanContext()


class _SpanScope:
    """``with``-target returned by :meth:`Tracer.span`.

    The span is already open and on top of the stack when the scope is
    returned; ``__enter__`` hands that frame to the block. ``__exit__``
    pops the top frame, stamps its ``end`` and, if the block raised,
    sets its ``status`` to the exception's class name. The scope holds
    no per-span state, so each tracer reuses one instance for every
    span it opens.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __enter__(self) -> Span | _NullSpan:
        return self._tracer._stack[-1]

    def __exit__(self, exc_type: type[BaseException] | None, exc: object, tb: object) -> bool:
        self._tracer._close(None if exc_type is None else exc_type.__name__)
        return False


class _Activate:
    """Scope of :meth:`Tracer.activate`, and the stack frame it pushes.

    As a frame it stands for a span recorded elsewhere (on another
    node's stack, or already closed) of which only the ids are known.
    It pushes itself on entry and pops on exit; with ``ctx=None`` it
    does neither.
    """

    __slots__ = ("_tracer", "_ctx", "trace_id", "span_id")

    def __init__(self, tracer: Tracer, ctx: tuple[str, str] | None):
        self._tracer = tracer
        self._ctx = ctx
        if ctx is not None:
            self.trace_id = ctx[0]
            self.span_id = ctx[1]

    def __enter__(self) -> None:
        if self._ctx is not None:
            self._tracer._stack.append(self)

    def __exit__(self, *exc: object) -> bool:
        if self._ctx is not None:
            self._tracer._stack.pop()
        return False


class _Detached:
    """Scope of :meth:`Tracer.detached`: swaps in an empty stack on entry."""

    __slots__ = ("_tracer", "_saved")

    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def __enter__(self) -> None:
        tracer = self._tracer
        self._saved, tracer._stack = tracer._stack, []

    def __exit__(self, *exc: object) -> bool:
        self._tracer._stack = self._saved
        return False


class _Deferring:
    """Scope of :meth:`Tracer.deferring`: notes the span count on entry
    and marks the block's direct children of ``ctx`` on exit."""

    __slots__ = ("_tracer", "_ctx", "_start")

    def __init__(self, tracer: Tracer, ctx: tuple[str, str] | None):
        self._tracer = tracer
        self._ctx = ctx

    def __enter__(self) -> None:
        self._start = len(self._tracer._spans)

    def __exit__(self, *exc: object) -> bool:
        ctx = self._ctx
        if ctx is not None:
            parent_id = ctx[1]
            for span in self._tracer._spans[self._start :]:
                if span.parent_id == parent_id:
                    span.attrs["deferred"] = True
        return False


class Tracer:
    """Append-only recorder of :class:`TraceEvent` and :class:`Span` items."""

    def __init__(self, clock: VirtualClock | None = None, *, sample: int = 1):
        self._clock = clock or VirtualClock()
        self._events: list[TraceEvent] = []
        self._spans: list[Span] = []
        self._stack: list[Span | _NullSpan | _Activate] = []
        self._trace_seq = 0
        self._span_seq = 0
        self._root_seq = 0
        self._scope = _SpanScope(self)
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

    def span(self, name: str, node: str = "", **attrs: Any) -> _SpanScope:
        """Open a span under the current context and return its scope.

        Use it only as a ``with`` target: the span is opened and pushed
        when this is called, ``with tracer.span(...) as span`` binds it,
        and leaving the block closes it (an exception marks the span's
        status with the exception's class name). The ``attrs`` dict
        becomes the span's attribute dict as is.

        Always pushes exactly one frame: ``NULL_SPAN`` when tracing is
        off, under a ``NULL_SPAN`` parent, or for a sampled-out root.
        """
        stack = self._stack
        if not self.enabled or (stack and stack[-1].__class__ is _NullSpan):
            stack.append(NULL_SPAN)
            return self._scope
        if stack:
            # a child of a live span or an activated remote context: the
            # common case inside an operation
            parent = stack[-1]
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            # a root: apply sampling
            self._root_seq += 1
            if self.sample > 1 and (self._root_seq - 1) % self.sample:
                stack.append(NULL_SPAN)
                return self._scope
            self._trace_seq += 1
            trace_id = "t" + str(self._trace_seq).zfill(4)
            parent_id = None
        self._span_seq += 1
        span = Span(
            "s" + str(self._span_seq).zfill(6),
            trace_id,
            parent_id,
            name,
            node,
            self._clock.now(),
            None,
            attrs,
        )
        self._spans.append(span)
        stack.append(span)
        return self._scope

    def start_span(self, name: str, node: str = "", **attrs: Any) -> Span | _NullSpan:
        """Open a span under the current context and push it on the stack.

        The unscoped form of :meth:`span` (same open path), for spans
        whose close is not a ``with`` block. Always pushes exactly one
        frame (a real span or ``NULL_SPAN``) so a matching
        :meth:`end_span` keeps the stack balanced even if ``enabled``
        flips mid-operation.
        """
        self.span(name, node, **attrs)
        return self._stack[-1]

    def end_span(self, span: Span | _NullSpan | None = None, *, error: str | None = None) -> None:
        """Pop and close the top-of-stack frame (the same close as a scope's exit).

        ``span`` is accepted for readability at call sites and is not
        checked: the top frame is closed, whatever it is. A real span
        gets its ``end`` stamped and, if ``error`` is given, that status.
        """
        self._close(error)

    def _close(self, error: str | None) -> None:
        stack = self._stack
        if not stack:
            return
        top = stack.pop()
        if top.__class__ is Span:
            top.end = self._clock.now()
            if error is not None:
                top.status = error

    def current_context(self) -> tuple[str, str] | None:
        """``(trace_id, span_id)`` of the innermost live frame, if any."""
        stack = self._stack
        if not stack:
            return None
        top = stack[-1]
        if top.__class__ is _NullSpan:
            return None
        return (top.trace_id, top.span_id)

    def current_span_id(self) -> str | None:
        stack = self._stack
        return stack[-1].span_id if stack else None

    def activate(self, ctx: tuple[str, str] | None) -> _Activate:
        """Re-enter a remote context carried in a message header.

        Spans opened inside become children of the remote caller's span.
        ``ctx=None`` (unstamped message, tracing off at the sender) is a
        passthrough — work nests under whatever is already open here.
        The frame is pushed when the block is entered, not when the
        scope is built.
        """
        return _Activate(self, ctx)

    def detached(self) -> _Detached:
        """Run the block with an empty span stack.

        Scheduler-fired callbacks (lease sweeps, fault events, delayed
        redeliveries) must become *root* spans, not children of whatever
        span happened to be open while the clock advanced.
        """
        return _Detached(self)

    def deferring(self, ctx: tuple[str, str] | None) -> _Deferring:
        """Mark every span the block opens directly under ``ctx`` as deferred.

        For late redeliveries: a handler re-enters the context stamped on
        the message, whose span closed long before the duplicate arrived,
        so its spans cannot lie inside that span's interval. Only the
        ``deferred`` attribute is added; span ids and parents stay as they
        are. Spans are counted from when the block is entered.
        """
        return _Deferring(self, ctx)

    def spans(self) -> list[Span]:
        """All recorded spans, in open order."""
        return list(self._spans)


def maybe_span(tracer: Tracer | None, name: str, node: str = "", **attrs: Any):
    """``tracer.span(...)`` that tolerates ``tracer=None``.

    When the tracer is absent *or disabled* this returns the shared
    :data:`NULL_SPAN_CONTEXT` and never touches the span stack — a
    disabled-tracing run pays one attribute check per call site instead
    of a ``NULL_SPAN`` push and pop. (``Tracer.span`` itself still pushes
    balanced NULL frames when called directly on a disabled tracer; only
    this helper short-circuits, and a tracer re-enabled mid-operation
    simply starts a fresh root at the next call site.)
    """
    if tracer is None or not tracer.enabled:
        return NULL_SPAN_CONTEXT
    return tracer.span(name, node, **attrs)
