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

The four spans of a remote invocation leg (``net.call``,
``net.attempt``, ``rpc:<kind>`` and ``handle:<object>.<method>``) are
most of a traced run's spans, so they skip the :class:`Span` objects and
scopes: ``Tracer.open_call`` … ``open_handle`` and the matching closers
write them as *parts* of one :class:`LegRecord` per attempt, with the
span ids reserved and the times read exactly when the spans would have
opened and closed. :meth:`Tracer.spans` builds the :class:`Span` objects
from the records when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
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
    """Scope of :meth:`Tracer.deferring`: notes the span and leg record
    counts on entry and marks the block's direct children of ``ctx`` on
    exit."""

    __slots__ = ("_tracer", "_ctx", "_start", "_legs")

    def __init__(self, tracer: Tracer, ctx: tuple[str, str] | None):
        self._tracer = tracer
        self._ctx = ctx

    def __enter__(self) -> None:
        self._start = len(self._tracer._spans)
        self._legs = len(self._tracer._legs)

    def __exit__(self, *exc: object) -> bool:
        ctx = self._ctx
        if ctx is not None:
            parent_id = ctx[1]
            for span in self._tracer._spans[self._start :]:
                if span.parent_id == parent_id:
                    span.attrs["deferred"] = True
            # A record's first part is the only one whose parent can be
            # ``ctx``; its attribute dict is the built span's, so a span
            # already built by spans() gets the mark too.
            for leg in self._tracer._legs[self._legs :]:
                if leg.parent_id == parent_id:
                    leg.first_attrs()["deferred"] = True
        return False


#: the parts of a leg record, outermost first: each is the span of that
#: name, and a part joins a record only directly inside the part before it
CALL, ATTEMPT, RPC, HANDLE = range(4)
#: each part's (id, start, end, status, attrs) slot names
_PART_SLOTS = tuple(
    tuple(part + field for field in ("", "_start", "_end", "_status", "_attrs"))
    for part in ("call", "attempt", "rpc", "handle")
)
_by_seq = itemgetter(0)


def _span_id(seq: int) -> str:
    return "s" + str(seq).zfill(6)


class LegRecord:
    """The spans of one RPC attempt, recorded flat and built when read.

    Up to four nested parts, outermost first: ``net.call`` (the ``call*``
    slots), ``net.attempt`` (``attempt*``), ``rpc:<kind>`` (``rpc*``) and
    ``handle:<target>`` (``handle*``). A part holds the span id number
    reserved when it opened, its virtual start and end (unset while
    open), its status (None = ok) and its attribute dict. ``first`` is
    the outermost part, whose parent is ``parent_id``; the parts present
    run from it without a gap, each a child of the one before. The call
    and attempt parts run on ``caller``, the rpc part on ``src`` and the
    handle part on ``node``.

    While any part is open the record is one frame on the tracer's
    stack, standing for its innermost open part (``frame``, that part's
    span id number; 0 once the record has closed), so nested spans,
    trace headers and step events see that part's span id. ``ctx``
    caches the frame's ``(trace_id, span_id)``; ``joins`` is the part
    that may still join the record (-1 once a part has closed).
    """

    __slots__ = (
        "trace_id", "parent_id", "first", "frame", "ctx", "joins",
        "caller", "src", "kind", "node", "target",
        "call", "call_start", "call_end", "call_status", "call_attrs",
        "attempt", "attempt_start", "attempt_end", "attempt_status", "attempt_attrs",
        "rpc", "rpc_start", "rpc_end", "rpc_status", "rpc_attrs",
        "handle", "handle_start", "handle_end", "handle_status", "handle_attrs",
    )

    @property
    def span_id(self) -> str:
        """Span id of the innermost open part."""
        return _span_id(self.frame)

    def first_attrs(self) -> dict[str, Any]:
        """Attribute dict of the outermost part."""
        return getattr(self, _PART_SLOTS[self.first][4])

    def last_seq(self) -> int:
        """Span id number of the innermost part."""
        for slots in reversed(_PART_SLOTS[self.first :]):
            seq = getattr(self, slots[0], 0)
            if seq:
                return seq
        return 0

    def expand(self, after: int, out: list[tuple[int, Span]]) -> None:
        """Append ``(seq, span)`` for each part whose id number exceeds ``after``."""
        trace_id = self.trace_id
        parent = self.parent_id
        for kind in range(self.first, HANDLE + 1):
            seq_slot, start_slot, end_slot, status_slot, attrs_slot = _PART_SLOTS[kind]
            seq = getattr(self, seq_slot, 0)
            if not seq:
                break
            span_id = _span_id(seq)
            if seq > after:
                if kind == CALL:
                    name, node = "net.call", self.caller
                elif kind == ATTEMPT:
                    name, node = "net.attempt", self.caller
                elif kind == RPC:
                    name, node = "rpc:" + self.kind, self.src
                else:
                    name, node = "handle:" + self.target, self.node
                status = getattr(self, status_slot, None)
                span = Span(
                    span_id,
                    trace_id,
                    parent,
                    name,
                    node,
                    getattr(self, start_slot),
                    getattr(self, end_slot, None),
                    getattr(self, attrs_slot),
                    "ok" if status is None else status,
                )
                out.append((seq, span))
            parent = span_id


class Tracer:
    """Append-only recorder of :class:`TraceEvent` and :class:`Span` items."""

    def __init__(self, clock: VirtualClock | None = None, *, sample: int = 1):
        self._clock = clock or VirtualClock()
        self._events: list[TraceEvent] = []
        self._spans: list[Span] = []
        #: leg records, in the order their first parts opened
        self._legs: list[LegRecord] = []
        self._stack: list[Span | _NullSpan | _Activate | LegRecord] = []
        self._trace_seq = 0
        self._span_seq = 0
        self._root_seq = 0
        #: id number of the last span opened before the last ``clear()``
        self._base_seq = 0
        #: :meth:`spans` cache: the built spans, all closed, of every id
        #: number up to ``_built_seq``; ``_spans`` and ``_legs`` hold
        #: nothing new before ``_span_pos`` and ``_leg_pos``
        self._built: list[Span] = []
        self._built_seq = 0
        self._span_pos = 0
        self._leg_pos = 0
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
        """Drop all recorded events and spans (open spans stay tracked).

        A span opened after this is listed even when it is a part of a
        leg record that opened before: open records stay listed, and only
        their parts opened from here on are built.
        """
        self._events.clear()
        self._spans.clear()
        self._legs = [f for f in self._stack if f.__class__ is LegRecord]
        self._base_seq = self._built_seq = self._span_seq
        self._built = []
        self._span_pos = self._leg_pos = 0

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

    # Leg record parts: each opener opens the span Tracer.span would
    # (a child of the top frame or of ``ctx``, root sampling, nothing
    # under NULL_SPAN), reserving its id and reading the clock at the
    # same moment, and each closer stamps its end and status where the
    # span's ``with`` block would have exited. A part joins the record on
    # top of the stack when it opens directly inside that record's
    # innermost part and is the next one; otherwise it starts a new
    # record. An opener returns whether its closer must follow: False
    # when tracing is off or the parent is suppressed (nothing pushed),
    # True otherwise, including for a sampled-out root (NULL_SPAN
    # pushed, as by span()). The attribute dict is the span's; callers
    # keep filling it until the part closes.

    def _new_leg(self, first: int, ctx: tuple[str, str] | None) -> LegRecord | bool:
        """Push a new leg record whose outermost part is ``first``."""
        stack = self._stack
        if ctx is not None:
            trace_id, parent_id = ctx
        elif not stack:
            self._root_seq += 1
            if self.sample > 1 and (self._root_seq - 1) % self.sample:
                stack.append(NULL_SPAN)
                return True
            self._trace_seq += 1
            trace_id = "t" + str(self._trace_seq).zfill(4)
            parent_id = None
        else:
            top = stack[-1]
            if top.__class__ is _NullSpan:
                return False
            trace_id = top.trace_id
            parent_id = top.span_id
        leg = LegRecord()
        leg.trace_id = trace_id
        leg.parent_id = parent_id
        leg.first = first
        leg.ctx = None
        self._legs.append(leg)
        stack.append(leg)
        return leg

    def open_call(
        self, node: str, attrs: dict[str, Any], attempt_attrs: dict[str, Any]
    ) -> bool:
        """Open a ``net.call`` part on ``node`` and its first
        ``net.attempt`` part, which open at the same moment, as a new
        record. Close them with :meth:`close_attempt`, then
        :meth:`close_call`."""
        if not self.enabled:
            return False
        leg = self._new_leg(CALL, None)
        if leg.__class__ is not LegRecord:
            if leg:
                self._stack.append(NULL_SPAN)  # the attempt's frame
            return leg
        seq = self._span_seq + 1
        self._span_seq = seq + 1
        leg.call_start = leg.attempt_start = self._clock.now()
        leg.call = seq
        leg.attempt = leg.frame = seq + 1
        leg.call_attrs = attrs
        leg.attempt_attrs = attempt_attrs
        leg.caller = node
        leg.joins = RPC
        return True

    def open_attempt(self, node: str, attrs: dict[str, Any]) -> bool:
        """Open a retry's ``net.attempt`` part on ``node`` as a new record
        (the first attempt opens with its call)."""
        if not self.enabled:
            return False
        leg = self._new_leg(ATTEMPT, None)
        if leg.__class__ is not LegRecord:
            return leg
        seq = self._span_seq = self._span_seq + 1
        leg.attempt = leg.frame = seq
        leg.attempt_start = self._clock.now()
        leg.attempt_attrs = attrs
        leg.caller = node
        leg.joins = RPC
        return True

    def open_rpc(self, src: str, attrs: dict[str, Any], kind: str) -> bool:
        """Open an ``rpc:<kind>`` part on ``src``; it joins the attempt
        part it opens directly inside."""
        if not self.enabled:
            return False
        stack = self._stack
        leg = stack[-1] if stack else None
        if leg.__class__ is LegRecord and leg.joins == RPC:
            leg.ctx = None
        else:
            leg = self._new_leg(RPC, None)
            if leg.__class__ is not LegRecord:
                return leg
        seq = self._span_seq = self._span_seq + 1
        leg.rpc = leg.frame = seq
        leg.rpc_start = self._clock.now()
        leg.rpc_attrs = attrs
        leg.src = src
        leg.kind = kind
        leg.joins = HANDLE
        return True

    def open_handle(
        self,
        node: str,
        attrs: dict[str, Any],
        target: str,
        ctx: tuple[str, str] | None,
    ) -> bool:
        """Open a ``handle:<target>`` part on ``node`` under the remote
        context ``ctx`` (as under :meth:`activate`; None = under the top
        frame). It joins the rpc part whose own context ``ctx`` is."""
        if not self.enabled:
            return False
        stack = self._stack
        leg = stack[-1] if stack else None
        if (
            leg.__class__ is LegRecord
            and leg.joins == HANDLE
            and (ctx is None or ctx is leg.ctx or ctx[1] == leg.span_id)
        ):
            leg.ctx = None
        else:
            leg = self._new_leg(HANDLE, ctx)
            if leg.__class__ is not LegRecord:
                return leg
        seq = self._span_seq = self._span_seq + 1
        leg.handle = leg.frame = seq
        leg.handle_start = self._clock.now()
        leg.handle_attrs = attrs
        leg.node = node
        leg.target = target
        leg.joins = -1
        return True

    def close_call(self, status: str | None = None) -> None:
        """Close the ``net.call`` part on top (a call part is always a
        record's first, so the record is popped)."""
        leg = self._stack.pop()
        if leg.__class__ is LegRecord:
            leg.call_end = self._clock.now()
            leg.call_status = status
            leg.frame = 0

    def close_attempt(self, status: str | None = None) -> None:
        """Close the ``net.attempt`` part on top."""
        stack = self._stack
        leg = stack[-1]
        if leg.__class__ is not LegRecord:
            stack.pop()
            return
        leg.attempt_end = self._clock.now()
        leg.attempt_status = status
        leg.joins = -1
        if leg.first == ATTEMPT:
            stack.pop()
            leg.frame = 0
        else:
            leg.frame = leg.call
            leg.ctx = None

    def close_rpc(self, status: str | None = None) -> None:
        """Close the ``rpc:*`` part on top."""
        stack = self._stack
        leg = stack[-1]
        if leg.__class__ is not LegRecord:
            stack.pop()
            return
        leg.rpc_end = self._clock.now()
        leg.rpc_status = status
        leg.joins = -1
        if leg.first == RPC:
            stack.pop()
            leg.frame = 0
        else:
            leg.frame = leg.attempt
            leg.ctx = None

    def close_handle(self, status: str | None = None) -> None:
        """Close the ``handle:*`` part on top."""
        stack = self._stack
        leg = stack[-1]
        if leg.__class__ is not LegRecord:
            stack.pop()
            return
        leg.handle_end = self._clock.now()
        leg.handle_status = status
        if leg.first == HANDLE:
            stack.pop()
            leg.frame = 0
        else:
            leg.frame = leg.rpc
            leg.ctx = None

    def current_context(self) -> tuple[str, str] | None:
        """``(trace_id, span_id)`` of the innermost live frame, if any."""
        stack = self._stack
        if not stack:
            return None
        top = stack[-1]
        if top.__class__ is LegRecord:
            ctx = top.ctx
            if ctx is None:
                ctx = top.ctx = (top.trace_id, _span_id(top.frame))
            return ctx
        if top.__class__ is _NullSpan:
            return None
        return (top.trace_id, top.span_id)

    def current_span_id(self) -> str | None:
        stack = self._stack
        return stack[-1].span_id if stack else None

    def current_trace_id(self) -> str | None:
        """Trace id of the innermost live frame, if any (the first half
        of :meth:`current_context`, without building the span id)."""
        stack = self._stack
        return stack[-1].trace_id if stack else None

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
        """All recorded spans, in open (span id) order.

        Leg record parts are built into :class:`Span` objects here. The
        built spans up to the first one still open are cached, so a
        repeated read builds only what is new; an open part is built
        afresh on each read, with ``end=None``.
        """
        after = self._built_seq
        fresh: list[tuple[int, Span]] = [
            (int(span.span_id[1:]), span) for span in self._spans[self._span_pos :]
        ]
        for leg in self._legs[self._leg_pos :]:
            leg.expand(after, fresh)
        fresh.sort(key=_by_seq)
        closed = 0
        for _, span in fresh:
            if span.end is None:
                break
            closed += 1
        built = self._built
        if closed:
            built.extend(span for _, span in fresh[:closed])
            after = self._built_seq = fresh[closed - 1][0]
            spans, pos = self._spans, self._span_pos
            while pos < len(spans) and int(spans[pos].span_id[1:]) <= after:
                pos += 1
            self._span_pos = pos
            legs, pos = self._legs, self._leg_pos
            while pos < len(legs) and not legs[pos].frame and legs[pos].last_seq() <= after:
                pos += 1
            self._leg_pos = pos
        return built + [span for _, span in fresh[closed:]]

    def span_count(self) -> int:
        """How many spans :meth:`spans` lists, without building them.

        Every recorded span takes the next id number, and ``clear()``
        drops exactly the ones numbered before it.
        """
        return self._span_seq - self._base_seq


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
