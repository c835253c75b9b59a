"""Leg records: the four spans of an RPC attempt, built when read.

A part opened with ``Tracer.open_call`` … ``open_handle`` must read back
exactly as the span ``Tracer.span`` would have recorded: same id,
trace, parent, name, node, times, attributes and status, in the same
order among the other spans.
"""

import pytest

from repro import SyDWorld
from repro.calendar.app import SyDCalendarApp
from repro.net.address import NodeAddress
from repro.net.transport import Transport
from repro.util.clock import VirtualClock
from repro.util.trace import ATTEMPT, CALL, HANDLE, NULL_SPAN, RPC, Tracer

NAMES = {CALL: "net.call", ATTEMPT: "net.attempt", RPC: "rpc:invoke", HANDLE: "handle:o.m"}


def _open(tracer: Tracer, kind: int, node: str, attrs: dict, ctx=None) -> bool:
    if kind == CALL:
        return tracer.open_call(node, attrs, {"attempt": 1})
    if kind == ATTEMPT:
        return tracer.open_attempt(node, attrs)
    if kind == RPC:
        return tracer.open_rpc(node, attrs, "invoke")
    return tracer.open_handle(node, attrs, "o.m", ctx)


def _close(tracer: Tracer, kind: int, status=None) -> None:
    (tracer.close_call, tracer.close_attempt, tracer.close_rpc, tracer.close_handle)[kind](status)


def _drive(tracer: Tracer, clock: VirtualClock, legs: bool) -> None:
    """One call with two attempts (the first fails), a nested call in the
    handler, and a plain span between; as leg parts or as plain spans."""

    def open_(kind, node, attrs, ctx=None):
        kinds.append(kind)
        if legs:
            if kind == CALL:
                kinds.append(ATTEMPT)  # the first attempt opens with its call
            _open(tracer, kind, node, attrs, ctx)
        elif kind == CALL:
            tracer.start_span(NAMES[CALL], node, **attrs)
            kinds.append(ATTEMPT)
            tracer.start_span(NAMES[ATTEMPT], node, attempt=1)
        elif ctx is not None:
            activations.append(tracer.activate(ctx))
            activations[-1].__enter__()
            tracer.start_span(NAMES[kind], node, **attrs)
        else:
            tracer.start_span(NAMES[kind], node, **attrs)
        return tracer.current_context()

    def close(status=None, activated=False):
        kind = kinds.pop()
        if legs:
            _close(tracer, kind, status)
        else:
            tracer.end_span(error=status)
            if activated:
                activations.pop().__exit__(None, None, None)

    activations: list = []
    kinds: list = []
    with tracer.span("op", "a"):
        open_(CALL, "a", {})
        clock.advance(0.5)
        close("MessageDropped")
        clock.advance(0.25)
        open_(ATTEMPT, "a", {"attempt": 2})
        ctx = open_(RPC, "a", {"dst": "b"})
        clock.advance(0.125)
        open_(HANDLE, "b", {"src": "a"}, ctx)
        with tracer.span("cal.step", "b"):
            inner = open_(RPC, "b", {"dst": "c"})
            open_(HANDLE, "c", {"src": "b"}, inner)
            clock.advance(0.0625)
            close(activated=True)
            close("RemoteError")
        close(activated=True)
        close()
        close()
        close()


@pytest.mark.parametrize("legs", [True, False], ids=["legs", "spans"])
def test_parts_read_back_as_the_spans_they_replace(legs):
    clock = VirtualClock()
    tracer = Tracer(clock)
    _drive(tracer, clock, legs)
    expected_clock = VirtualClock()
    expected = Tracer(expected_clock)
    _drive(expected, expected_clock, not legs)
    assert tracer.spans() == expected.spans()
    assert tracer._stack == expected._stack == []
    assert tracer.span_count() == len(tracer.spans()) == 9


def test_attempts_share_a_record_only_when_nested():
    tracer = Tracer()
    with tracer.span("op", "a"):
        tracer.open_call("a", {}, {"attempt": 1})
        tracer.open_rpc("a", {"dst": "b"}, "invoke")
        tracer.close_rpc()
        tracer.open_rpc("a", {"dst": "c"}, "invoke")  # a second rpc in the attempt
        tracer.close_rpc()
        tracer.close_attempt()
        tracer.close_call()
        tracer.open_rpc("a", {"dst": "d"}, "invoke")  # not in an attempt
        tracer.close_rpc()
    assert [(leg.first, leg.last_seq()) for leg in tracer._legs] == [
        (CALL, 4), (RPC, 5), (RPC, 6)
    ]
    assert [s.parent_id for s in tracer.spans()] == [
        None, "s000001", "s000002", "s000003", "s000003", "s000001"
    ]


def test_open_part_shows_end_none_until_closed_and_reads_repeat():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("op", "a"):
        rpc = {"dst": "b"}
        tracer.open_rpc("a", rpc, "invoke")
        ctx = tracer.current_context()
        clock.advance(1.0)
        tracer.open_handle("b", {"src": "a"}, "o.m", ctx)
        first = tracer.spans()
        assert [(s.name, s.end) for s in first] == [
            ("op", None), ("rpc:invoke", None), ("handle:o.m", None)
        ]
        assert first[2].parent_id == ctx[1] == first[1].span_id
        assert tracer.spans() == first
        tracer.close_handle()
        rpc["outcome"] = "ok"
        clock.advance(1.0)
        tracer.close_rpc()
        assert [s.end for s in tracer.spans()] == [None, 2.0, 1.0]
    closed = tracer.spans()
    assert [s.end for s in closed] == [2.0, 2.0, 1.0]
    assert closed[1].attrs == {"dst": "b", "outcome": "ok"}
    again = tracer.spans()
    assert again == closed
    # the closed spans are built once and kept
    assert all(a is b for a, b in zip(again, closed))
    assert tracer._built_seq == 3 and tracer.span_count() == 3


def test_clear_drops_records_but_lists_parts_opened_after_it():
    tracer = Tracer()
    with tracer.span("op", "a"):
        tracer.open_call("a", {}, {"attempt": 1})
        tracer.close_attempt()
        tracer.spans()
        tracer.clear()
        assert tracer.spans() == [] and tracer.span_count() == 0
        tracer.open_attempt("a", {"attempt": 2})
        tracer.close_attempt()
        tracer.close_call()
    (span,) = tracer.spans()
    assert span.name == "net.attempt" and span.attrs == {"attempt": 2}
    assert span.span_id == "s000004" and span.parent_id == "s000002"
    assert tracer.span_count() == 1
    assert tracer._stack == []


def test_disabled_tracer_appends_no_record_and_pushes_nothing():
    tracer = Tracer()
    tracer.enabled = False
    assert tracer.open_rpc("a", {"dst": "b"}, "invoke") is False
    assert tracer._stack == [] and tracer._legs == []
    assert tracer.spans() == [] and tracer.span_count() == 0


def test_sampled_out_root_appends_no_record():
    tracer = Tracer(sample=2)
    for i in range(4):
        assert tracer.open_call("a", {"i": i}, {"attempt": 1}) is True
        if i % 2:
            assert tracer._stack == [NULL_SPAN, NULL_SPAN]
        tracer.close_attempt()
        retried = tracer.open_attempt("a", {"attempt": 2})
        assert retried is (i % 2 == 0)
        with tracer.span("inside", "a"):
            pass
        if retried:
            tracer.close_attempt()
        tracer.close_call()
        assert tracer._stack == []
    # roots 0 and 2 recorded (a call record and a retry record each);
    # 1 and 3 pushed NULL_SPAN frames and recorded nothing
    assert len(tracer._legs) == 4
    spans = tracer.spans()
    assert [s.attrs.get("i") for s in spans if s.name == "net.call"] == [0, 2]
    assert [s.name for s in spans] == ["net.call", "net.attempt", "net.attempt", "inside"] * 2
    assert tracer.span_count() == 8


def test_under_a_suppressed_parent_nothing_opens():
    tracer = Tracer(sample=2)
    with tracer.span("kept", "a"):
        pass
    with tracer.span("dropped", "a"):
        assert tracer.open_rpc("a", {}, "invoke") is False
        assert tracer._stack == [NULL_SPAN]
    assert len(tracer.spans()) == 1


def test_redelivered_handler_part_is_deferred():
    clock = VirtualClock()
    tracer = Tracer(clock)
    transport = Transport(clock=clock, tracer=tracer)
    handled = []

    def handler(msg):
        handled.append(msg)
        tracer.open_handle("b", {"src": msg.src}, "o.m", msg.trace)
        tracer.close_handle()
        return {}

    transport.register(NodeAddress("a"), lambda msg: {})
    transport.register(NodeAddress("b"), handler)
    with tracer.span("op", "a"):
        transport.rpc("a", "b", "invoke", {})
    before = tracer.spans()  # builds the first handler span
    clock.advance(5.0)
    with tracer.detached():
        transport.redeliver(handled[0])
    spans = tracer.spans()
    assert [s.name for s in spans] == [
        "op", "rpc:invoke", "handle:o.m", "net.redeliver", "handle:o.m"
    ]
    rpc = spans[1]
    late = spans[4]
    assert late.parent_id == rpc.span_id and late.attrs["deferred"] is True
    assert "deferred" not in spans[2].attrs
    assert spans[3].attrs["deferred"] is True
    assert before[:3] == spans[:3]


def test_deferring_marks_a_part_already_built():
    tracer = Tracer()
    with tracer.span("call", "a"):
        ctx = tracer.current_context()
    with tracer.activate(ctx), tracer.deferring(ctx):
        tracer.open_handle("b", {"src": "a"}, "o.m", ctx)
        tracer.close_handle()
        built = tracer.spans()[1]
        assert "deferred" not in built.attrs
    assert built.attrs["deferred"] is True
    assert tracer.spans()[1] is built


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
def test_world_records_legs_only_when_traced(tracing):
    world = SyDWorld(seed=3, tracing=tracing)
    app = SyDCalendarApp(world)
    for user in ("ann", "bob", "cy"):
        app.add_user(user)
    app.manager("ann").schedule_meeting("sync", ["bob", "cy"])
    tracer = world.tracer
    assert tracer._stack == []
    if not tracing:
        assert tracer._legs == [] and tracer.span_count() == 0
        return
    spans = tracer.spans()
    assert tracer.span_count() == len(spans) > 0
    parts: list = []
    for leg in tracer._legs:
        leg.expand(0, parts)
    assert len(parts) == sum(1 for s in spans if s.name.split(":")[0] in (
        "net.call", "net.attempt", "rpc", "handle"
    ))
    assert [s.span_id for s in spans] == sorted(s.span_id for s in spans)
