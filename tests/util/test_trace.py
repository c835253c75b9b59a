"""Tests for the execution tracer."""

import pytest

from repro.util.clock import VirtualClock
from repro.util.trace import NULL_SPAN, Span, Tracer


def test_record_and_read_back():
    tracer = Tracer()
    tracer.record("A", "mark", slot=3)
    tracer.record("B", "lock")
    events = tracer.events()
    assert len(events) == 2
    assert events[0].actor == "A"
    assert events[0].step == "mark"
    assert events[0].detail == {"slot": 3}


def test_timestamps_come_from_clock():
    clock = VirtualClock()
    tracer = Tracer(clock)
    tracer.record("A", "one")
    clock.advance(2.0)
    tracer.record("A", "two")
    ts = [e.t for e in tracer.events()]
    assert ts == [0.0, 2.0]


def test_steps_compact_view():
    tracer = Tracer()
    tracer.record("A", "mark")
    tracer.record("B", "change")
    assert tracer.steps() == [("A", "mark"), ("B", "change")]


def test_filter_by_actor_and_step():
    tracer = Tracer()
    tracer.record("A", "mark")
    tracer.record("B", "mark")
    tracer.record("A", "change")
    assert len(tracer.filter(actor="A")) == 2
    assert len(tracer.filter(step="mark")) == 2
    assert len(tracer.filter(actor="A", step="mark")) == 1


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    tracer.enabled = False
    tracer.record("A", "mark")
    assert tracer.events() == []


def test_clear():
    tracer = Tracer()
    tracer.record("A", "mark")
    tracer.clear()
    assert tracer.events() == []


def test_assert_order_accepts_subsequence():
    tracer = Tracer()
    for actor, step in [("A", "mark"), ("B", "mark"), ("B", "lock"), ("A", "change")]:
        tracer.record(actor, step)
    tracer.assert_order([("A", "mark"), ("A", "change")])


def test_assert_order_rejects_wrong_order():
    tracer = Tracer()
    tracer.record("A", "change")
    tracer.record("A", "mark")
    with pytest.raises(AssertionError):
        tracer.assert_order([("A", "mark"), ("A", "change")])


def test_assert_order_rejects_missing_step():
    tracer = Tracer()
    tracer.record("A", "mark")
    with pytest.raises(AssertionError):
        tracer.assert_order([("A", "unlock")])


def test_assert_order_failure_truncates_large_traces():
    # Satellite fix: a failing assert_order on a big trace used to dump
    # every step into the exception message. Past _DUMP_LIMIT steps the
    # dump now shows head + tail with an omission marker, and names the
    # index where subsequence matching stalled.
    tracer = Tracer()
    for i in range(100):
        tracer.record("A", f"step{i}")
    with pytest.raises(AssertionError) as exc:
        tracer.assert_order([("A", "step5"), ("A", "nope")])
    msg = str(exc.value)
    assert "steps omitted" in msg
    assert "last matched step at index 5" in msg
    # Head and tail survive; the middle does not.
    assert "step0" in msg and "step99" in msg
    assert "('A', 'step50')" not in msg


def test_assert_order_failure_small_trace_dumps_everything():
    tracer = Tracer()
    for i in range(5):
        tracer.record("A", f"step{i}")
    with pytest.raises(AssertionError) as exc:
        tracer.assert_order([("A", "nope")])
    msg = str(exc.value)
    assert "steps omitted" not in msg
    assert "last matched step at index -1" in msg


# -- span layer --------------------------------------------------------------


def test_spans_nest_and_share_a_trace_id():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("outer", "n1", op=1) as outer:
        clock.advance(1.0)
        with tracer.span("inner", "n1") as inner:
            clock.advance(0.5)
    spans = tracer.spans()
    assert [s.name for s in spans] == ["outer", "inner"]
    assert inner.trace_id == outer.trace_id
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None
    assert outer.start == 0.0 and outer.end == 1.5
    assert inner.start == 1.0 and inner.end == 1.5
    assert outer.attrs == {"op": 1}


def test_sibling_roots_get_fresh_trace_ids():
    tracer = Tracer()
    with tracer.span("a", "n"):
        pass
    with tracer.span("b", "n"):
        pass
    ids = [s.trace_id for s in tracer.spans()]
    assert len(set(ids)) == 2


def test_exception_marks_span_status():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer.span("boom", "n"):
            raise ValueError("x")
    (span,) = tracer.spans()
    assert span.status == "ValueError"
    assert span.end is not None


def test_disabled_tracer_pushes_null_spans_balanced():
    tracer = Tracer()
    tracer.enabled = False
    with tracer.span("outer", "n") as span:
        span.set(ignored=True)  # NULL_SPAN tolerates set()
        with tracer.span("inner", "n"):
            pass
    assert tracer.spans() == []
    assert tracer.current_context() is None


def test_sampling_suppresses_whole_subtrees():
    tracer = Tracer(sample=2)
    for i in range(4):
        with tracer.span("root", "n", i=i):
            with tracer.span("child", "n"):
                pass
    spans = tracer.spans()
    # Roots 0 and 2 recorded (with their children); 1 and 3 fully null.
    assert [s.attrs.get("i") for s in spans if s.name == "root"] == [0, 2]
    assert sum(1 for s in spans if s.name == "child") == 2


def test_activate_reparents_under_remote_context():
    tracer = Tracer()
    with tracer.span("local", "n") as caller:
        ctx = tracer.current_context()
    remote = Tracer()
    with remote.activate(ctx):
        with remote.span("handler", "m") as handler:
            pass
    assert handler.trace_id == caller.trace_id
    assert handler.parent_id == caller.span_id
    # activate(None) is a passthrough.
    with remote.activate(None):
        with remote.span("rootish", "m") as span:
            pass
    assert span.parent_id is None


def test_detached_blocks_start_fresh_roots():
    tracer = Tracer()
    with tracer.span("op", "n"):
        with tracer.detached():
            with tracer.span("sweep", "n") as sweep:
                pass
        assert tracer.current_span_id() is not None
    assert sweep.parent_id is None


# -- span scopes ----------------------------------------------------------


def test_raise_in_nested_spans_marks_status_and_restores_depth():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("outer", "n") as outer:
        depth = len(tracer._stack)
        with pytest.raises(KeyError):
            with tracer.span("mid", "n") as mid:
                with tracer.span("inner", "n") as inner:
                    clock.advance(1.0)
                    raise KeyError("k")
        assert len(tracer._stack) == depth
        assert tracer._stack[-1] is outer
    assert tracer._stack == []
    assert (mid.status, inner.status, outer.status) == ("KeyError", "KeyError", "ok")
    assert mid.end == inner.end == 1.0


@pytest.mark.parametrize("scope", ["activate", "detached", "deferring"])
def test_context_scopes_restore_the_stack_when_the_block_raises(scope):
    tracer = Tracer()
    with tracer.span("op", "n") as op:
        ctx = tracer.current_context()
        before = tracer._stack
        frames = list(before)
        make = {
            "activate": lambda: tracer.activate(("t9999", "s999999")),
            "detached": tracer.detached,
            "deferring": lambda: tracer.deferring(ctx),
        }[scope]
        with pytest.raises(ValueError):
            with make():
                with tracer.span("child", "n") as child:
                    raise ValueError("x")
        assert tracer._stack is before
        assert tracer._stack == frames
        assert tracer.current_context() == ctx
    assert child.status == "ValueError"
    if scope == "deferring":
        assert child.parent_id == op.span_id and child.attrs == {"deferred": True}
    assert tracer._stack == []


def test_scopes_built_before_entry_act_only_at_enter():
    # redeliver builds activate/deferring first and enters them later
    tracer = Tracer()
    with tracer.span("call", "a") as call:
        ctx = tracer.current_context()
    activate = tracer.activate(ctx)
    deferring = tracer.deferring(ctx)
    assert tracer._stack == []
    with tracer.activate(ctx):
        with tracer.span("early", "b") as early:
            pass
    with activate, deferring:
        assert tracer.current_context() == ctx
        with tracer.span("late", "b") as late:
            pass
    assert tracer._stack == []
    assert early.parent_id == late.parent_id == call.span_id
    assert "deferred" not in early.attrs
    assert late.attrs == {"deferred": True}


def test_disabled_span_pushes_balanced_null_frames():
    tracer = Tracer()
    tracer.enabled = False
    with tracer.span("outer", "n") as outer:
        assert outer is NULL_SPAN
        assert tracer._stack == [NULL_SPAN]
        with pytest.raises(ValueError):
            with tracer.span("inner", "n", k=1) as inner:
                assert inner is NULL_SPAN
                assert tracer._stack == [NULL_SPAN, NULL_SPAN]
                raise ValueError("x")
        assert tracer._stack == [NULL_SPAN]
    assert tracer._stack == []
    assert NULL_SPAN.status == "ok" and NULL_SPAN.attrs == {}


def test_start_end_span_records_equal_scoped_spans():
    scoped_clock, manual_clock = VirtualClock(), VirtualClock()
    scoped, manual = Tracer(scoped_clock), Tracer(manual_clock)

    with scoped.span("op", "n", txn="x1"):
        scoped_clock.advance(0.5)
        with pytest.raises(RuntimeError):
            with scoped.span("step", "n", k=2):
                scoped_clock.advance(0.25)
                raise RuntimeError("boom")
        scoped_clock.advance(0.125)

    manual.start_span("op", "n", txn="x1")
    manual_clock.advance(0.5)
    step = manual.start_span("step", "n", k=2)
    manual_clock.advance(0.25)
    manual.end_span(step, error="RuntimeError")
    manual_clock.advance(0.125)
    manual.end_span()

    assert manual.spans() == scoped.spans()
    assert manual._stack == scoped._stack == []


def test_end_span_closes_the_top_frame_whatever_span_is_given():
    tracer = Tracer()
    outer = tracer.start_span("outer", "n")
    inner = tracer.start_span("inner", "n")
    tracer.end_span(outer)
    assert inner.end is not None and outer.end is None
    assert tracer._stack == [outer]
    tracer.end_span()
    assert tracer._stack == []
    tracer.end_span()  # nothing open: a no-op


def test_span_equality_and_repr():
    span = Span("s000001", "t0001", None, "op", "n", 0.5)
    assert repr(span) == (
        "Span(span_id='s000001', trace_id='t0001', parent_id=None, name='op', "
        "node='n', start=0.5, end=None, attrs={}, status='ok')"
    )
    twin = Span(
        span_id="s000001", trace_id="t0001", parent_id=None, name="op", node="n", start=0.5
    )
    assert span == twin
    twin.set(k=1)
    assert span != twin and span.attrs == {}
    assert Span("s000001", "t0001", None, "op", "n", 0.5, 1.0, {"k": 1}, "Err") == Span(
        "s000001", "t0001", None, "op", "n", 0.5, end=1.0, attrs={"k": 1}, status="Err"
    )


def test_span_keeps_the_attrs_dict_it_is_given():
    tracer = Tracer()
    with tracer.span("op", "n", a=1) as span:
        pass
    (recorded,) = tracer.spans()
    assert recorded is span and span.attrs == {"a": 1}
