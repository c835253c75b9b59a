"""Timeline exporters: Chrome trace JSON, span tree, determinism."""

import json

import pytest

from repro.obs.export import (
    chrome_trace,
    dumps_chrome_trace,
    render_span_tree,
    validate_chrome_trace,
    write_timeline,
)
from repro.util.clock import VirtualClock
from repro.util.trace import Tracer


def sample_spans():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("outer", "node-a", op="x"):
        clock.advance(0.010)
        with tracer.span("inner", "node-b"):
            clock.advance(0.005)
    with tracer.span("other", "node-a"):
        clock.advance(0.001)
    return tracer.spans()


class TestChromeTrace:
    def test_document_shape(self):
        doc = chrome_trace(sample_spans(), label="unit")
        validate_chrome_trace(doc)
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        # One lane per node, named for the UI.
        assert {m["args"]["name"] for m in meta} == {"node:node-a", "node:node-b"}
        assert len(slices) == 3
        outer = next(e for e in slices if e["name"] == "outer")
        inner = next(e for e in slices if e["name"] == "inner")
        # Virtual seconds became microseconds.
        assert outer["ts"] == 0.0 and outer["dur"] == 15000.0
        assert inner["ts"] == 10000.0
        # Causality and attrs ride in args.
        assert inner["args"]["parent"] == outer["args"]["span_id"]
        assert inner["cat"] == outer["cat"]
        assert outer["args"]["op"] == "x"
        assert doc["otherData"]["source"] == "unit"

    def test_open_spans_are_skipped(self):
        tracer = Tracer()
        tracer.start_span("never-closed", "n")
        doc = chrome_trace(tracer.spans())
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []

    def test_serialisation_is_deterministic(self):
        a = dumps_chrome_trace(chrome_trace(sample_spans()))
        b = dumps_chrome_trace(chrome_trace(sample_spans()))
        assert a == b
        json.loads(a)  # round-trips

    def test_write_timeline_returns_path(self, tmp_path):
        path = tmp_path / "t.trace.json"
        returned = write_timeline(str(path), sample_spans())
        assert returned == str(path)
        doc = json.loads(path.read_text())
        validate_chrome_trace(doc)


class TestValidate:
    def test_accepts_our_own_output(self):
        validate_chrome_trace(chrome_trace(sample_spans()))

    @pytest.mark.parametrize(
        "doc,match",
        [
            ({}, "missing traceEvents"),
            ({"traceEvents": {}}, "must be a list"),
            ({"traceEvents": ["x"]}, "not an object"),
            ({"traceEvents": [{"ph": "B", "pid": 1, "tid": 1, "name": "n"}]},
             "unsupported ph"),
            ({"traceEvents": [{"ph": "M", "pid": "1", "tid": 1, "name": "n"}]},
             "pid/tid"),
            ({"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "name": "n",
                               "ts": 0.0, "dur": -1.0, "args": {}}]},
             "negative dur"),
            ({"traceEvents": [{"ph": "X", "pid": 1, "tid": 1, "name": "n",
                               "ts": 0.0, "dur": 1.0, "args": None}]},
             "args"),
        ],
    )
    def test_rejects_malformed_documents(self, doc, match):
        with pytest.raises(ValueError, match=match):
            validate_chrome_trace(doc)

    @staticmethod
    def _slice(span_id, ts, dur, tid=1, parent=None, **extra):
        args = {"span_id": span_id, "trace_id": "t1", "status": "ok", **extra}
        if parent is not None:
            args["parent"] = parent
        return {"ph": "X", "pid": 1, "tid": tid, "name": span_id,
                "cat": "t1", "ts": ts, "dur": dur, "args": args}

    def test_rejects_child_escaping_parent(self):
        doc = {"traceEvents": [
            self._slice("sA", 0.0, 100.0),
            self._slice("sB", 50.0, 200.0, parent="sA"),
        ]}
        with pytest.raises(ValueError, match="escapes parent"):
            validate_chrome_trace(doc)

    def test_deferred_children_are_exempt_from_containment(self):
        # Scheduler-fired redeliveries legitimately re-enter traces
        # whose spans closed long ago; they carry args.deferred.
        doc = {"traceEvents": [
            self._slice("sA", 0.0, 100.0),
            self._slice("sB", 5000.0, 10.0, parent="sA", deferred=True),
        ]}
        validate_chrome_trace(doc)

    def test_containment_allows_rounding_slack(self):
        doc = {"traceEvents": [
            self._slice("sA", 0.0, 100.0),
            self._slice("sB", -0.001, 100.002, parent="sA", tid=2),
        ]}
        validate_chrome_trace(doc)

    def test_rejects_backwards_ts_within_a_lane(self):
        doc = {"traceEvents": [
            self._slice("sA", 50.0, 10.0),
            self._slice("sB", 0.0, 10.0),
        ]}
        with pytest.raises(ValueError, match="goes backwards"):
            validate_chrome_trace(doc)

    def test_lanes_are_independent_for_monotonicity(self):
        doc = {"traceEvents": [
            self._slice("sA", 50.0, 10.0, tid=1),
            self._slice("sB", 0.0, 10.0, tid=2),
        ]}
        validate_chrome_trace(doc)


class TestSpanTree:
    def test_children_indent_under_parents(self):
        tree = render_span_tree(sample_spans())
        lines = tree.splitlines()
        assert lines[0].startswith("outer [node-a]")
        assert lines[1].startswith("  inner [node-b]")
        assert lines[2].startswith("other [node-a]")
        assert "{op=x}" in lines[0]

    def test_orphans_promote_to_roots(self):
        spans = sample_spans()
        # Drop the root: its child's parent id no longer resolves.
        orphaned = [s for s in spans if s.name != "outer"]
        tree = render_span_tree(orphaned)
        assert tree.splitlines()[0].startswith("inner")

    def test_error_status_is_flagged(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("bad", "n"):
                raise RuntimeError("x")
        assert "!RuntimeError" in render_span_tree(tracer.spans())


class TestLateRedelivery:
    def test_deferring_marks_only_direct_reentries(self):
        clock = VirtualClock()
        tracer = Tracer(clock)
        with tracer.span("rpc", "a"):
            ctx = tracer.current_context()
            clock.advance(0.010)
        clock.advance(1.0)
        with tracer.activate(ctx), tracer.deferring(ctx):
            with tracer.span("handle", "b"):
                with tracer.span("nested", "b"):
                    clock.advance(0.001)
        rpc, handle, nested = tracer.spans()
        assert handle.parent_id == rpc.span_id
        assert handle.attrs == {"deferred": True}
        assert nested.parent_id == handle.span_id and nested.attrs == {}
        validate_chrome_trace(chrome_trace(tracer.spans()))

    def test_mixed_episode_with_a_late_duplicate_exports(self):
        # Episode 0 of the default campaign redelivers a directory lookup
        # after its rpc span closed; its handler span used to escape it.
        from repro.chaos import ChaosCampaign, ChaosConfig

        campaign = ChaosCampaign(ChaosConfig(seed=7, profile="mixed", shrink=False))
        campaign.run_episode(0, quiet=True)
        spans = campaign.last_world.tracer.spans()
        late = [s for s in spans if s.name.startswith("handle:") and s.attrs.get("deferred")]
        assert late
        validate_chrome_trace(chrome_trace(spans))
