"""SyDListener dispatch with tracing off and on.

With no tracer or a disabled one, ``handle_invoke`` dispatches directly:
it pushes no span frames, records no effect traces, and still times
every invocation into the ``kernel.dispatch.<method>`` digest. With
tracing on, the handler spans keep their names, ids and parents.
"""

import pytest

from repro import SyDWorld
from repro.device.object import SyDDeviceObject, exported
from repro.net.message import Message
from repro.util.errors import SlotUnavailableError


class Probe(SyDDeviceObject):
    """Records the tracer state its methods observe."""

    def __init__(self, name, tracer, clock):
        super().__init__(name)
        self.tracer = tracer
        self.clock = clock
        self.seen = []

    @exported
    def look(self):
        self.seen.append((list(self.tracer._stack), self.tracer.current_context()))
        return {"ok": True}

    @exported
    def fail(self):
        self.seen.append((list(self.tracer._stack), self.tracer.current_context()))
        raise SlotUnavailableError("nope")

    @exported
    def slow(self, seconds, fail=False):
        self.clock.advance(seconds)
        if fail:
            raise SlotUnavailableError("too slow")
        return seconds


def _world(tracing):
    world = SyDWorld(seed=7, tracing=tracing)
    nodes = {}
    for name in ("a", "b"):
        node = world.add_node(name)
        probe = Probe(f"{name}_probe", world.tracer, world.clock)
        node.listener.publish_object(probe, user_id=name, service="probe")
        node.probe = probe
        nodes[name] = node
    return world, nodes


def _invoke(seq, method, trace=None):
    return Message(
        f"m-{seq}",
        "a",
        "b",
        "invoke",
        {"object": "b_probe", "method": method, "args": [], "kwargs": {}},
        dedup=("a", 1, seq),
        trace=trace,
    )


def _dispatch_count(world, method):
    node = world.nodes["b"].listener.node_id
    return world.metrics.digest(node, f"kernel.dispatch.{method}").count


class TestTracingOff:
    def test_handle_invoke_pushes_no_span_frames(self):
        world, nodes = _world(tracing=False)
        listener = nodes["b"].listener
        before = list(world.tracer._stack)
        assert listener.handle_invoke(_invoke(1, "look")) == {"result": {"ok": True}}
        with pytest.raises(SlotUnavailableError):
            listener.handle_invoke(_invoke(2, "fail"))
        assert nodes["b"].probe.seen == [(before, None), (before, None)]
        assert world.tracer._stack == before
        assert world.tracer.spans() == []

    def test_effect_traces_stay_empty(self):
        world, nodes = _world(tracing=False)
        listener = nodes["b"].listener
        for seq in range(1, 4):
            listener.handle_invoke(_invoke(seq, "look"))
        nodes["a"].engine.execute("b", "probe", "look")
        assert sum(listener.effects.values()) == 4
        assert listener.effect_traces == {}

    def test_dispatch_histogram_gets_one_sample_per_invocation(self):
        world, nodes = _world(tracing=False)
        listener = nodes["b"].listener
        for seq in range(1, 4):
            listener.handle_invoke(_invoke(seq, "look"))
        assert _dispatch_count(world, "look") == 3
        for seq in range(4, 6):
            with pytest.raises(SlotUnavailableError):
                listener.handle_invoke(_invoke(seq, "fail"))
        # a raising handler is timed too; a replayed error is not re-timed
        assert _dispatch_count(world, "fail") == 2
        with pytest.raises(SlotUnavailableError):
            listener.handle_invoke(_invoke(4, "fail"))
        assert _dispatch_count(world, "fail") == 2
        assert _dispatch_count(world, "look") == 3

    def test_dispatch_is_timed_in_virtual_time(self):
        world, nodes = _world(tracing=False)
        nodes["a"].engine.execute("b", "probe", "slow", 0.002)
        with pytest.raises(SlotUnavailableError):
            nodes["a"].engine.execute("b", "probe", "slow", 0.003, fail=True)
        digest = world.metrics.digest(nodes["b"].listener.node_id, "kernel.dispatch.slow")
        assert digest.count == 2
        assert digest.sum == pytest.approx(0.005)
        assert (digest.min, digest.max) == pytest.approx((0.002, 0.003))


class TestTracingOn:
    def test_handler_spans_keep_names_ids_and_parents(self):
        world, nodes = _world(tracing=True)
        with world.tracer.span("op", "a") as op:
            nodes["a"].engine.execute("b", "probe", "look")
            with pytest.raises(SlotUnavailableError):
                nodes["a"].engine.execute("b", "probe", "fail")
        shape = [
            (s.name, s.span_id, s.parent_id, s.node, s.status)
            for s in world.tracer.spans()
            if s.trace_id == op.trace_id
        ]
        assert shape == SPAN_SHAPE
        listener = nodes["b"].listener
        assert set(listener.effect_traces.values()) == {op.trace_id}
        assert _dispatch_count(world, "look") == 1
        assert _dispatch_count(world, "fail") == 1

    def test_handler_sees_the_remote_callers_context(self):
        world, nodes = _world(tracing=True)
        listener = nodes["b"].listener
        listener.handle_invoke(_invoke(1, "look", trace=("t0042", "s000042")))
        [(stack, ctx)] = nodes["b"].probe.seen
        handle = world.tracer.spans()[-1]
        assert handle.name == "handle:b_probe.look"
        assert handle.trace_id == "t0042" and handle.parent_id == "s000042"
        assert ctx == ("t0042", handle.span_id)
        assert world.tracer._stack == []
        assert listener.effect_traces == {("a", 1, 1): "t0042"}


#: (name, span_id, parent_id, node, status) of the traced calls above,
#: recorded before the listener's direct dispatch path existed
SPAN_SHAPE = [
    ("op", "s000025", None, "a", "ok"),
    ("net.call", "s000026", "s000025", "a-device", "ok"),
    ("net.attempt", "s000027", "s000026", "a-device", "ok"),
    ("rpc:invoke", "s000028", "s000027", "a-device", "ok"),
    ("handle:_syd_directory.lookup_user", "s000029", "s000028", "syd-directory", "ok"),
    ("net.call", "s000030", "s000025", "a-device", "ok"),
    ("net.attempt", "s000031", "s000030", "a-device", "ok"),
    ("rpc:invoke", "s000032", "s000031", "a-device", "ok"),
    ("handle:_syd_directory.lookup_service", "s000033", "s000032", "syd-directory", "ok"),
    ("net.call", "s000034", "s000025", "a-device", "ok"),
    ("net.attempt", "s000035", "s000034", "a-device", "ok"),
    ("rpc:invoke", "s000036", "s000035", "a-device", "ok"),
    ("handle:b_probe.look", "s000037", "s000036", "b-device", "ok"),
    ("net.call", "s000038", "s000025", "a-device", "ok"),
    ("net.attempt", "s000039", "s000038", "a-device", "ok"),
    ("rpc:invoke", "s000040", "s000039", "a-device", "ok"),
    ("handle:_syd_directory.lookup_user", "s000041", "s000040", "syd-directory", "ok"),
    ("net.call", "s000042", "s000025", "a-device", "ok"),
    ("net.attempt", "s000043", "s000042", "a-device", "ok"),
    ("rpc:invoke", "s000044", "s000043", "a-device", "ok"),
    ("handle:_syd_directory.lookup_service", "s000045", "s000044", "syd-directory", "ok"),
    ("net.call", "s000046", "s000025", "a-device", "SlotUnavailableError"),
    ("net.attempt", "s000047", "s000046", "a-device", "SlotUnavailableError"),
    ("rpc:invoke", "s000048", "s000047", "a-device", "SlotUnavailableError"),
    ("handle:b_probe.fail", "s000049", "s000048", "b-device", "SlotUnavailableError"),
]
