"""Pinned span digest of a small fixed calendar world.

The traced run of :mod:`tests.integration.test_wire_totals` (four users
at seed 7: free-slot queries, three meetings, two cancels) is hashed
record by record: every span's ids, parent, name, node, virtual start
and end, sorted attributes and status, and every step event. The span
layer's scopes may get cheaper, but what they record may not move.

The digest was recorded on the commit before the slotted span scopes
were introduced (the generator-based ``Tracer.span``), which passes
this test; a deliberate change to what a span records updates it.
"""

import hashlib

from .test_wire_totals import _drive

#: (sha256 over the records, span count, step event count)
PINNED_DIGEST = (
    "895dcd2dec5c9061d9686a46b0d2969892b02c2a5f25f77ff88b6ddbf31fdaee", 894, 44
)


def _digest(tracer) -> tuple[str, int, int]:
    h = hashlib.sha256()
    spans = tracer.spans()
    for s in spans:
        record = (
            s.span_id, s.trace_id, s.parent_id, s.name, s.node,
            s.start, s.end, sorted(s.attrs.items()), s.status,
        )
        h.update(repr(record).encode())
        h.update(b"\n")
    events = tracer.events()
    for e in events:
        record = (e.t, e.actor, e.step, sorted(e.detail.items()), e.span_id)
        h.update(repr(record).encode())
        h.update(b"\n")
    return h.hexdigest(), len(spans), len(events)


def test_span_digest_is_pinned():
    world, _ = _drive(tracing=True)
    assert world.tracer._stack == []
    assert _digest(world.tracer) == PINNED_DIGEST
