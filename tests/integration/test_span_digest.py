"""Pinned span digests of a small fixed calendar world and two chaos episodes.

The traced run of :mod:`tests.integration.test_wire_totals` (four users
at seed 7: free-slot queries, three meetings, two cancels) is hashed
record by record: every span's ids, parent, name, node, virtual start
and end, sorted attributes and status, and every step event. The span
layer's scopes may get cheaper, but what they record may not move.

That world is fault-free, so two chaos episodes are pinned the same way,
together with the sha256 of their in-process ``obs`` exports (timeline,
attribution, SLO report and metrics text):

* ``mixed`` seed 7 episode 0: retried attempts, retry waves, lost and
  dropped legs, and redeliveries whose handler spans are ``deferred``;
* ``gray`` seed 7 episode 1 on a 4x2 sharded directory: hedged reads
  and ``deadline`` outcomes.

The world digest was recorded on the commit before the slotted span
scopes were introduced (the generator-based ``Tracer.span``), and the
episode digests on the commit before RPC legs were recorded as leg
records; both commits pass this test. A deliberate change to what a
span records updates them.
"""

import hashlib
import json

import pytest

from repro.__main__ import main
from repro.chaos import ChaosCampaign, ChaosConfig
from repro.obs import attribution_report, chrome_trace, evaluate, render_report
from repro.obs.export import dumps_chrome_trace

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


#: episode -> ((sha256 over the records, span count, step event count),
#: sha256 of the timeline, attribution, SLO report and metrics text)
PINNED_EPISODES = {
    "mixed": (
        ("20f8d02d4b35d34fa3bfdc164f2c93fa0ddfc7d07681b39c1ccc81d4662a168c", 2482, 144),
        {
            "timeline": "0132670a07e6359cfd9815ea7e106b7e1fc9a3c9b855a63c9f8b338ba1fb733b",
            "attribution": "3866bc7f86d7a636011dea316c4c63c9a1b5ada5cb9820cc646ad56e40c85c33",
            "slo": "314abc5d9301db21f3ffa19d51a1b2006b21b2015159216b9bb440ac4d50de95",
            "metrics": "224c9611a995905dce50cb950a30d174a590ad06f036b16c6e604b67be6568cb",
        },
    ),
    "gray": (
        ("f4bc7b23603ece6d382809a50d8ffb001f7ea9f6ef8907bc0af20635cf57bfa4", 2907, 564),
        {
            "timeline": "2c130443735d48eb6991299c798401212e5fb95240fd06140c37fbebd779cf94",
            "attribution": "78ac6935ceff0b796a9a0d3f5e1bfe983b465b22849bb3e05a65497aa13fde02",
            "slo": "45d1e205eecd5ff4f4da78166173cd1bbdd0aaa5b77c0277439a29fc23674265",
            "metrics": "df6e8898f8a272ebe8b2399bb07e56fe2f94be6bf97aefcae186770d7e41e46b",
        },
    ),
}

EPISODES = {
    "mixed": (0, ChaosConfig(seed=7, profile="mixed", shrink=False)),
    "gray": (
        1,
        ChaosConfig(
            seed=7, profile="gray", directory_shards=4, directory_replicas=2, shrink=False
        ),
    ),
}


def _exports(world, label: str) -> dict[str, str]:
    spans = world.tracer.spans()
    attribution = attribution_report(spans, label).doc
    texts = {
        "timeline": dumps_chrome_trace(chrome_trace(spans, label=label)),
        "attribution": json.dumps(attribution, sort_keys=True, separators=(",", ":")),
        "slo": render_report(evaluate(world.metrics)),
        "metrics": world.metrics.render(),
    }
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


@pytest.mark.parametrize("profile", sorted(EPISODES))
def test_episode_span_digest_is_pinned(profile):
    index, config = EPISODES[profile]
    campaign = ChaosCampaign(config)
    assert campaign.run_episode(index, quiet=True).ok
    world = campaign.last_world
    assert world.tracer._stack == []
    digest, exports = PINNED_EPISODES[profile]
    assert _digest(world.tracer) == digest
    assert _exports(world, f"{profile} episode {index}") == exports


def test_obs_cli_prints_the_pinned_gray_episode(tmp_path, capsys):
    """``obs --episode`` takes the directory shape like ``chaos`` does,
    so the gray 4x2 episode's SLO report and metrics are the pinned ones."""
    argv = [
        "obs", "--episode", "1", "--seed", "7", "--profile", "gray",
        "--directory-shards", "4", "--directory-replicas", "2",
        "--slo", "--metrics", "--out", str(tmp_path),
    ]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("timeline: ")) + 1
    split = next(i for i, line in enumerate(lines) if line.startswith("counter "))
    printed = {"slo": lines[start:split], "metrics": lines[split:]}
    exports = PINNED_EPISODES["gray"][1]
    for name, text in printed.items():
        assert hashlib.sha256("\n".join(text).encode()).hexdigest() == exports[name], name
