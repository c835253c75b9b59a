"""Pinned regression schedules: every bug a chaos campaign found, replayed.

Each row is one shrunk repro — the campaign knobs and the ``--schedule``
JSON of the command a failing campaign printed. ``PINNED`` rows must
replay clean. A new bug found by a sweep becomes a new row, built from
its shrunk schedule, in the same PR that mends it.

``OPEN`` rows are known bugs that still fail: they run as strict
expected failures, so a change that mends one fails the suite until
the row moves to ``PINNED`` in the PR that mends it.
"""

import pytest

from repro.chaos.campaign import ChaosCampaign, ChaosConfig

#: (row id, ChaosConfig knobs, episode, schedule JSON)
PINNED = [
    # ``python -m repro chaos --seed 1 --users 6 --ops 40 --duration 120
    # --intensity 1 --profile classic --episode 8 --schedule '…'``: u03
    # misses the cancel of mtg-u02-1 in the drop window, later asks to
    # drop out, and the initiator degraded the cancelled meeting back to
    # TENTATIVE, double-booking d0h9 against mtg-u02-4. Cancel is final
    # since the meeting-status transition table (calendar/model.py).
    (
        "resurrected-cancel",
        dict(seed=1, users=6, ops=40, duration=120.0, intensity=1.0, profile="classic"),
        8,
        '{"events":[{"at":10.68,"kind":"drop_start","params":{"id":"d1","p":0.374}}]}',
    ),
]

#: (row id, ChaosConfig knobs, episode, schedule JSON) of bugs not yet
#: mended; each is ROADMAP item 3's lost fan-out: a push or release that
#: a drop window ate is never repaired.
OPEN = [
    # Violations: ``commitment`` and ``orphaned_slot`` at u03, which
    # holds d0h12 for mtg-u02-2 but never received its row.
    (
        "lost-store-meeting",
        dict(seed=9, users=6, ops=40, duration=120.0, intensity=1.0, profile="sharded"),
        4,
        '{"events":[{"at":7.41,"kind":"drop_start","params":{"id":"d0","p":0.262}},'
        '{"at":17.2,"kind":"shard_crash","params":{"shard":1}},'
        '{"at":22.8,"kind":"drop_stop","params":{"id":"d0"}},'
        '{"at":28.3,"kind":"shard_restart","params":{"shard":1}},'
        '{"at":32.71,"kind":"shard_join","params":{}},'
        '{"at":34.73,"kind":"shard_join","params":{}},'
        '{"at":41.17,"kind":"shard_leave","params":{}},'
        '{"at":45.02,"kind":"shard_leave","params":{}},'
        '{"at":81.57,"kind":"drop_start","params":{"id":"d2","p":0.258}}]}',
    ),
    # Violations: ``orphaned_slot`` and ``dead_meeting_slot`` at u05,
    # which still holds d0h12 for the cancelled mtg-u02-2.
    (
        "lost-release-slot",
        dict(seed=2, users=6, ops=40, duration=120.0, intensity=1.0, profile="classic"),
        9,
        '{"events":[{"at":10.2,"kind":"drop_start","params":{"id":"d4","p":0.175}},'
        '{"at":29.59,"kind":"drop_stop","params":{"id":"d4"}},'
        '{"at":35.22,"kind":"crash","params":{"user":"u00"}},'
        '{"at":54.69,"kind":"crash","params":{"user":"u00"}},'
        '{"at":55.73,"kind":"restart","params":{"user":"u00"}},'
        '{"at":57.92,"kind":"drop_start","params":{"id":"d5","p":0.281}},'
        '{"at":64.91,"kind":"drop_start","params":{"id":"d1","p":0.156}},'
        '{"at":69.15,"kind":"restart","params":{"user":"u00"}},'
        '{"at":70.28,"kind":"drop_stop","params":{"id":"d5"}},'
        '{"at":72.74,"kind":"drop_stop","params":{"id":"d1"}},'
        '{"at":83.14,"kind":"drop_start","params":{"id":"d2","p":0.271}}]}',
    ),
]

_OPEN_MARK = pytest.mark.xfail(strict=True, reason="ROADMAP item 3")


@pytest.mark.parametrize(
    "knobs, episode, schedule",
    [pytest.param(*row[1:], id=row[0]) for row in PINNED]
    + [pytest.param(*row[1:], id=row[0], marks=_OPEN_MARK) for row in OPEN],
)
def test_pinned_schedule_replays_clean(knobs, episode, schedule):
    config = ChaosConfig(**knobs, episode=episode, schedule_json=schedule, shrink=False)
    result = ChaosCampaign(config).run()
    (ep,) = result.episodes
    assert ep.violations == [], [str(v) for v in ep.violations]
