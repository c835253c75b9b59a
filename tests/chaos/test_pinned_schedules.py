"""Pinned regression schedules: every bug a chaos campaign found, replayed.

Each row is one shrunk repro — the campaign knobs and the ``--schedule``
JSON of the command a failing campaign printed — and must now replay
clean. A new bug found by a sweep becomes a new row, built from its
shrunk schedule, in the same PR that mends it.
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


@pytest.mark.parametrize(
    "knobs, episode, schedule", [row[1:] for row in PINNED], ids=[row[0] for row in PINNED]
)
def test_pinned_schedule_replays_clean(knobs, episode, schedule):
    config = ChaosConfig(**knobs, episode=episode, schedule_json=schedule, shrink=False)
    result = ChaosCampaign(config).run()
    (ep,) = result.episodes
    assert ep.violations == [], [str(v) for v in ep.violations]
