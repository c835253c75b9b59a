"""Calendar service over a proxy replica (paper §5.2 meets §5).

When a calendar device is down, its proxy answers with a
:class:`CalendarReadFacade` built on the replica store: queries work
(peers can still see the user's free/busy view), but the negotiation
verbs refuse — a disconnected user cannot *commit* to new meetings, so
scheduling attempts involving them degrade to tentative meetings, which
is exactly the §5 behaviour for unavailable participants.

Register with a proxy host via::

    host.register_factory("calendar", calendar_proxy_factory)
"""

from __future__ import annotations

from typing import Any

from repro.calendar.service import CalendarCopy
from repro.calendar.storage import CalendarStore, MEETINGS_TABLE, SLOTS_TABLE
from repro.datastore.store import DataStore
from repro.device.object import exported
from repro.util.errors import CalendarError


class CalendarReadFacade(CalendarCopy):
    """Read-only calendar surface served by a proxy.

    Queries answer from the last synced replica state. The copy writes
    are accepted and journaled for replay at handback; no availability
    triggers fire at the proxy — the device fires them itself after the
    replay.
    """

    def __init__(self, user: str, replica: DataStore):
        if not (replica.has_table(SLOTS_TABLE) and replica.has_table(MEETINGS_TABLE)):
            raise CalendarError(
                f"replica of {user!r} lacks calendar tables; enroll after setup"
            )
        # Reuse CalendarStore's typed accessors over the replica. The
        # replica was imported from a snapshot, so tables already exist.
        super().__init__(user, CalendarStore(replica))

    # -- negotiation verbs: a disconnected user cannot commit --------------------

    @exported
    def mark(self, entity: dict[str, int], txn_id: str, *args: Any) -> bool:
        """Refuse: availability cannot be locked while the owner is away."""
        return False

    @exported
    def unmark(self, entity: dict[str, int], txn_id: str) -> bool:
        """Nothing is ever locked here."""
        return False


def calendar_proxy_factory(user: str, replica: DataStore) -> CalendarReadFacade:
    """Factory for :meth:`ProxyHost.register_factory`."""
    return CalendarReadFacade(user, replica)
