"""Tests for the entity lock manager."""

import pytest

from repro.txn.locks import LockManager
from repro.util.clock import VirtualClock
from repro.util.errors import (
    LockNotHeldError,
    LockOwnerError,
    LockUnavailableError,
)


def test_try_lock_free_entity():
    lm = LockManager()
    assert lm.try_lock("slot", "t1")
    assert lm.holder("slot") == "t1"
    assert lm.is_locked("slot")


def test_try_lock_held_by_other_refused():
    lm = LockManager()
    lm.try_lock("slot", "t1")
    assert not lm.try_lock("slot", "t2")
    assert lm.refusals == 1


def test_reentrant_for_same_owner():
    lm = LockManager()
    assert lm.try_lock("slot", "t1")
    assert lm.try_lock("slot", "t1")
    lm.unlock("slot", "t1")
    assert lm.is_locked("slot")  # depth 2 -> 1
    lm.unlock("slot", "t1")
    assert not lm.is_locked("slot")


def test_lock_raises_when_unavailable():
    lm = LockManager()
    lm.lock("slot", "t1")
    with pytest.raises(LockUnavailableError):
        lm.lock("slot", "t2")


def test_unlock_not_held_raises():
    lm = LockManager()
    with pytest.raises(LockNotHeldError):
        lm.unlock("slot", "t1")
    lm.lock("slot", "t1")
    with pytest.raises(LockNotHeldError):
        lm.unlock("slot", "t2")


def test_unlock_wrong_owner_raises_typed_owner_error():
    lm = LockManager()
    lm.lock("slot", "t1")
    # Wrong-owner release is the *typed* subclass; an unheld entity is
    # the plain LockNotHeldError (previous test) — callers can tell a
    # stale compensation apart from a racing one.
    with pytest.raises(LockOwnerError):
        lm.unlock("slot", "t2")
    assert issubclass(LockOwnerError, LockNotHeldError)
    assert lm.holder("slot") == "t1"  # the held lock survived the attempt


def test_jsonish_entity_keys_canonicalized():
    lm = LockManager()
    assert lm.try_lock({"day": 3, "hour": 9}, "t1")
    # Same logical entity, different dict ordering.
    assert not lm.try_lock({"hour": 9, "day": 3}, "t2")
    assert lm.try_lock(["x", {"a": 1}], "t3")
    assert lm.holder(["x", {"a": 1}]) == "t3"


def test_acquisition_counter():
    lm = LockManager()
    lm.try_lock("a", "t")
    lm.try_lock("a", "t")
    assert lm.acquisitions == 2


def test_release_prefix_overlapping_txn_ids():
    lm = LockManager()
    lm.try_lock("e1", "txn-a-1")
    lm.try_lock("e2", "txn-a-2")
    lm.try_lock("e3", "txn-ab-1")  # overlapping node name, different prefix
    lm.try_lock("e4", "txn-b-1")
    assert lm.release_prefix("txn-a-") == 2
    assert not lm.is_locked("e1") and not lm.is_locked("e2")
    assert lm.holder("e3") == "txn-ab-1"
    assert lm.holder("e4") == "txn-b-1"


class TestLeases:
    def test_no_clock_means_no_expiry(self):
        lm = LockManager()
        lm.try_lock("e", "t1")
        assert lm.expired(1e9) == []

    def test_expired_after_lease_and_sorted(self):
        clock = VirtualClock()
        lm = LockManager(clock=clock, default_lease=20.0)
        lm.try_lock("b-ent", "t1")
        clock.advance(5.0)
        lm.try_lock("a-ent", "t2")
        clock.advance(14.0)  # t=19: nothing due yet
        assert lm.expired(clock.now()) == []
        clock.advance(7.0)   # t=26: both leases (20, 25) passed
        assert lm.expired(clock.now()) == [
            ("b-ent", "t1", 20.0),
            ("a-ent", "t2", 25.0),
        ]

    def test_reacquisition_refreshes_lease(self):
        clock = VirtualClock()
        lm = LockManager(clock=clock, default_lease=20.0)
        lm.try_lock("e", "t1")
        clock.advance(15.0)
        lm.try_lock("e", "t1")  # reentrant re-acquisition re-stamps
        clock.advance(10.0)     # t=25 < 15+20
        assert lm.expired(clock.now()) == []

    def test_renew_pushes_deadline_out(self):
        clock = VirtualClock()
        lm = LockManager(clock=clock, default_lease=20.0)
        lm.try_lock("e", "t1")
        clock.advance(25.0)
        assert lm.expired(clock.now()) != []
        assert lm.renew("e", "t1")
        assert lm.expired(clock.now()) == []
        assert not lm.renew("e", "t2")       # wrong owner
        assert not lm.renew("other", "t1")   # not locked

    def test_force_release_drops_whole_reentrant_stack(self):
        clock = VirtualClock()
        lm = LockManager(clock=clock)
        lm.try_lock("e", "t1")
        lm.try_lock("e", "t1")  # depth 2
        assert lm.force_release("e") == "t1"
        assert not lm.is_locked("e")
        assert lm.forced_releases == 1
        assert lm.force_release("e") is None  # idempotent
        assert lm.expired(1e9) == []          # deadline went with the lock

    def test_unlock_to_zero_clears_deadline(self):
        clock = VirtualClock()
        lm = LockManager(clock=clock)
        lm.try_lock("e", "t1")
        lm.unlock("e", "t1")
        clock.advance(100.0)
        assert lm.expired(clock.now()) == []
