"""Tests for negotiation execution (§4.3 semantics).

The ``trio`` fixture gives users a/b/c each exposing a ResourceObject
('res' service) with free entities slot1/slot2.
"""

import pytest

from repro.txn.coordinator import (
    AND,
    OR,
    XOR,
    Constraint,
    ConstraintKind,
    Participant,
    at_least,
    exactly,
)


def part(user, entity="slot1"):
    return Participant(user, entity, "res")


def status_of(nodes, user, key="slot1"):
    from repro.datastore.predicate import where  # noqa: F401

    return nodes[user].store.get("resources", key)["status"]


class TestConstraint:
    def test_and_needs_all(self):
        assert AND.satisfied(3, 3)
        assert not AND.satisfied(2, 3)

    def test_or_needs_one(self):
        assert OR.satisfied(1, 5)
        assert not OR.satisfied(0, 5)

    def test_xor_needs_exactly_one(self):
        assert XOR.satisfied(1, 3)
        assert not XOR.satisfied(2, 3)
        assert not XOR.satisfied(0, 3)

    def test_k_of_n(self):
        assert at_least(2).satisfied(2, 5)
        assert at_least(2).satisfied(4, 5)
        assert not at_least(2).satisfied(1, 5)
        assert exactly(2).satisfied(2, 5)
        assert not exactly(2).satisfied(3, 5)

    def test_k_required(self):
        with pytest.raises(ValueError):
            Constraint(ConstraintKind.AT_LEAST_K)

    def test_describe(self):
        assert AND.describe() == "and"
        assert at_least(3).describe() == "at_least_k(k=3)"


class TestNegotiationAnd:
    def test_all_free_commits_everywhere(self, trio):
        a = trio["a"]
        result = a.coordinator.execute(part("a"), [part("b"), part("c")], AND)
        assert result.ok
        assert result.changed == ["a", "b", "c"]
        for user in "abc":
            assert status_of(trio, user) == "reserved"

    def test_one_busy_aborts_everywhere(self, trio):
        trio["c"].store.update("resources", None, {"status": "busy"})
        a = trio["a"]
        result = a.coordinator.execute(part("a"), [part("b"), part("c")], AND)
        assert not result.ok
        assert result.refused == ["c"]
        assert "constraint and not met" in result.failure_reason
        # Atomicity: nothing changed anywhere; no locks left behind.
        assert status_of(trio, "a") == "free"
        assert status_of(trio, "b") == "free"
        for user in "abc":
            assert trio[user].locks.locked_count() == 0

    def test_unreachable_target_counts_as_refusal(self, trio, world):
        world.take_down("b")
        result = trio["a"].coordinator.execute(part("a"), [part("b"), part("c")], AND)
        assert not result.ok
        assert result.refused == ["b"]
        assert status_of(trio, "c") == "free"

    def test_initiator_busy_aborts_immediately(self, trio):
        trio["a"].store.update("resources", None, {"status": "busy"})
        result = trio["a"].coordinator.execute(part("a"), [part("b")], AND)
        assert not result.ok
        assert "initiator" in result.failure_reason
        assert status_of(trio, "b") == "free"

    def test_no_locks_left_after_commit(self, trio):
        trio["a"].coordinator.execute(part("a"), [part("b"), part("c")], AND)
        for user in "abc":
            assert trio[user].locks.locked_count() == 0


class TestNegotiationOr:
    def test_one_available_is_enough(self, trio):
        trio["b"].store.update("resources", None, {"status": "busy"})
        result = trio["a"].coordinator.execute(part("a"), [part("b"), part("c")], OR)
        assert result.ok
        assert result.changed == ["a", "c"]
        assert status_of(trio, "b") == "busy"   # refused target untouched
        assert status_of(trio, "c") == "reserved"

    def test_none_available_aborts(self, trio):
        for u in "bc":
            trio[u].store.update("resources", None, {"status": "busy"})
        result = trio["a"].coordinator.execute(part("a"), [part("b"), part("c")], OR)
        assert not result.ok
        assert status_of(trio, "a") == "free"


class TestNegotiationXor:
    def test_exactly_one_commits(self, trio):
        trio["b"].store.update("resources", None, {"status": "busy"})
        result = trio["a"].coordinator.execute(part("a"), [part("b"), part("c")], XOR)
        assert result.ok
        assert result.changed == ["a", "c"]

    def test_two_available_aborts(self, trio):
        result = trio["a"].coordinator.execute(part("a"), [part("b"), part("c")], XOR)
        assert not result.ok
        # Both were locked during negotiation but nothing changed.
        assert status_of(trio, "b") == "free"
        assert status_of(trio, "c") == "free"
        for user in "abc":
            assert trio[user].locks.locked_count() == 0


class TestKofN:
    def test_at_least_k_met(self, trio):
        trio["b"].store.update("resources", None, {"status": "busy"})
        result = trio["a"].coordinator.execute(
            part("a"), [part("b"), part("c")], at_least(1)
        )
        assert result.ok

    def test_at_least_k_not_met(self, trio):
        trio["b"].store.update("resources", None, {"status": "busy"})
        result = trio["a"].coordinator.execute(
            part("a"), [part("b"), part("c")], at_least(2)
        )
        assert not result.ok

    def test_exactly_k(self, trio):
        result = trio["a"].coordinator.execute(
            part("a"), [part("b"), part("c")], exactly(2)
        )
        assert result.ok
        assert set(result.changed) == {"a", "b", "c"}


class TestChangePayload:
    def test_custom_change_applied(self, trio):
        result = trio["a"].coordinator.execute(
            part("a"), [part("b")], AND, change={"status": "meeting", "value": {"id": 7}}
        )
        assert result.ok
        row = trio["b"].store.get("resources", "slot1")
        assert row["status"] == "meeting"
        assert row["value"] == {"id": 7}


class TestContention:
    def test_second_negotiation_for_same_slot_fails(self, trio):
        a = trio["a"]
        r1 = a.coordinator.execute(part("a"), [part("b"), part("c")], AND)
        assert r1.ok
        # Slot now reserved everywhere; a new AND negotiation must fail.
        r2 = trio["b"].coordinator.execute(part("b"), [part("a"), part("c")], AND)
        assert not r2.ok

    def test_disjoint_entities_do_not_interfere(self, trio):
        r1 = trio["a"].coordinator.execute(part("a", "slot1"), [part("b", "slot1")], AND)
        r2 = trio["a"].coordinator.execute(part("a", "slot2"), [part("c", "slot2")], AND)
        assert r1.ok and r2.ok


class TestCountersAndLog:
    def test_coordinator_counters(self, trio):
        a = trio["a"]
        a.coordinator.execute(part("a"), [part("b")], AND)
        trio["b"].store.update("resources", None, {"status": "busy"})
        a.coordinator.execute(part("a", "slot2"), [part("b")], AND)
        assert a.coordinator.executed == 2
        assert a.coordinator.committed == 1
