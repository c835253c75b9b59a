"""Tests for the durable negotiation intent log."""

from repro.datastore.store import RelationalStore
from repro.txn.log import IntentLog
from repro.util.clock import VirtualClock


class TestIntentLogVolatile:
    def test_presumed_abort_for_unknown(self):
        log = IntentLog()
        assert not log.durable
        assert log.status("txn-x-1") == "abort"
        assert not log.has_commit("txn-x-1")
        assert not log.known("txn-x-1")

    def test_lifecycle_and_in_flight_order(self):
        log = IntentLog()
        log.begin("t1", {"change": None})
        log.begin("t2")
        log.begin("t3")
        log.decide("t2", "commit", {"locked": []})
        log.end("t1", "abort")
        assert [t for t, _ in log.in_flight()] == ["t2", "t3"]
        assert log.status("t1") == "abort"
        assert log.status("t2") == "commit"
        assert log.status("t3") == "abort"   # begun, undecided -> abort
        assert log.has_commit("t2")
        assert len(log) == 3

    def test_restart_wipes_volatile_log(self):
        log = IntentLog()
        log.begin("t1")
        log.decide("t1", "commit")
        log.restart()
        # The ablation's failure mode: pre-crash decisions are gone.
        assert log.status("t1") == "abort"
        assert log.in_flight() == []
        assert len(log) == 0


class TestIntentLogDurable:
    def test_restart_reloads_from_store(self):
        store = RelationalStore("intents")
        log = IntentLog(store=store, clock=VirtualClock())
        log.begin("t1", {"change": {"status": "reserved"}})
        log.decide("t1", "commit", {"locked": [{"user": "b"}]})
        log.begin("t2")
        log.end("t1", "commit")
        log.restart()
        assert log.status("t1") == "commit"
        assert log.in_flight() == [
            ("t2", {"begin": None, "decision": None, "ended": None})
        ]
        entry = dict(log._txns["t1"])
        assert entry["begin"] == {"change": {"status": "reserved"}}
        assert entry["decision"] == ("commit", {"locked": [{"user": "b"}]})
        assert entry["ended"] == "commit"

    def test_fresh_log_over_same_store_sees_history(self):
        # A brand-new IntentLog over the crashed node's store (what a
        # power-cycle constructs) replays the records and continues the
        # record sequence without colliding.
        store = RelationalStore("intents")
        first = IntentLog(store=store)
        first.begin("t1")
        second = IntentLog(store=store)
        assert [t for t, _ in second.in_flight()] == ["t1"]
        second.end("t1", "abort")
        assert len(store.select(IntentLog.TABLE)) == 2
        assert second.status("t1") == "abort"
