"""Unit tests for the receiver-side dedup table (repro.net.dedup)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datastore.store import RelationalStore
from repro.datastore.wal import ChangeJournal, attach_journal
from repro.net.dedup import (
    EXECUTE,
    FENCED,
    REPLAY,
    SUPPRESS,
    DedupPersistence,
    DedupTable,
)


class TestAdmitRecordReplay:
    def test_first_sighting_executes_then_replays(self):
        table = DedupTable()
        verdict, cached = table.admit("a", 1, 1)
        assert (verdict, cached) == (EXECUTE, None)
        table.record("a", 1, 1, {"result": 42})
        verdict, cached = table.admit("a", 1, 1)
        assert verdict == REPLAY
        assert cached == {"result": 42}
        assert table.hits == 1 and table.executions == 1

    def test_distinct_seqs_are_independent(self):
        table = DedupTable()
        table.record("a", 1, 1, {"result": "x"})
        assert table.admit("a", 1, 2)[0] == EXECUTE

    def test_distinct_senders_are_independent(self):
        table = DedupTable()
        table.record("a", 1, 1, {"result": "x"})
        assert table.admit("b", 1, 1)[0] == EXECUTE

    def test_watermark_advances_contiguously(self):
        table = DedupTable()
        for seq in (1, 2, 3):
            table.record("a", 1, seq, {"result": seq})
        assert table.watermark("a") == (1, 3)

    def test_out_of_order_seqs_park_in_pending_then_drain(self):
        table = DedupTable()
        table.record("a", 1, 1, {"result": 1})
        table.record("a", 1, 3, {"result": 3})  # gap at 2
        assert table.watermark("a") == (1, 1)
        table.record("a", 1, 2, {"result": 2})  # gap fills, 3 drains
        assert table.watermark("a") == (1, 3)

    def test_gap_never_advances_watermark(self):
        # An abandoned seq (request dropped, caller gave up) must stall
        # the contiguous point — seqs above it stay replayable but are
        # never folded into the watermark.
        table = DedupTable()
        table.record("a", 1, 2, {"result": 2})
        table.record("a", 1, 3, {"result": 3})
        assert table.watermark("a") == (1, 0)
        assert table.admit("a", 1, 3)[0] == REPLAY


class TestBounds:
    def test_lru_eviction_at_capacity(self):
        table = DedupTable(capacity=3)
        for seq in range(1, 5):
            table.record("a", 1, seq, {"result": seq})
        assert table.cached_replies() == 3
        assert table.evicted == 1
        # The oldest reply went; admitting its key suppresses (processed,
        # reply gone) instead of replaying or re-executing.
        assert table.admit("a", 1, 1)[0] == SUPPRESS
        assert table.suppressed == 1

    def test_watermark_pruning_below_window(self):
        table = DedupTable(window=2)
        for seq in range(1, 7):
            table.record("a", 1, seq, {"result": seq})
        # contig=6, window=2: seqs <= 4 are pruned.
        assert table.admit("a", 1, 6)[0] == REPLAY
        assert table.admit("a", 1, 1)[0] == SUPPRESS


class TestIncarnationFencing:
    def test_older_incarnation_is_fenced(self):
        table = DedupTable()
        table.record("a", 2, 1, {"result": "new"})
        assert table.admit("a", 1, 9)[0] == FENCED
        assert table.fenced == 1

    def test_new_incarnation_resets_sequence_space(self):
        table = DedupTable()
        table.record("a", 1, 1, {"result": "old"})
        # Seq 1 of incarnation 2 is NOT a duplicate of seq 1 of inc 1.
        assert table.admit("a", 2, 1)[0] == EXECUTE
        # The old-epoch reply was pruned at the transition.
        assert table.cached_replies() == 0

    def test_fencing_leaves_other_senders_alone(self):
        table = DedupTable()
        table.record("a", 1, 1, {"result": "a"})
        table.record("b", 1, 1, {"result": "b"})
        table.admit("a", 2, 1)
        assert table.admit("b", 1, 1)[0] == REPLAY


class TestPersistenceAndRestart:
    def test_restart_without_persistence_forgets_everything(self):
        table = DedupTable()
        table.record("a", 1, 1, {"result": 1})
        table.restart()
        assert table.watermark("a") is None
        assert table.admit("a", 1, 1)[0] == EXECUTE

    def test_watermark_survives_restart_reply_cache_does_not(self):
        store = RelationalStore("n1")
        table = DedupTable(persist=DedupPersistence(store))
        table.record("a", 1, 1, {"result": 1})
        table.restart()
        assert table.watermark("a") == (1, 1)
        assert table.cached_replies() == 0
        # Processed but reply lost with the power-cycle: suppress, never
        # re-execute.
        assert table.admit("a", 1, 1)[0] == SUPPRESS

    def test_persistence_round_trips_pending_set(self):
        store = RelationalStore("n2")
        table = DedupTable(persist=DedupPersistence(store))
        table.record("a", 3, 2, {"result": 2})  # out of order: pending={2}
        reloaded = DedupPersistence(store).load()
        assert reloaded["a"].incarnation == 3
        assert reloaded["a"].contig == 0
        assert reloaded["a"].pending == {2}

    def test_persistence_updates_existing_row(self):
        store = RelationalStore("n3")
        table = DedupTable(persist=DedupPersistence(store))
        table.record("a", 1, 1, {"result": 1})
        table.record("a", 1, 2, {"result": 2})
        assert len(store.select(DedupPersistence.TABLE)) == 1
        assert DedupPersistence(store).load()["a"].contig == 2


class TestPersistedWatermarks:
    """The ``_syd_dedup`` rows track the in-memory watermarks write for write."""

    @settings(max_examples=40, deadline=None)
    @given(
        orders=st.lists(
            st.permutations(list(range(1, 9))).flatmap(
                lambda seqs: st.integers(0, 8).map(lambda n: seqs[:n])
            ),
            min_size=3,
            max_size=3,
        ),
        interleave=st.randoms(use_true_random=False),
    )
    def test_rows_equal_watermarks_and_one_journal_entry_per_record(self, orders, interleave):
        store = RelationalStore("n")
        persist = DedupPersistence(store)
        journal = ChangeJournal()
        attach_journal(store, journal)
        table = DedupTable(persist=persist)
        calls = [(sender, seq) for sender, seqs in zip("abc", orders) for seq in seqs]
        interleave.shuffle(calls)
        for sender, seq in calls:
            table.record(sender, 1, seq, {"result": seq})

        def watermarks(senders):
            return {s: (w.incarnation, w.contig, sorted(w.pending)) for s, w in senders.items()}

        before = watermarks(table._senders)
        rows = {
            r["sender"]: (r["incarnation"], r["contig"], r["pending"])
            for r in store.select(DedupPersistence.TABLE)
        }
        assert rows == before
        assert len(journal) == len(calls)
        assert [e.op for e in journal.entries()].count("insert") == len(rows)
        table.restart()
        assert watermarks(table._senders) == before
