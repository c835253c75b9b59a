"""Tests for the benchmark support package itself."""

import json

import pytest

from repro.bench.harness import ALL_EXPERIMENTS, main, run_experiment
from repro.bench.metrics import Measurement, format_table, measure
from repro.bench.workloads import (
    MeetingRequest,
    build_calendar_population,
    meeting_request_stream,
    quorum_request,
)
from repro import SyDWorld


class TestWorkloads:
    def test_population_builder(self):
        app = build_calendar_population(3, seed=1, occupancy=0.5)
        assert sorted(app.users) == ["u000", "u001", "u002"]
        occ = app.calendar("u000").occupancy()
        assert 0.2 < occ < 0.8  # probabilistic but seeded

    def test_population_deterministic(self):
        a = build_calendar_population(3, seed=5, occupancy=0.4)
        b = build_calendar_population(3, seed=5, occupancy=0.4)
        for u in a.users:
            assert a.calendar(u).free_slots(0, 4) == b.calendar(u).free_slots(0, 4)

    def test_population_zero_occupancy(self):
        app = build_calendar_population(2, seed=1)
        assert app.calendar("u000").occupancy() == 0.0

    def test_request_stream_deterministic(self):
        users = ["a", "b", "c", "d"]
        s1 = list(meeting_request_stream(users, 5, seed=3))
        s2 = list(meeting_request_stream(users, 5, seed=3))
        assert s1 == s2
        assert all(isinstance(r, MeetingRequest) for r in s1)

    def test_request_stream_no_self_invites(self):
        users = ["a", "b", "c"]
        for req in meeting_request_stream(users, 20, seed=1, group_size=3):
            assert req.initiator not in req.participants

    def test_request_priorities_bounded(self):
        for req in meeting_request_stream(["a", "b"], 20, seed=2, max_priority=3):
            assert 0 <= req.priority <= 3

    def test_quorum_request_carves_users(self):
        users = [f"u{i}" for i in range(12)]
        initiator, participants, must, groups = quorum_request(
            users, must=2, group_sizes=(4, 3), ks=(2, 1)
        )
        assert initiator == "u0"
        assert must == ["u1", "u2"]
        assert len(groups) == 2
        assert groups[0].k == 2 and len(groups[0].members) == 4
        assert len(participants) == 2 + 4 + 3


class TestMetrics:
    def test_measure_counts_traffic(self):
        world = SyDWorld(seed=1)
        world.add_node("a")
        world.add_node("b")
        with measure(world) as m:
            world.node("a").directory.lookup_user("b")
        assert m.messages == 2
        assert m.bytes > 0
        assert m.sim_elapsed > 0
        assert m.sim_latency == pytest.approx(m.sim_elapsed)

    def test_measure_empty_block(self):
        world = SyDWorld(seed=1)
        with measure(world) as m:
            pass
        assert m == Measurement()

    def test_format_table_alignment(self):
        text = format_table("T", ["col", "n"], [["a", 1], ["long-cell", 2.5]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        # header, separator, and the two data rows follow the title.
        assert "col" in lines[2]
        assert "long-cell" in lines[5]
        # Separator width matches the widest column.
        assert lines[3].split("  ")[0] == "-" * len("long-cell")

    def test_format_table_empty_rows(self):
        text = format_table("T", ["a"], [])
        assert "a" in text


class TestHarness:
    def test_experiment_registry_complete(self):
        assert set(ALL_EXPERIMENTS) == {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E8B", "E9",
            "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18",
        }

    @pytest.mark.parametrize("exp_id", ["E1", "E3", "E8B"])
    def test_run_experiment_fast(self, exp_id):
        table = run_experiment(exp_id, fast=True)
        assert table["rows"]
        assert len(table["columns"]) == len(table["rows"][0])
        assert table["id"].upper() == exp_id

    def test_json_dir_is_created(self, tmp_path, capsys):
        # Regression: a --json-dir that did not exist yet failed in
        # write_json after the experiment had already run.
        json_dir = tmp_path / "new" / "dir"
        assert main(["--exp", "E3", "--fast", "--json-dir", str(json_dir)]) == 0
        path = json_dir / "BENCH_e3.json"
        assert f"[wrote {path}]" in capsys.readouterr().out
        assert json.loads(path.read_text())["id"] == "E3"

    def test_e17_shape_and_gates(self):
        table = run_experiment("E17", fast=True)
        assert table["artifact"] == "BENCH_e17.json"
        assert [r[0] for r in table["rows"]] == ["hedged", "no-hedge", "no-health"]
        assert len(table["columns"]) == len(table["rows"][0])
        by_mode = {row[0]: row for row in table["rows"]}
        hedges_col = table["columns"].index("hedges")
        assert by_mode["hedged"][hedges_col] > 0
        assert by_mode["no-hedge"][hedges_col] == 0
        # The headline claims hold even at the reduced fast sweep.
        assert table["meta"]["hedged_p99_2x"] is True
        assert table["meta"]["msgs_within_1p15"] is True
