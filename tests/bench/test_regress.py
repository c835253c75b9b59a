"""The regression gate's rules, on synthetic committed/fresh tables.

No experiment runs here: ``gate_table`` is driven with hand-built
tables, and ``gate_artifact`` only with artifacts whose experiment
declares no gates (those fail before anything is rerun).
"""

import json
from pathlib import Path

import pytest

from repro.bench.harness import ALL_EXPERIMENTS, FAST_OVERRIDES
from repro.bench.regress import Gate, gate_artifact, gate_table, main

REPO = Path(__file__).resolve().parents[2]

GATES = {"key": ("mode",), "sim": ("msgs", "sim ms"), "wall": ("µs wall",)}
COLUMNS = ["mode", "msgs", "sim ms", "µs wall"]


def table(*rows, **meta):
    return {"id": "E0", "columns": COLUMNS, "rows": [list(r) for r in rows], "meta": meta}


def run_gate(committed, fresh, full_size=True):
    gate = Gate()
    gate_table(gate, committed, fresh, GATES, full_size=full_size)
    return gate


def test_unchanged_table_passes_every_cell():
    committed = table(("a", 10, 5.0, 100.0), ("b", 20, 7.5, 200.0))
    gate = run_gate(committed, table(("a", 10, 5.0, 100.0), ("b", 20, 7.5, 200.0)))
    assert gate.failures == []
    assert gate.checked == 6


def test_doctored_sim_cell_fails():
    # A committed claim of half the messages HEAD delivers is a regression.
    gate = run_gate(table(("a", 5, 5.0, 100.0)), table(("a", 10, 5.0, 100.0)))
    assert len(gate.failures) == 1
    assert gate.failures[0].startswith("E0 a msgs: committed=5 fresh=10 (+100.0%)")


def test_sim_cell_within_fifteen_percent_passes():
    gate = run_gate(table(("a", 100, 5.0, 1.0)), table(("a", 114, 5.0, 1.0)))
    assert gate.failures == []
    gate = run_gate(table(("a", 100, 5.0, 1.0)), table(("a", 116, 5.0, 1.0)))
    assert [f.split(":")[0] for f in gate.failures] == ["E0 a msgs"]


def test_wall_cell_within_four_times_slack_passes():
    gate = run_gate(table(("a", 10, 5.0, 100.0)), table(("a", 10, 5.0, 450.0)))
    assert gate.failures == []
    gate = run_gate(table(("a", 10, 5.0, 100.0)), table(("a", 10, 5.0, 501.0)))
    assert [f.split(":")[0] for f in gate.failures] == ["E0 a µs wall"]


def test_faster_fresh_run_passes():
    gate = run_gate(table(("a", 10, 5.0, 100.0)), table(("a", 1, 0.5, 1.0)))
    assert gate.failures == []


def test_dash_cell_is_skipped():
    gate = run_gate(table(("a", 10, "-", 100.0)), table(("a", 10, "-", 100.0)))
    assert gate.failures == []
    assert gate.checked == 2


def test_zero_committed_cell_admits_no_increase():
    assert run_gate(table(("a", 0, 0, 1.0)), table(("a", 0, 0, 1.0))).failures == []
    gate = run_gate(table(("a", 0, 0, 1.0)), table(("a", 1, 0, 1.0)))
    assert len(gate.failures) == 1


def test_row_missing_from_full_size_rerun_fails():
    committed = table(("a", 10, 5.0, 1.0), ("b", 10, 5.0, 1.0))
    gate = run_gate(committed, table(("a", 10, 5.0, 1.0)))
    assert gate.failures == ["E0 b row no longer holds (row missing from fresh run)"]


def test_row_missing_from_reduced_rerun_is_skipped():
    committed = table(("a", 10, 5.0, 1.0), ("b", 10, 5.0, 1.0))
    gate = run_gate(committed, table(("a", 10, 5.0, 1.0)), full_size=False)
    assert gate.failures == []


def test_rows_match_by_key_not_position():
    committed = table(("a", 10, 5.0, 1.0), ("b", 20, 5.0, 1.0))
    gate = run_gate(committed, table(("b", 20, 5.0, 1.0), ("a", 10, 5.0, 1.0)))
    assert gate.failures == []


def test_false_meta_boolean_fails():
    committed = table(("a", 10, 5.0, 1.0))
    fresh = table(("a", 10, 5.0, 1.0), flat=True, tail_cut=False, ratio=0.0)
    gate = run_gate(committed, fresh)
    assert gate.failures == ["E0 meta.tail_cut no longer holds"]
    assert gate.checked == 5  # three cells and the two boolean claims


@pytest.mark.parametrize("exp_id", ["E5", "E99"])
def test_experiment_without_gates_fails(exp_id):
    gate = Gate()
    gate_artifact(gate, {"id": exp_id, "columns": ["x"], "rows": [[1]], "meta": {}})
    assert gate.failures == [f"{exp_id} gates no longer holds (its experiment declares none)"]


def test_cli_fails_an_ungated_artifact(tmp_path, capsys):
    (tmp_path / "BENCH_e5.json").write_text(json.dumps({"id": "E5", "rows": []}))
    assert main(["--artifact-dir", str(tmp_path)]) == 1
    assert "REGRESSION E5 gates" in capsys.readouterr().out


def test_cli_rejects_a_check_without_artifact(tmp_path):
    (tmp_path / "BENCH_e5.json").write_text(json.dumps({"id": "E5", "rows": []}))
    with pytest.raises(SystemExit) as exc:
        main(["--artifact-dir", str(tmp_path), "--check", "E3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("path", sorted(REPO.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_artifact_declares_gates_on_its_columns(path):
    doc = json.loads(path.read_text())
    gates = ALL_EXPERIMENTS[doc["id"]].gates
    assert gates["sim"] or gates["wall"]
    for column in (*gates["key"], *gates["sim"], *gates["wall"]):
        assert column in doc["columns"], column
    keys = [tuple(row[doc["columns"].index(c)] for c in gates["key"]) for row in doc["rows"]]
    assert len(set(keys)) == len(keys), "row keys must be unique"


def test_reduced_e16_rerun_reaches_10k_devices():
    # E16's gates are all wall, so regress reruns its reduced sweep; the
    # committed 10k row is gated only if that sweep still reaches it.
    assert 10_000 in FAST_OVERRIDES["E16"]["populations"]


def test_cli_refuses_a_directory_without_artifacts(tmp_path):
    with pytest.raises(SystemExit, match="no BENCH_"):
        main(["--artifact-dir", str(tmp_path)])
