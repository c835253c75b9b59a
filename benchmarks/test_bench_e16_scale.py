"""E16 — population scale: directory latency stays flat as devices grow.

Two layers of checking: a small live sweep (so the experiment code is
exercised in CI at real populations, just smaller ones) and schema /
monotonicity / flatness validation of the committed ``BENCH_scale.json``
artifact generated from the full 1k → 1M sweep.
"""

import json
from pathlib import Path

from repro.bench.harness import exp_e16_scale
from repro.bench.metrics import format_table

COLUMNS = [
    "devices",
    "shards",
    "replicas",
    "seed (s)",
    "p50 lookup (µs)",
    "p95 lookup (µs)",
    "msgs/lookup",
    "batch msgs/key",
]


def _table(**kwargs):
    table = exp_e16_scale(**kwargs)
    print("\n" + format_table(table["title"], table["columns"], table["rows"]))
    return table


def test_e16_live_sweep_shape_and_flatness():
    """A reduced sweep: 1k single-node vs 50k across two shards. The
    flatness gate is the headline claim — population grew 50×, shards
    grew proportionally, per-op latency must stay within 2×."""
    table = _table(
        populations=(1_000, 50_000),
        big_population=0,
        lookups=150,
        batches=4,
        per_shard=25_000,
    )
    assert table["id"] == "E16"
    assert table["artifact"] == "BENCH_scale.json"
    assert table["columns"] == COLUMNS
    devices = [row[0] for row in table["rows"]]
    assert devices == sorted(devices) == [1_000, 50_000]
    by_pop = {row[0]: row for row in table["rows"]}
    assert by_pop[1_000][1:3] == [1, 1]  # below threshold: plain path
    assert by_pop[50_000][1:3] == [2, 2]  # proportional shards, R=2
    for row in table["rows"]:
        assert row[6] <= 4, f"lookup cost {row[6]} messages at {row[0]} devices"
        assert row[7] <= 4
    assert table["meta"]["flat_within_2x"] is True
    assert table["meta"]["flat_pair"] == [1_000, 50_000]


def test_e16_committed_artifact():
    """The committed full-sweep artifact: schema, monotone device rows,
    and p50 at 100k ≤ 2× the 1k row (EXPERIMENTS.md's E16 claim)."""
    path = Path(__file__).resolve().parent.parent / "BENCH_scale.json"
    payload = json.loads(path.read_text())
    assert payload["id"] == "E16"
    assert payload["columns"] == COLUMNS
    rows = payload["rows"]
    devices = [row[0] for row in rows]
    assert devices == sorted(devices), "device-count rows must be monotone"
    assert {1_000, 10_000, 100_000} <= set(devices)
    by_pop = {row[0]: row for row in rows}
    # Shards scale with population.
    assert by_pop[1_000][1] == 1 and by_pop[100_000][1] > 1
    if 1_000_000 in by_pop:
        assert by_pop[1_000_000][1] >= by_pop[100_000][1]
    # Flat latency: p50 at 100k within 2x of the 1k row.
    assert by_pop[100_000][4] <= 2 * by_pop[1_000][4], (
        f"p50 at 100k devices ({by_pop[100_000][4]}µs) exceeds 2x the 1k row "
        f"({by_pop[1_000][4]}µs) — lookup latency is no longer flat"
    )
    assert payload["meta"]["flat_within_2x"] is True
    # Every row is a single-shard conversation on the wire.
    for row in rows:
        assert row[6] <= 4 and row[7] <= 4
