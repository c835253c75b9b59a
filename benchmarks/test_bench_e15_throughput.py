"""E15 — raw simulation throughput: transport speed and shape gates."""

from repro.bench.harness import exp_e15_throughput
from repro.bench.metrics import format_table


def _table(**kwargs):
    table = exp_e15_throughput(**kwargs)
    print("\n" + format_table(table["title"], table["columns"], table["rows"]))
    return table


def test_e15_shape_and_behavioral_gate():
    table = _table(rpc_calls=3000, batches=30, engine_calls=80, chaos_ops=6)
    assert table["artifact"] == "BENCH_throughput.json"
    assert table["columns"] == [
        "workload",
        "mode",
        "messages",
        "wall (s)",
        "msgs/sec",
        "µs/msg",
    ]
    workloads = {r[0] for r in table["rows"]}
    assert workloads == {"rpc", "rpc_many n=64", "engine (E14 micro)", "chaos replay"}
    modes = {r[1] for r in table["rows"]}
    assert modes == {"default", "tracing on"}
    assert len(table["rows"]) == 8

    by_key = {(r[0], r[1]): r for r in table["rows"]}
    # Tracing adds spans and header bytes, never messages, on the raw
    # transport workloads (chaos timing legitimately shifts with tracing).
    for workload in ("rpc", "rpc_many n=64", "engine (E14 micro)"):
        assert by_key[(workload, "tracing on")][2] == by_key[(workload, "default")][2]


def test_e15_throughput_floor():
    """The perf gate CI runs: generous floors, so noise can't flake it.

    The ROADMAP success metric (≥10× the E14 tracing-off baseline) is
    recorded in the committed BENCH_throughput.json from a quiet
    machine; here the raw-rpc default row must clear 3× that baseline.
    """
    table = _table(rpc_calls=6000, batches=60, engine_calls=150, chaos_ops=6)
    rates = {(r[0], r[1]): r[4] for r in table["rows"]}
    baseline = rates[("engine (E14 micro)", "default")]
    rpc = rates[("rpc", "default")]
    assert rpc >= 3 * baseline, (
        f"rpc throughput {rpc} msgs/sec fell below 3x the E14 "
        f"baseline {baseline} msgs/sec — the transport hot path has rotted"
    )
    assert table["meta"]["vs_e14_baseline_x"] is not None
