"""Bench-trajectory regression gate: fresh runs vs committed artifacts.

The committed ``BENCH_*.json`` files are not documentation — they are
the performance claims this repo makes, and this module is what keeps
them honest. It reruns a small battery of experiments and compares the
results against the committed artifacts::

    python -m repro.bench.regress                  # gate HEAD
    python -m repro.bench.regress --artifact-dir d # gate against copies

Exit status 0 means every metric held; 1 means at least one regressed,
and the failing metrics are named on stdout (the CI ``slo-gate`` job
also runs the gate against a deliberately doctored artifact and asserts
it fails).

Two tolerance regimes, chosen per metric:

* **Simulated-time metrics** (E17 tail latencies, E18 attribution) are
  deterministic — the same seed must reproduce the same virtual-clock
  numbers — so the gate is tight: fresh may not be worse than committed
  by more than ``SIM_TOLERANCE`` (15%, slack for intentional re-runs
  after small timing-model changes; genuine regressions blow well past
  it).
* **Wall-clock metrics** (E15 µs/msg, E16 per-lookup latency) vary with
  the host, so the gate is a floor with ``WALL_TOLERANCE`` (4×) slack:
  wide enough for a noisy shared CI runner, narrow enough to catch the
  order-of-magnitude slowdowns that matter (a de-optimized transport
  path, accidentally quadratic hot loops).

Checks are one-sided: a *faster* fresh run passes — improvements land
by re-running ``python -m repro.bench.harness`` and committing the new
artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.bench.harness import (
    exp_e15_throughput,
    exp_e16_scale,
    exp_e17_hedging,
    exp_e18_attribution,
    FAST_OVERRIDES,
)

#: worse-than-committed slack for deterministic simulated-time metrics
SIM_TOLERANCE = 0.15
#: worse-than-committed slack for host-dependent wall-clock metrics
WALL_TOLERANCE = 4.0


class Gate:
    """Accumulates per-metric verdicts; remembers whether any failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.checked = 0

    def check(
        self,
        metric: str,
        committed: float,
        fresh: float,
        tolerance: float,
        *,
        lower_is_better: bool = True,
    ) -> None:
        """Fail if ``fresh`` is worse than ``committed`` beyond slack.

        ``tolerance`` is relative: 0.15 allows fresh up to 1.15× the
        committed value (lower-is-better) or down to 1/1.15× of it.
        """
        self.checked += 1
        if lower_is_better:
            bound = committed * (1.0 + tolerance)
            bad = fresh > bound
        else:
            bound = committed / (1.0 + tolerance)
            bad = fresh < bound
        delta = (fresh - committed) / committed * 100.0 if committed else 0.0
        line = f"{metric}: committed={committed:g} fresh={fresh:g} ({delta:+.1f}%)"
        if bad:
            self.failures.append(f"{line} exceeds tolerance {tolerance:g}")
            print(f"REGRESSION {self.failures[-1]}")
        else:
            print(f"ok {line}")

    def require(self, metric: str, condition: bool, detail: str = "") -> None:
        """Fail unless a boolean claim (a ``meta`` gate) holds."""
        self.checked += 1
        if condition:
            print(f"ok {metric}")
        else:
            self.failures.append(f"{metric} no longer holds {detail}".rstrip())
            print(f"REGRESSION {self.failures[-1]}")


def _load(artifact_dir: Path, name: str) -> dict[str, Any]:
    path = artifact_dir / name
    if not path.is_file():
        raise SystemExit(f"missing committed artifact {path}")
    return json.loads(path.read_text())


def check_e17(gate: Gate, artifact_dir: Path) -> None:
    """E17: hedged-read tail gates, full-size rerun (sim-time, cheap)."""
    committed = _load(artifact_dir, "BENCH_e17.json")
    fresh = exp_e17_hedging()
    old = {row[0]: row for row in committed["rows"]}
    new = {row[0]: row for row in fresh["rows"]}
    p99, msgs = 3, 4
    for mode in ("hedged", "no-hedge", "no-health"):
        gate.check(
            f"E17 {mode} p99 (sim ms)", old[mode][p99], new[mode][p99], SIM_TOLERANCE
        )
    gate.check(
        "E17 hedged msgs/lookup", old["hedged"][msgs], new["hedged"][msgs], SIM_TOLERANCE
    )
    gate.require(
        "E17 meta.hedged_p99_2x",
        fresh["meta"]["hedged_p99_2x"] is True,
        f"(p99_improvement_x={fresh['meta']['p99_improvement_x']})",
    )
    gate.require(
        "E17 meta.msgs_within_1p15",
        fresh["meta"]["msgs_within_1p15"] is True,
        f"(msg_ratio={fresh['meta']['msg_ratio']})",
    )


def check_e18(gate: Gate, artifact_dir: Path) -> None:
    """E18: attribution of the p99 tails, full-size rerun (sim-time)."""
    committed = _load(artifact_dir, "BENCH_e18.json")
    fresh = exp_e18_attribution()
    old = {(row[0], row[1]): row for row in committed["rows"]}
    new = {(row[0], row[1]): row for row in fresh["rows"]}
    elapsed, coverage = 3, 8
    for key in old:
        if key not in new:
            gate.require(f"E18 row {key}", False, "(row missing from fresh run)")
            continue
        gate.check(
            f"E18 {key[0]} {key[1]} elapsed (sim ms)",
            old[key][elapsed],
            new[key][elapsed],
            SIM_TOLERANCE,
        )
        gate.require(
            f"E18 {key[0]} {key[1]} coverage ~100%",
            abs(new[key][coverage] - 100.0) <= 0.1,
            f"(coverage={new[key][coverage]})",
        )
    gate.require(
        "E18 meta.tail_is_waiting", fresh["meta"]["tail_is_waiting"] is True
    )
    gate.require(
        "E18 meta.hedge_removes_slow_shard_tail",
        fresh["meta"]["hedge_removes_slow_shard_tail"] is True,
    )


def check_e15(gate: Gate, artifact_dir: Path) -> None:
    """E15: throughput floor, reduced rerun (wall-clock, wide slack)."""
    committed = _load(artifact_dir, "BENCH_throughput.json")
    fresh = exp_e15_throughput(**FAST_OVERRIDES["E15"])
    us = 5
    old = {(row[0], row[1]): row for row in committed["rows"]}
    new = {(row[0], row[1]): row for row in fresh["rows"]}
    for workload in ("rpc", "rpc_many n=64"):
        key = (workload, "default")
        gate.check(
            f"E15 {workload}/default µs/msg",
            old[key][us],
            new[key][us],
            WALL_TOLERANCE,
        )


def check_e16(gate: Gate, artifact_dir: Path) -> None:
    """E16: scale flatness + structure, reduced rerun (wall-clock)."""
    committed = _load(artifact_dir, "BENCH_scale.json")
    fresh = exp_e16_scale(**FAST_OVERRIDES["E16"])
    p50, msgs = 4, 6
    old = {row[0]: row for row in committed["rows"]}
    new = {row[0]: row for row in fresh["rows"]}
    for devices in (1_000, 10_000):
        gate.check(
            f"E16 {devices} devices p50 lookup (µs wall)",
            old[devices][p50],
            new[devices][p50],
            WALL_TOLERANCE,
        )
        gate.require(
            f"E16 {devices} devices msgs/lookup == 2",
            new[devices][msgs] == 2.0,
            f"(got {new[devices][msgs]}; a lookup is one shard round trip)",
        )
    flat = new[10_000][p50] <= 2.0 * max(new[1_000][p50], 1e-9)
    gate.require(
        "E16 flatness (10k p50 within 2x of 1k p50)",
        flat,
        f"(1k={new[1_000][p50]}µs 10k={new[10_000][p50]}µs)",
    )


CHECKS = {
    "E15": check_e15,
    "E16": check_e16,
    "E17": check_e17,
    "E18": check_e18,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--artifact-dir",
        default=".",
        help="directory holding the committed BENCH_*.json files "
        "(default: current directory)",
    )
    parser.add_argument(
        "--check",
        action="append",
        choices=sorted(CHECKS),
        help="run only this check (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    artifact_dir = Path(args.artifact_dir)
    gate = Gate()
    for name in args.check or sorted(CHECKS):
        print(f"-- {name}")
        CHECKS[name](gate, artifact_dir)
    print(
        f"\n{gate.checked} checks, {len(gate.failures)} regressions"
        + ("" if not gate.failures else ":")
    )
    for failure in gate.failures:
        print(f"  {failure}")
    return 1 if gate.failures else 0


if __name__ == "__main__":
    sys.exit(main())
