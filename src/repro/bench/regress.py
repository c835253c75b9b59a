"""Bench-trajectory regression gate: fresh runs vs committed artifacts.

The committed ``BENCH_*.json`` files are the performance claims this
repo makes, and this module keeps them honest. It reruns the
experiment behind every artifact in a directory and holds the fresh
table to the committed one::

    python -m repro.bench.regress                  # gate HEAD
    python -m repro.bench.regress --artifact-dir d # gate against copies
    python -m repro.bench.regress --check E17      # gate one artifact

Exit status 0 means every claim held; 1 means at least one regressed,
and the failing metrics are named on stdout.

Each experiment declares its claims beside its code with ``@gated``
(:mod:`repro.bench.harness`): the columns that key a row, and its
gated columns, every one lower-is-better, in two tolerance classes:

* ``sim`` — deterministic virtual-time and count columns: fresh may be
  at most 15% worse (slack for intentional re-runs after small
  timing-model changes; genuine regressions blow well past it);
* ``wall`` — host-dependent wall-clock columns: at most 4× worse, wide
  enough for a noisy CI runner, narrow enough to catch the
  order-of-magnitude slowdowns that matter.

Every artifact gets the same rules. Non-numeric cells (``"-"``) are
skipped; every boolean in the fresh table's ``meta`` must be true; an
experiment whose gates are all ``wall`` reruns at its ``FAST_OVERRIDES``
size and any other at full size, where a missing committed row fails;
an artifact whose experiment declares no gates fails. A *faster* fresh
run passes — improvements land by re-running
``python -m repro.bench.harness`` and committing the new artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.bench.harness import ALL_EXPERIMENTS, run_experiment

#: worse-than-committed slack per tolerance class: deterministic
#: simulated-time metrics, host-dependent wall-clock metrics
TOLERANCE = {"sim": 0.15, "wall": 4.0}


class Gate:
    """Accumulates per-metric verdicts; remembers whether any failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.checked = 0

    def check(self, metric: str, committed: float, fresh: float, tolerance: float) -> None:
        """Fail if ``fresh`` is worse than ``committed`` beyond slack.

        ``tolerance`` is relative: 0.15 allows fresh up to 1.15× the
        committed value. Every gated metric is lower-is-better.
        """
        self.checked += 1
        delta = (fresh - committed) / committed * 100.0 if committed else 0.0
        line = f"{metric}: committed={committed:g} fresh={fresh:g} ({delta:+.1f}%)"
        if fresh > committed * (1.0 + tolerance):
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


def _numeric(cell: Any) -> bool:
    return isinstance(cell, (int, float)) and not isinstance(cell, bool)


def gate_table(
    gate: Gate, committed: dict[str, Any], fresh: dict[str, Any], gates: dict, *, full_size: bool
) -> None:
    """Hold a fresh table to a committed artifact under declared gates."""
    name = committed["id"]

    def keyed(table: dict[str, Any]) -> dict[tuple, list[Any]]:
        index = [table["columns"].index(column) for column in gates["key"]]
        return {tuple(row[i] for i in index): row for row in table["rows"]}

    new = keyed(fresh)
    for key, old in keyed(committed).items():
        label = " ".join([name, *map(str, key)])
        if key not in new:
            if full_size:
                gate.require(f"{label} row", False, "(row missing from fresh run)")
            continue
        for cls in ("sim", "wall"):
            for column in gates[cls]:
                was = old[committed["columns"].index(column)]
                now = new[key][fresh["columns"].index(column)]
                if _numeric(was) and _numeric(now):
                    gate.check(f"{label} {column}", was, now, TOLERANCE[cls])
    for claim, holds in fresh.get("meta", {}).items():
        if isinstance(holds, bool):
            gate.require(f"{name} meta.{claim}", holds)


def gate_artifact(gate: Gate, committed: dict[str, Any]) -> None:
    """Rerun the experiment behind one committed artifact and gate it."""
    name = committed["id"]
    gates = getattr(ALL_EXPERIMENTS.get(name), "gates", None)
    if not gates:
        gate.require(f"{name} gates", False, "(its experiment declares none)")
        return
    full_size = bool(gates["sim"]) or not gates["wall"]
    fresh = run_experiment(name, fast=not full_size)
    gate_table(gate, committed, fresh, gates, full_size=full_size)


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
        metavar="ID",
        help="gate only the artifact of this experiment id "
        "(repeatable; default: every artifact)",
    )
    args = parser.parse_args(argv)
    paths = sorted(Path(args.artifact_dir).glob("BENCH_*.json"))
    artifacts = {doc["id"]: doc for doc in (json.loads(p.read_text()) for p in paths)}
    if not artifacts:
        raise SystemExit(f"no BENCH_*.json artifacts in {args.artifact_dir}")
    for name in args.check or ():
        if name not in artifacts:
            parser.error(f"no committed artifact for {name} (have: {', '.join(artifacts)})")
    gate = Gate()
    for name in args.check or artifacts:
        print(f"-- {name}")
        gate_artifact(gate, artifacts[name])
    print(
        f"\n{gate.checked} checks, {len(gate.failures)} regressions"
        + ("" if not gate.failures else ":")
    )
    for failure in gate.failures:
        print(f"  {failure}")
    return 1 if gate.failures else 0


if __name__ == "__main__":
    sys.exit(main())
