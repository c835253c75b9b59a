"""End-to-end calendar-operation benchmark.

    python3 benchmarks/e2e/run.py [--workload W] [--seed 7] [--seconds S] [--quick]

runs every workload (or only W), one after another, each twice in a fresh
single-threaded subprocess: untraced for the end-to-end metrics, then
traced for the per-layer metrics. It prints every metric with its unit
and exits 1 if any correctness check failed.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

is one such run. Its last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 benchmarks/e2e/run.py --repeat N [--vary-seed]

interleaves untraced runs of the workloads over N rounds and prints each
end-to-end metric's median and quartiles, flagging every metric whose
spread exceeds its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave the checkout as it was

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: where traced runs write their layer traces
OUT = HERE / "out"


def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    if isinstance(value, dict):
        return " ".join(f"{k}={_fmt(v)}" for k, v in value.items())
    return str(value)


def worker(args: argparse.Namespace) -> int:
    """One run of one workload; prints its metrics, then the result JSON."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {src / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from measure import traced, untraced

    workload = WORKLOADS[args.workload]
    if args.quick:
        workload = workload.quick()
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"layers-{workload.name}.trace.json"
        result = traced(workload, args.seed, args.seconds, str(trace_path))
    else:
        result = untraced(workload, args.seed, args.seconds)
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload.name:<13} {name:<42} {value:>14.4f} {unit}")
    notes = result["notes"]
    notes["violations"] = len(notes["violations"]), notes["violations"][:5]
    for key, value in notes.items():
        print(f"{workload.name:<13} # {key} {_fmt(value)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


def _spawn(name: str, seed: int, seconds: float, trace: int, quick: bool) -> dict | None:
    """Run one workload in a fresh process; its result, or None if it broke."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    ok = proc.returncode == 0 and lines
    print("\n".join(lines[:-1] if ok else lines), flush=True)
    if not ok:
        print(f"{name}: run failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def orchestrate(names: list[str], seed: int, seconds: float, quick: bool) -> int:
    failures = []
    for name in names:
        for trace in (0, 1):
            result = _spawn(name, seed, seconds, trace, quick)
            if result is None or not result["correct"]:
                failures.append(f"{name} ({'traced' if trace else 'untraced'})")
    if failures:
        print("FAILED: " + ", ".join(failures))
        return 1
    print(f"all correct: {', '.join(names)}")
    return 0


def repeat(names: list[str], seed: int, seconds: float, quick: bool,
           rounds: int, vary_seed: bool) -> int:
    bounds = {m["name"]: m["bound"] for m in _config()["end_to_end"]}
    values: dict[tuple[str, str], list[float]] = {}
    broken = 0
    for r in range(rounds):
        shift = r % len(names)
        for name in names[shift:] + names[:shift]:
            result = _spawn(name, seed + r if vary_seed else seed, seconds, 0, quick)
            if result is None or not result["correct"]:
                broken += 1
                continue
            for metric, entry in result["metrics"].items():
                values.setdefault((name, metric), []).append(entry["value"])
    flagged = 0
    print(f"{'workload':<13} {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        for metric, bound in bounds.items():
            runs = values.get((name, metric), [])
            if len(runs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(runs, n=4)
            median = statistics.median(runs)
            spread = (q3 - q1) / median if median else 0.0
            # Set-up time is reported, not gated on its spread.
            flag = spread > bound and metric != "setup_s"
            flagged += flag
            print(f"{name:<13} {metric:<26} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{100 * spread:>7.2f}% {100 * bound:>5.1f}%{'  WIDE' if flag else ''}")
    if broken:
        print(f"{broken} run(s) failed or were incorrect")
    return 1 if flagged or broken else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="measured time per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="make one run: 0 untraced, 1 traced")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test size: two episodes (availability: one of 200 ops)")
    parser.add_argument("--repeat", type=int, metavar="N",
                        help="N interleaved rounds of untraced runs, with spreads")
    parser.add_argument("--vary-seed", action="store_true",
                        help="with --repeat: round r uses seed + r")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _config()["run_seconds"]
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return worker(args)
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.repeat:
        return repeat(names, args.seed, args.seconds, args.quick, args.repeat, args.vary_seed)
    return orchestrate(names, args.seed, args.seconds, args.quick)


if __name__ == "__main__":
    sys.exit(main())
