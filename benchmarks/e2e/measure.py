"""One measured run of one workload.

``untraced`` gives the end-to-end metrics. ``traced`` gives the
per-layer metrics: it runs every episode twice, first plainly and then
under the layer ledger, checks that the two runs produced identical
outputs (the wrappers perturb nothing) and compares their throughput
(the ledger's overhead).

Virtual-time and count metrics come from the run's first ``episodes``
episodes, so they are exact for a given seed. Wall-time metrics come from
every episode of the run: after those episodes the run cycles through
them again until ``seconds`` have passed.

The speed of a shared host drifts by tens of percent within minutes, far
more than the changes the benchmark must resolve. A fixed pure-Python
loop is therefore timed between consecutive episodes, and the
end-to-end wall times are divided by its duration around each episode:
they read as seconds on a reference host, one on which the loop takes
exactly 1 ms.
"""

from __future__ import annotations

import math
import resource
import statistics
from time import perf_counter

from ledger import RESIDUAL, Ledger
from workloads import Phases, ScheduleProbe

#: end-to-end metric -> unit
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_wall_us.p90": "us",
    "schedule_latency_ms.p50": "ms",
    "schedule_latency_ms.p99": "ms",
    "msgs_per_op": "msg/op",
    "bytes_per_op": "B/op",
    "peak_rss_mb": "MB",
}

#: per-layer metrics beyond the three each layer gets -> unit
LAYER_EXTRAS = {
    "net.retries_per_op": "count/op",
    "net.retry_success_ratio": "ratio",
    "net.dedup_replays_per_op": "count/op",
    "net.hedge_win_ratio": "ratio",
    "kernel.directory.cache_hit_ratio": "ratio",
    "txn.commit_ratio": "ratio",
    "op_fail_ratio": "ratio",
    "chaos.check_us_per_op": "us",
    "ledger.coverage_pct": "%",
    "ledger.overhead_pct": "%",
    "host.calib_ms": "ms",
}


def per_layer_units(layers: list[str]) -> dict[str, str]:
    """Every per-layer metric name -> unit."""
    units = {}
    for layer in [*layers, RESIDUAL]:
        units[f"{layer}.self_us_per_op"] = "us"
        units[f"{layer}.share_pct"] = "%"
        if layer != RESIDUAL:
            units[f"{layer}.calls_per_op"] = "calls/op"
    units.update(LAYER_EXTRAS)
    return units


def calibrate() -> float:
    """Duration of a fixed pure-Python loop, in ms (about 1 ms)."""
    start = perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return (perf_counter() - start) * 1e3


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when nothing was attempted."""
    return num / den if den else 0.0


def _ops_per_s(episodes) -> float:
    """Successful ops per reference second of the run phases."""
    return sum(e.ok for e in episodes) / sum(e.run_s / e.calib_ms for e in episodes)


class _Calibrated:
    """Runs episodes with a calibration loop between each two, and stores
    the mean of the loops before and after each episode on it."""

    def __init__(self, workload, seed: int, probe: ScheduleProbe):
        self.workload, self.seed, self.probe = workload, seed, probe
        self.loops = [calibrate()]

    def episode(self, index: int, ledger=None, capture=None):
        episode = self.workload.episode(self.seed, index, Phases(ledger), self.probe, capture)
        self.loops.append(calibrate())
        episode.calib_ms = (self.loops[-2] + self.loops[-1]) / 2
        return episode


def _prepared(workload, seed: int) -> _Calibrated:
    probe = ScheduleProbe()
    probe.install()
    # Fill lazy imports and caches before anything is timed.
    workload.quick().episode(seed, 0, Phases(), probe)
    return _Calibrated(workload, seed, probe)


def untraced(workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one run."""
    runner = _prepared(workload, seed)
    episodes = []
    start = perf_counter()
    while len(episodes) < workload.episodes or perf_counter() - start < seconds:
        episodes.append(runner.episode(len(episodes) % workload.episodes))
    sample = episodes[: workload.episodes]
    drawn = sum(e.drawn for e in sample)
    op_virtual = [v for e in sample for v in e.op_virtual_s]
    schedule = [v for e in sample for v in e.schedule_s]
    op_wall = [w / e.calib_ms for e in episodes for w in e.op_wall_s]
    metrics = {
        "setup_s": statistics.median(e.setup_s / e.calib_ms for e in episodes),
        "ops_per_s": _ops_per_s(episodes),
        "op_wall_us.p90": percentile(op_wall, 90) * 1e6,
        "schedule_latency_ms.p50": percentile(schedule, 50) * 1e3,
        "schedule_latency_ms.p99": percentile(schedule, 99) * 1e3,
        "msgs_per_op": sum(e.messages for e in sample) / drawn,
        "bytes_per_op": sum(e.bytes for e in sample) / drawn,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    first = {e.index: e.fingerprint for e in sample}
    violations = [v for e in episodes for v in e.violations]
    reproducible = all(e.fingerprint == first[e.index] for e in episodes)
    return {
        "correct": not violations and reproducible,
        "attempted": drawn - sum(e.skipped for e in sample),
        "failed": sum(e.failed for e in sample),
        "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END.items()},
        "notes": {
            "episodes": len(episodes),
            "host_ops_per_s": sum(e.ok for e in episodes) / sum(e.run_s for e in episodes),
            "calib_ms": statistics.median(runner.loops),
            "schedule_samples": len(schedule),
            # All-op virtual latency mixes zero-time local ops with remote
            # ones, so its percentiles jump between latency levels from
            # seed to seed: printed, not gated.
            "op_latency_ms": {
                "p50": percentile(op_virtual, 50) * 1e3,
                "p99": percentile(op_virtual, 99) * 1e3,
                "samples": len(op_virtual),
            },
            "violations": violations,
            "reproducible": reproducible,
        },
    }


def traced(workload, seed: int, seconds: float, trace_path: str | None) -> dict:
    """Per-layer metrics of one run; ``trace_path`` gets the first
    episode's layer spans."""
    runner = _prepared(workload, seed)
    ledger = Ledger()
    plain, timed = [], []
    start = perf_counter()
    while not timed or perf_counter() - start < seconds:
        index = len(timed) % workload.episodes
        plain.append(runner.episode(index))
        ledger.install()
        try:
            timed.append(runner.episode(index, ledger, capture=None if timed else ledger))
        finally:
            ledger.uninstall()
    spans = ledger.write_trace(trace_path, f"{workload.name} seed {seed}") if trace_path else 0

    run = ledger.roots["run"]
    drawn = sum(e.drawn for e in timed)
    metrics: dict[str, float] = {}
    for i, layer in enumerate(ledger.layers):
        metrics[f"{layer}.self_us_per_op"] = run.self_ns[i] / 1e3 / drawn
        metrics[f"{layer}.share_pct"] = 100 * run.self_ns[i] / run.wall_ns
        metrics[f"{layer}.calls_per_op"] = run.calls[i] / drawn
    metrics[f"{RESIDUAL}.self_us_per_op"] = run.residual_ns / 1e3 / drawn
    metrics[f"{RESIDUAL}.share_pct"] = 100 * run.residual_ns / run.wall_ns

    def total(attr):
        return sum(getattr(e, attr) for e in timed)

    metrics.update({
        "net.retries_per_op": total("retries") / drawn,
        "net.retry_success_ratio": _ratio(total("retry_successes"), total("retries")),
        "net.dedup_replays_per_op": total("replays") / drawn,
        "net.hedge_win_ratio": _ratio(total("hedge_wins"), total("hedges")),
        "kernel.directory.cache_hit_ratio": _ratio(total("cache_hits"), total("cache_lookups")),
        "txn.commit_ratio": _ratio(total("commits"), total("negotiations")),
        "op_fail_ratio": (total("failed") + total("skipped")) / drawn,
        "chaos.check_us_per_op": sum(e.check_s for e in plain) * 1e6 / drawn,
        "ledger.coverage_pct": 100 * (sum(run.self_ns) + run.residual_ns)
        / (sum(e.run_s for e in timed) * 1e9),
        "ledger.overhead_pct": 100 * (_ops_per_s(plain) / _ops_per_s(timed) - 1),
        "host.calib_ms": statistics.median(runner.loops),
    })
    violations = [v for e in timed for v in e.violations]
    identical = all(p.fingerprint == t.fingerprint for p, t in zip(plain, timed))
    units = per_layer_units(ledger.layers)
    return {
        "correct": not violations and identical,
        "attempted": drawn - total("skipped"),
        "failed": total("failed"),
        "metrics": {name: (metrics[name], unit) for name, unit in units.items()},
        "notes": {
            "episodes": len(timed),
            "spans": spans,
            "violations": violations,
            "traced_matches_untraced": identical,
        },
    }
