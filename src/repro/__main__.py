"""``python -m repro`` — a guided tour of the reproduction.

Runs a compact version of every headline scenario and prints what
happened; handy as a smoke test of an installation.

``python -m repro chaos`` runs a deterministic chaos campaign instead
(seeded fault schedules + invariant checkers; see repro.chaos).

``python -m repro obs`` runs a traced scenario — or replays one chaos
episode — and exports its causal timeline (Perfetto-loadable Chrome
trace JSON), span tree and metrics (see repro.obs).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from repro import SyDWorld
from repro.calendar.app import SyDCalendarApp
from repro.calendar.appobject import CommitteeCalendars
from repro.calendar.model import OrGroup

if TYPE_CHECKING:
    from repro.chaos import ChaosConfig


def tour() -> int:
    print(__doc__)
    world = SyDWorld(seed=2003)
    app = SyDCalendarApp(world)
    users = ["phil", "andy", "suzy", "raj", "boss"]
    for user in users:
        app.add_user(user)
    print(f"world: {len(users)} PDA users + directory on a simulated campus LAN\n")

    # 1. Plain scheduling.
    m = app.manager("phil").schedule_meeting("Budget", ["andy", "suzy"])
    print(f"1. schedule            -> {m.status.value} at day {m.slot['day']} "
          f"{m.slot['hour']}:00 for {m.committed}")

    # 2. Tentative + automatic promotion.
    for row in app.calendar("raj").free_slots(0, 4):
        app.service("raj").block({"day": row["day"], "hour": row["hour"]})
    t = app.manager("andy").schedule_meeting("Thesis talk", ["raj"])
    print(f"2. tentative           -> {t.status.value}, waiting on {t.missing}")
    app.service("raj").unblock(t.slot)
    t_now = app.meeting_view("andy", t.meeting_id)
    print(f"   raj frees the slot  -> {t_now.status.value} (automatic promotion)")

    # 3. Priority bump + auto-reschedule.
    high = app.manager("boss").schedule_meeting(
        "Exec", ["andy"], priority=9, preferred_slot=m.slot
    )
    bumped = app.meeting_view("phil", m.meeting_id)
    new_id = app.manager("phil").reschedule_map.get(m.meeting_id)
    print(f"3. bump by priority 9  -> old meeting {bumped.status.value}; "
          f"auto-rescheduled as {new_id}")

    # 4. Quorum scheduling via the SyDAppO.
    committee = CommitteeCalendars(app.manager("phil"), ["phil", "andy", "suzy"])
    earliest = committee.find_earliest_meeting_time()
    print(f"4. SyDAppO             -> earliest committee time: {earliest}")

    # 5. Quorum (or-group) meeting.
    q = app.manager("suzy").schedule_meeting(
        "Faculty", ["phil", "andy", "raj"],
        must_attend=["phil"],
        or_groups=[OrGroup(("andy", "raj"), 1)],
    )
    print(f"5. quorum scheduling   -> {q.status.value}, committed {q.committed}")

    print(f"\ntotals: {world.stats.messages} messages, "
          f"{app.mail.sent} e-mails, {app.mail.action_required} manual steps, "
          f"virtual time {world.now:.2f}s")
    print("\nSee examples/ for deeper scenarios and "
          "`python -m repro.bench.harness` for the experiment tables.")
    return 0


def _episode_args(parser: argparse.ArgumentParser) -> None:
    """The chaos episode knobs, shared by ``chaos`` and ``obs --episode``."""
    parser.add_argument("--users", type=int, default=6)
    parser.add_argument("--ops", type=int, default=40, help="workload ops per episode")
    parser.add_argument("--duration", type=float, default=120.0,
                        help="virtual seconds per episode")
    parser.add_argument("--intensity", type=float, default=1.0,
                        help="fault-rate multiplier (0 = no faults)")
    parser.add_argument("--no-retry", action="store_true",
                        help="disable the engine RetryPolicy (expect violations)")
    parser.add_argument("--no-dedup", action="store_true",
                        help="disable receiver-side exactly-once dedup "
                             "(at-least-once ablation; expect violations)")
    parser.add_argument("--no-recovery", action="store_true",
                        help="disable durable intent logs, crash recovery and "
                             "the lease termination protocol (pre-recovery "
                             "coordinator ablation; expect violations)")
    parser.add_argument("--profile", type=str, default="mixed",
                        choices=("classic", "delivery", "mixed", "recovery",
                                 "sharded", "gray"),
                        help="fault-kind mix for generated schedules")
    parser.add_argument("--no-health", action="store_true",
                        help="disable the adaptive gray-failure layer "
                             "(phi-accrual detection, deadline budgets, "
                             "suspicion-ordered failover; expect "
                             "no_lease_overrun under the gray profile)")
    parser.add_argument("--no-hedge", action="store_true",
                        help="disable hedged directory reads (keeps the "
                             "rest of the health layer on)")
    parser.add_argument("--directory-shards", type=int, default=1,
                        help="directory shard count (1 = single-node "
                             "directory, byte-identical to pre-sharding)")
    parser.add_argument("--directory-replicas", type=int, default=1,
                        help="replicas per directory key (capped at the "
                             "shard count)")
    parser.add_argument("--schedule", type=str, default=None,
                        help="JSON fault schedule (from a repro command)")


def _chaos_config(args: argparse.Namespace, **knobs) -> ChaosConfig:
    """The :class:`~repro.chaos.ChaosConfig` of ``_episode_args`` plus
    the subcommand's own ``knobs``."""
    from repro.chaos import ChaosConfig

    return ChaosConfig(
        seed=args.seed,
        users=args.users,
        ops=args.ops,
        duration=args.duration,
        intensity=args.intensity,
        retry=not args.no_retry,
        dedup=not args.no_dedup,
        recovery=not args.no_recovery,
        profile=args.profile,
        health=not args.no_health,
        hedge=not args.no_hedge,
        directory_shards=args.directory_shards,
        directory_replicas=args.directory_replicas,
        schedule_json=args.schedule,
        **knobs,
    )


def chaos_main(args: argparse.Namespace) -> int:
    from repro.chaos import ChaosCampaign

    config = _chaos_config(
        args,
        episodes=args.episodes,
        shrink=not args.no_shrink,
        episode=args.episode,
        tracing=not args.no_tracing,
        trace_dir=args.trace_dir,
    )
    result = ChaosCampaign(config).run()
    lines = result.log_lines()
    print("\n".join(lines))
    if args.log:
        with open(args.log, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    total = len(result.episodes)
    ops_ok = sum(e.ops_ok for e in result.episodes)
    ops_failed = sum(e.ops_failed for e in result.episodes)
    messages = sum(e.messages for e in result.episodes)
    retries = sum(e.retries for e in result.episodes)
    recovered = sum(e.retry_successes for e in result.episodes)
    reply_lost = sum(e.reply_lost for e in result.episodes)
    duplicates = sum(e.duplicates for e in result.episodes)
    replays = sum(e.replays for e in result.episodes)
    recoveries = sum(e.recoveries for e in result.episodes)
    terminations = sum(e.terminations for e in result.episodes)
    print(
        f"campaign: {result.survived}/{total} episodes clean, "
        f"{ops_ok} ops ok / {ops_failed} failed, {messages} messages, "
        f"{retries} retries ({recovered} recovered), "
        f"{reply_lost} replies lost, {duplicates} duplicates, "
        f"{replays} dedup replays, {recoveries} recoveries, "
        f"{terminations} lease terminations"
    )
    if not result.ok:
        failing = next(e for e in result.episodes if not e.ok)
        print(f"first failing episode: {failing.index} "
              f"({len(failing.violations)} violations)")
        if result.shrunk is not None:
            print(f"minimal failing prefix: {len(result.shrunk)}/"
                  f"{len(failing.schedule)} fault events")
        for episode in result.episodes:
            if episode.trace_path:
                print(f"trace: episode {episode.index} -> {episode.trace_path}")
        print(f"repro: {result.repro}")
        return 1
    return 0


def obs_main(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs import (
        chrome_trace,
        render_span_tree,
        validate_chrome_trace,
        write_timeline,
    )

    if args.episode is not None:
        # Replay one chaos episode under full tracing and export it.
        from repro.chaos import ChaosCampaign

        campaign = ChaosCampaign(_chaos_config(args, shrink=False))
        episode = campaign.run_episode(args.episode, quiet=True)
        world = campaign.last_world
        label = f"chaos episode {args.episode} (seed {args.seed})"
        print(
            f"episode {args.episode}: {'clean' if episode.ok else 'FAILED'}, "
            f"{episode.messages} messages, {len(episode.violations)} violations"
        )
        for violation in episode.violations:
            print(f"  VIOLATION {violation}")
    else:
        world = _obs_scenario(args.seed, args.sample)
        label = f"calendar scenario (seed {args.seed})"

    spans = world.tracer.spans()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "timeline.trace.json"
    validate_chrome_trace(chrome_trace(spans, label=label))
    write_timeline(str(path), spans, label=label)
    closed = sum(1 for s in spans if s.end is not None)
    traces = len({s.trace_id for s in spans})
    print(f"timeline: {path} ({closed} spans, {traces} traces) — "
          f"load in Perfetto / chrome://tracing")
    if args.tree:
        tree = render_span_tree(spans)
        tree_path = out / "spans.txt"
        tree_path.write_text(tree + "\n")
        print(f"span tree: {tree_path}")
        print(tree)
    if args.critical_path:
        from repro.obs import (
            attribute,
            critical_path,
            find_root,
            render_attribution,
            render_path,
        )

        try:
            root = find_root(spans, args.critical_path)
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        print(f"critical path of {args.critical_path}:")
        print(render_path(critical_path(spans, root)))
        print(render_attribution(attribute(spans, root)))
    if args.attribute:
        import json

        from repro.obs import CATEGORIES, attribution_report

        doc, totals, elapsed_total, worst_coverage = attribution_report(spans, label)
        attr_path = out / "attribution.json"
        attr_path.write_text(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        )
        share = {
            cat: (totals[cat] / elapsed_total if elapsed_total else 0.0)
            for cat in CATEGORIES
        }
        print(
            f"attribution: {attr_path} ({len(doc['roots'])} roots, "
            f"coverage {doc['coverage'] * 100:.2f}%, "
            f"worst root {worst_coverage * 100:.2f}%)"
        )
        for cat in CATEGORIES:
            print(
                f"  {cat:<14} {totals[cat] * 1e3:>14.3f} ms  "
                f"{share[cat] * 100:>6.2f}%"
            )
    if args.slo:
        from repro.obs import evaluate, render_report

        print(render_report(evaluate(world.metrics)))
    if args.metrics:
        print(world.metrics.render())
    return 0


def _obs_scenario(seed: int, sample: int) -> SyDWorld:
    """A compact traced scenario: negotiation, trigger-driven promotion,
    and a cancel cascade — the three protocol shapes worth a timeline."""
    world = SyDWorld(seed=seed, trace_sample=sample)
    app = SyDCalendarApp(world)
    for user in ("phil", "andy", "suzy", "raj"):
        app.add_user(user)
    meeting = app.manager("phil").schedule_meeting("Budget", ["andy", "suzy"])
    for row in app.calendar("raj").free_slots(0, 4):
        app.service("raj").block({"day": row["day"], "hour": row["hour"]})
    tentative = app.manager("andy").schedule_meeting("Thesis talk", ["raj"])
    app.service("raj").unblock(tentative.slot)
    app.manager("phil").cancel_meeting(meeting.meeting_id)
    world.run_for(5.0)
    return world


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Guided tour (no arguments) or chaos campaigns.",
    )
    sub = parser.add_subparsers(dest="command")
    chaos = sub.add_parser(
        "chaos", help="run a deterministic fault-schedule campaign"
    )
    chaos.add_argument("--seed", type=int, default=0, help="campaign master seed")
    chaos.add_argument("--episodes", type=int, default=10)
    _episode_args(chaos)
    chaos.add_argument("--no-shrink", action="store_true",
                       help="skip bisect-shrinking a failing schedule")
    chaos.add_argument("--episode", type=int, default=None,
                       help="run only this episode index")
    chaos.add_argument("--log", type=str, default=None,
                       help="also write the episode log to this file")
    chaos.add_argument("--no-tracing", action="store_true",
                       help="disable span tracing in episode worlds "
                            "(drops the trace headers from the wire)")
    chaos.add_argument("--trace-dir", type=str, default=None,
                       help="export failing episodes' Perfetto timelines "
                            "into this directory")

    obs = sub.add_parser(
        "obs", help="trace a scenario (or replay a chaos episode) and "
                    "export its causal timeline"
    )
    obs.add_argument("--seed", type=int, default=2003, help="world/campaign seed")
    obs.add_argument("--out", type=str, default="obs_out",
                     help="output directory for the exports")
    obs.add_argument("--sample", type=int, default=1,
                     help="record every k-th root trace (scenario mode)")
    obs.add_argument("--tree", action="store_true",
                     help="also write and print the plain-text span tree")
    obs.add_argument("--metrics", action="store_true",
                     help="print the per-node metrics registry")
    obs.add_argument("--critical-path", type=str, default=None,
                     metavar="TRACE_ID",
                     help="print the critical path (chain of latest-ending "
                          "children) and per-category attribution for this "
                          "trace, e.g. t0007")
    obs.add_argument("--attribute", action="store_true",
                     help="attribute every root span's elapsed time to "
                          "closed categories (net.transit, handler, "
                          "retry.backoff, lock.wait, stall, queue, other) "
                          "and write attribution.json")
    obs.add_argument("--slo", action="store_true",
                     help="evaluate the default per-operation SLOs against "
                          "the recorded latency digests and print the report")
    obs.add_argument("--episode", type=int, default=None,
                     help="replay this chaos episode index instead of the "
                          "scenario (combine with the chaos knobs below)")
    _episode_args(obs)

    args = parser.parse_args(argv)
    if args.command == "chaos":
        if args.schedule is not None and args.episode is None:
            args.episode = 0
        return chaos_main(args)
    if args.command == "obs":
        return obs_main(args)
    return tour()


if __name__ == "__main__":
    sys.exit(main())
