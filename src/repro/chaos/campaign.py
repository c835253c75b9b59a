"""The chaos campaign runner.

One *episode* = one fresh :class:`~repro.world.SyDWorld` (seed derived
from the campaign seed and episode index) + N calendar users + a seeded
workload interleaved with a generated :class:`FaultSchedule` fired by
the world's own :class:`~repro.sim.kernel.EventScheduler`. At the end of
an episode the injector heals everything, disturbed devices run
:meth:`~repro.calendar.meetings.MeetingManager.reconcile`, the world
settles, and the invariant checkers run.

Everything is virtual-time and seeded, so the same configuration always
produces a byte-identical episode log. A failing episode yields a
one-line repro command, and :meth:`ChaosCampaign.shrink` bisects the
fault schedule down to a minimal failing prefix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.calendar.app import SyDCalendarApp
from repro.chaos.invariants import Violation, run_invariant_checks
from repro.chaos.schedule import FaultEvent, FaultSchedule, generate_schedule
from repro.chaos.workload import Workload
from repro.datastore.snapshot import export_store
from repro.datastore.wal import ChangeJournal, attach_journal
from repro.net.retry import RetryPolicy
from repro.obs.slo import SloResult, evaluate as evaluate_slos
from repro.util.errors import ReproError
from repro.world import SyDWorld


@dataclass
class ChaosConfig:
    """Knobs of one campaign (all defaults match the CLI)."""

    seed: int = 0
    episodes: int = 10
    users: int = 6
    ops: int = 40
    duration: float = 120.0
    intensity: float = 1.0
    retry: bool = True
    #: receiver-side exactly-once dedup (False = at-least-once ablation;
    #: requests stay stamped so double executions remain attributable)
    dedup: bool = True
    #: fault-kind mix (see repro.chaos.schedule.PROFILES)
    profile: str = "mixed"
    #: stamp idempotency keys on RPCs (False = pre-exactly-once wire
    #: format; bench-only knob for measuring the stamping byte overhead —
    #: without keys the dedup tables never engage, so this implies the
    #: at-least-once behaviour of ``dedup=False`` as well)
    stamp: bool = True
    #: durable intent logs + restart-time recovery + participant lease
    #: sweeps (False = pre-recovery coordinator ablation: volatile logs,
    #: no recovery replay, no termination protocol)
    recovery: bool = True
    #: period of each participant's terminate_stale_marks sweep
    lease_sweep: float = 5.0
    settle: float = 30.0
    shrink: bool = True
    #: run only this episode index (None = all of range(episodes))
    episode: int | None = None
    #: verbatim fault schedule (JSON) overriding generation — repro mode
    schedule_json: str | None = None
    #: span tracing in episode worlds. Off removes the trace headers
    #: from the wire (bench ablations that measure *other* overheads
    #: byte-for-byte run with this off), and timing shifts slightly, so
    #: the flag is part of the repro command.
    tracing: bool = True
    #: directory to write failing episodes' Perfetto timelines into
    #: (None = no export); requires ``tracing``
    trace_dir: str | None = None
    #: directory shard count (1 = the single-node directory; episode
    #: worlds and logs are then byte-identical to pre-sharding builds)
    directory_shards: int = 1
    #: replicas per directory key (capped at the shard count)
    directory_replicas: int = 1
    #: adaptive gray-failure layer: phi-accrual failure detection,
    #: lease-derived deadline budgets and suspicion-ordered failover
    #: (False = pre-adaptive ablation — a stalled participant can eat a
    #: whole lock lease and overruns surface as no_lease_overrun)
    health: bool = True
    #: hedged directory reads (needs ``health`` and 2+ replicas to bite;
    #: False isolates the hedging contribution for E17)
    hedge: bool = True

    def episode_seed(self, index: int) -> int:
        return self.seed * 100_003 + index

    def retry_policy(self) -> RetryPolicy | None:
        if not self.retry:
            return None
        return RetryPolicy(max_attempts=4, base_delay=0.2, max_delay=2.0, jitter=0.5)


@dataclass
class EpisodeResult:
    """Everything one episode produced."""

    index: int
    seed: int
    schedule: FaultSchedule
    violations: list[Violation]
    ops_ok: int = 0
    ops_failed: int = 0
    messages: int = 0
    bytes: int = 0
    retries: int = 0
    retry_successes: int = 0
    reply_lost: int = 0
    duplicates: int = 0
    #: invocations answered from the listeners' dedup reply caches
    replays: int = 0
    #: in-flight negotiations resolved by restart-time intent-log replay
    recoveries: int = 0
    #: stale marks released by the participant termination protocol
    terminations: int = 0
    #: Perfetto timeline written for this episode (failures only)
    trace_path: str | None = None
    log: list[str] = field(default_factory=list)
    #: per-operation SLO evaluation over the episode's merged digests.
    #: Reported, never enforced: a gray episode is *expected* to breach
    #: latency budgets — that is the profile doing its job — so SLO
    #: breaches do not fail an episode the way invariant violations do.
    slo: list[SloResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CampaignResult:
    """Aggregate over all requested episodes."""

    config: ChaosConfig
    episodes: list[EpisodeResult]
    shrunk: FaultSchedule | None = None
    repro: str | None = None

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.episodes)

    @property
    def survived(self) -> int:
        return sum(1 for e in self.episodes if e.ok)

    def log_lines(self) -> list[str]:
        lines: list[str] = []
        for episode in self.episodes:
            lines.extend(episode.log)
        return lines


class _FaultInjector:
    """Arms a FaultSchedule on the world's scheduler and applies events."""

    def __init__(
        self,
        world: SyDWorld,
        app: SyDCalendarApp,
        users: list[str],
        schedule: FaultSchedule,
        rng: random.Random,
        log,
    ):
        self.world = world
        self.app = app
        self.users = list(users)
        self.schedule = schedule
        self.rng = rng
        self.log = log
        self._handles = []
        self._droppers: dict[str, object] = {}
        self._ghost_bound: set[str] = set()
        self._partitioned: set[str] = set()
        #: directory shards currently powered off (at most one at a time:
        #: the injector never takes a key's last reachable copy down)
        self._downed_shards: set[str] = set()
        #: active gray faults: "kind:target" -> stop callable (removers
        #: returned by the FaultPlan, plus skew's lock-manager unwiring)
        self._gray: dict[str, object] = {}
        #: active duplicate-delivery windows: id -> probability
        self._dup_windows: dict[str, float] = {}
        #: msg_ids already scheduled for redelivery (no re-arming: the
        #: transport taps fire for the redelivered copy too)
        self._duplicated: set[str] = set()
        self._node_to_user = {app.node(u).node_id: u for u in users}
        #: users with *detected* disturbance — crashed, partitioned, or an
        #: endpoint of a lost reply (the replier applied a side effect its
        #: requester never heard about) — reconcile targets
        self.disturbed: set[str] = set()

    def arm(self) -> None:
        for event in self.schedule.events:
            self._handles.append(
                self.world.scheduler.schedule_at(event.at, self._fire, event)
            )
        self.world.transport.taps.append(self._dup_tap)
        self.world.transport.reply_loss_taps.append(self._on_reply_loss)

    def _dup_tap(self, msg) -> None:
        """While a dup window is open, schedule delayed re-deliveries."""
        if (
            not self._dup_windows
            or msg.is_reply
            or msg.kind != "invoke"
            or msg.msg_id in self._duplicated
        ):
            return
        if self.rng.random() < max(self._dup_windows.values()):
            self._duplicated.add(msg.msg_id)
            delay = self.rng.uniform(0.1, 4.0)
            self._handles.append(
                self.world.scheduler.schedule_at(
                    self.world.clock.now() + delay,
                    self.world.transport.redeliver,
                    msg,
                )
            )

    def _on_reply_loss(self, reply) -> None:
        """A handler executed but its reply never arrived: both endpoints
        now disagree about what happened — queue them for reconciliation."""
        for node_id in (reply.src, reply.dst):
            user = self._node_to_user.get(node_id)
            if user is not None:
                self.disturbed.add(user)

    def _fire(self, event: FaultEvent) -> None:
        self.log(f"t={self.world.clock.now():8.2f} fault {event.describe()}")
        apply = getattr(self, f"_apply_{event.kind}")
        apply(event.params)

    # -- event appliers -------------------------------------------------------

    def _apply_crash(self, params) -> None:
        self.world.take_down(params["user"])
        self.disturbed.add(params["user"])

    def _apply_restart(self, params) -> None:
        user = params["user"]
        if self.world.is_up(user):
            return
        # restart (not bring_up): the node loses volatile state and its
        # sender incarnation is bumped, fencing pre-crash requests that a
        # dup window may still redeliver.
        self.world.restart(user)
        self._reconcile(user)

    def _apply_coord_crash(self, params) -> None:
        """Arm a mid-protocol coordinator death: the *next* negotiation
        this user's coordinator drives dies at the targeted phase — the
        epilogue (unlocks, END record) is skipped and the device goes
        down with the protocol state stranded."""
        user, phase = params["user"], params["phase"]
        coordinator = self.app.node(user).coordinator

        def on_crash(txn_id: str, crash_phase: str, user=user) -> None:
            self.log(
                f"t={self.world.clock.now():8.2f} coordinator {user} died "
                f"{crash_phase} in {txn_id}"
            )
            self.world.take_down(user)
            self.disturbed.add(user)

        coordinator.on_crash = on_crash
        coordinator.arm_crash(phase)

    def _apply_coord_restart(self, params) -> None:
        user = params["user"]
        coordinator = self.app.node(user).coordinator
        # The armed crash may never have tripped (no negotiation reached
        # the phase); disarm so post-restart traffic runs clean.
        coordinator.disarm_crash()
        coordinator.on_crash = None
        if not self.world.is_up(user):
            self.world.restart(user)
            self._reconcile(user)

    def _apply_partition(self, params) -> None:
        groups = [
            [self.app.node(u).node_id for u in group] for group in params["groups"]
        ]
        self.world.transport.faults.partition(*groups)
        named = {u for group in params["groups"] for u in group}
        self._partitioned |= named
        self.disturbed |= named

    def _apply_heal(self, params) -> None:
        self.world.transport.faults.heal_partition()
        for user in sorted(self._partitioned):
            if self.world.is_up(user):
                self._reconcile(user)
        self._partitioned.clear()

    def _apply_drop_start(self, params) -> None:
        p, rng = params["p"], self.rng

        def rule(msg) -> bool:
            return (
                not msg.is_reply
                and msg.kind == "invoke"
                and rng.random() < p
            )

        self._droppers[params["id"]] = self.world.transport.faults.add_drop_rule(rule)

    def _apply_drop_stop(self, params) -> None:
        remover = self._droppers.pop(params["id"], None)
        if remover is not None:
            remover()

    def _apply_reply_drop_start(self, params) -> None:
        p, rng = params["p"], self.rng

        def rule(msg) -> bool:
            return (
                msg.is_reply
                and msg.kind == "invoke"
                and rng.random() < p
            )

        self._droppers[params["id"]] = self.world.transport.faults.add_drop_rule(rule)

    def _apply_reply_drop_stop(self, params) -> None:
        self._apply_drop_stop(params)

    def _apply_dup_start(self, params) -> None:
        self._dup_windows[params["id"]] = params["p"]

    def _apply_dup_stop(self, params) -> None:
        self._dup_windows.pop(params["id"], None)

    def _apply_shard_crash(self, params) -> None:
        names = self.world.directory_shard_names()
        if not names or self._downed_shards:
            return
        name = names[params["shard"] % len(names)]
        self.world.crash_directory_shard(name)
        self._downed_shards.add(name)

    def _apply_shard_restart(self, params) -> None:
        # One shard down at a time (see _apply_shard_crash), so restart
        # whatever is down: restart + anti-entropy repair from co-owners.
        for name in sorted(self._downed_shards):
            if name in self.world.directory_shard_names():
                restored = self.world.restart_directory_shard(name)
                self.log(
                    f"t={self.world.clock.now():8.2f} shard {name} repaired "
                    f"records={restored}"
                )
        self._downed_shards.clear()

    def _apply_shard_join(self, params) -> None:
        topology = self.world.directory_topology
        if topology is None or self._downed_shards:
            return
        before = topology.keys_moved
        name = self.world.add_directory_shard()
        self.log(
            f"t={self.world.clock.now():8.2f} shard {name} joined "
            f"moved={topology.keys_moved - before} version={topology.version}"
        )

    def _apply_shard_leave(self, params) -> None:
        topology = self.world.directory_topology
        if topology is None or self._downed_shards:
            return
        if len(topology.shards) <= max(2, topology.ring.replicas):
            return  # never drain below the replication factor
        before = topology.keys_moved
        name = self.world.remove_directory_shard()
        self.log(
            f"t={self.world.clock.now():8.2f} shard {name} left "
            f"moved={topology.keys_moved - before} version={topology.version}"
        )

    def _apply_slow_start(self, params) -> None:
        user = params["user"]
        key = f"slow:{user}"
        if key in self._gray:
            return
        # Private seeded stream for the per-leg pareto draws: forked off
        # the injector rng so adding a slow window never perturbs the
        # drop/dup draws of later windows beyond this one fork.
        rng = random.Random(self.rng.getrandbits(64))
        self._gray[key] = self.world.transport.faults.slow_node(
            self.app.node(user).node_id,
            rng=rng,
            scale=params["scale"],
            shape=params["shape"],
        )

    def _apply_slow_stop(self, params) -> None:
        remover = self._gray.pop(f"slow:{params['user']}", None)
        if remover is not None:
            remover()

    def _apply_degrade_start(self, params) -> None:
        a, b = params["a"], params["b"]
        key = f"degrade:{a}:{b}"
        if key in self._gray:
            return
        rng = random.Random(self.rng.getrandbits(64))
        self._gray[key] = self.world.transport.faults.degrade_link(
            self.app.node(a).node_id,
            self.app.node(b).node_id,
            rng=rng,
            loss=params["loss"],
            jitter=params["jitter"],
        )

    def _apply_degrade_stop(self, params) -> None:
        remover = self._gray.pop(f"degrade:{params['a']}:{params['b']}", None)
        if remover is not None:
            remover()

    def _apply_stall_start(self, params) -> None:
        user = params["user"]
        key = f"stall:{user}"
        if key in self._gray:
            return
        self._gray[key] = self.world.transport.faults.stall_node(
            self.app.node(user).node_id, delay=params["delay"]
        )
        # Replies from a stalled node land after the caller's budget: the
        # callee applied side effects its caller never heard about — the
        # same both-sides disagreement as a lost reply.
        self.disturbed.add(user)

    def _apply_stall_stop(self, params) -> None:
        remover = self._gray.pop(f"stall:{params['user']}", None)
        if remover is not None:
            remover()

    def _apply_skew_start(self, params) -> None:
        user = params["user"]
        key = f"skew:{user}"
        if key in self._gray:
            return
        node = self.app.node(user)
        faults = self.world.transport.faults
        remover = faults.set_clock_skew(node.node_id, params["offset"])
        # The skew bends *lease stamping only* (never the simulation
        # clock): wire the lock manager's skew hook for the window, so
        # honest expiry checks drift against skewed deadlines.
        node.locks.skew = lambda node_id=node.node_id: faults.clock_skew_of(node_id)

        def stop(node=node, remover=remover) -> None:
            remover()
            node.locks.skew = None

        self._gray[key] = stop

    def _apply_skew_stop(self, params) -> None:
        stop = self._gray.pop(f"skew:{params['user']}", None)
        if stop is not None:
            stop()

    def _apply_proxy_bind(self, params) -> None:
        self.world.directory_service.set_proxy(params["user"], params["proxy"])
        self._ghost_bound.add(params["user"])

    def _apply_proxy_clear(self, params) -> None:
        self.world.directory_service.set_proxy(params["user"], None)
        self._ghost_bound.discard(params["user"])

    # -- end-of-episode healing ----------------------------------------------

    def heal_all(self) -> None:
        """Cancel pending events, restore full connectivity, reconcile."""
        for handle in self._handles:
            handle.cancel()
        self._handles.clear()
        for remover in self._droppers.values():
            remover()
        self._droppers.clear()
        for key in sorted(self._gray):
            self._gray.pop(key)()
        self.world.transport.faults.heal_gray()
        self._dup_windows.clear()
        for user in self.users:
            # Leftover armed coordinator crashes must not trip during the
            # settle window's reconcile traffic.
            coordinator = self.app.node(user).coordinator
            coordinator.disarm_crash()
            coordinator.on_crash = None
        self.world.transport.faults.heal_partition()
        for user in sorted(self._ghost_bound):
            self.world.directory_service.set_proxy(user, None)
        self._ghost_bound.clear()
        # Downed directory shards come back (with repair) before user
        # reconciliation needs directory reads.
        for name in sorted(self._downed_shards):
            if name in self.world.directory_shard_names():
                self.world.restart_directory_shard(name)
        self._downed_shards.clear()
        restarted = [u for u in self.users if not self.world.is_up(u)]
        for user in restarted:
            self.world.restart(user)
        self.log(f"t={self.world.clock.now():8.2f} heal-all restarted={restarted}")
        # Anti-entropy runs where disturbance was *detected* (crashes,
        # partitions). Silent message loss is exactly what the engine's
        # retries must absorb — reconciling every device here would hide
        # a disabled RetryPolicy from the invariant checkers.
        for user in sorted(self.disturbed):
            self._reconcile(user)
        self._partitioned.clear()

    def _reconcile(self, user: str) -> None:
        if self.app.node(user).coordinator.busy:
            # A restart/heal fired while this device's own negotiation
            # was mid-backoff; reconciling now would pull the rug out.
            # heal_all() runs with an empty stack and catches up.
            self.log(f"t={self.world.clock.now():8.2f} reconcile {user} deferred (busy)")
            return
        try:
            counts = self.app.manager(user).reconcile()
        except ReproError as exc:
            # Mid-episode reconcile under still-active faults can die
            # partway (e.g. a dropped authoritative pull with retries
            # off); heal_all() reconciles again on a clean network.
            self.log(
                f"t={self.world.clock.now():8.2f} reconcile {user} "
                f"aborted ({type(exc).__name__})"
            )
            return
        self.log(
            f"t={self.world.clock.now():8.2f} reconcile {user} "
            + " ".join(f"{k}={counts[k]}" for k in sorted(counts))
        )


class ChaosCampaign:
    """Runs episodes, collects results, shrinks the first failure."""

    def __init__(self, config: ChaosConfig):
        self.config = config
        #: world of the most recent episode (kept for post-mortem export:
        #: ``python -m repro obs`` replays an episode and reads its spans
        #: and metrics off this)
        self.last_world: SyDWorld | None = None

    # -- episodes -------------------------------------------------------------

    @staticmethod
    def _lease_sweep_fn(world: SyDWorld, app: SyDCalendarApp, user: str):
        """One user's periodic terminate_stale_marks job, guarded: skipped
        while the device is down (a dead node sweeps nothing) or while its
        own negotiation is mid-backoff (same rug-pull rule as reconcile)."""

        def sweep() -> None:
            if not world.is_up(user) or app.node(user).coordinator.busy:
                return
            try:
                app.service(user).terminate_stale_marks()
            except ReproError:
                pass  # faults mid-sweep; the next period retries

        return sweep

    def run_episode(
        self, index: int, schedule: FaultSchedule | None = None, quiet: bool = False
    ) -> EpisodeResult:
        cfg = self.config
        seed = cfg.episode_seed(index)
        world = SyDWorld(
            seed=seed,
            directory_cache=True,
            dedup=cfg.dedup,
            recovery=cfg.recovery,
            tracing=cfg.tracing,
            directory_shards=cfg.directory_shards,
            directory_replicas=cfg.directory_replicas,
            health=cfg.health,
            hedge=cfg.health and cfg.hedge,
        )
        self.last_world = world
        world.transport.stamp_dedup = cfg.stamp
        app = SyDCalendarApp(world)
        users = [f"u{i:02d}" for i in range(cfg.users)]
        setup_rng = world.random.get("chaos.setup")
        for user in users:
            app.add_user(user, priority=setup_rng.choice((0, 0, 0, 1, 2, 5)))
        world.set_retry_policy(cfg.retry_policy())
        if cfg.recovery:
            # Participant-driven termination: each device periodically
            # resolves marks held past their lease against the owning
            # coordinator's durable decision (skipped while the device is
            # down; per-sweep failures are retried next period).
            for user in users:
                world.node(user).events.monitor_every(
                    cfg.lease_sweep, self._lease_sweep_fn(world, app, user)
                )

        # WAL baselines: snapshot + journal per store, from here on.
        baselines = {u: export_store(world.node(u).store) for u in users}
        journals: dict[str, ChangeJournal] = {}
        detach_journals = []
        for user in users:
            journals[user] = ChangeJournal(metrics=world.metrics, metrics_node=user)
            detach_journals.append(attach_journal(world.node(user).store, journals[user]))

        if schedule is None:
            if cfg.schedule_json is not None:
                schedule = FaultSchedule.from_json(cfg.schedule_json)
            else:
                schedule = generate_schedule(
                    world.random.get("chaos.faults"),
                    users,
                    cfg.duration,
                    cfg.intensity,
                    profile=cfg.profile,
                )

        log_lines: list[str] = []
        log = log_lines.append
        log(
            f"episode {index} seed {seed} users {cfg.users} ops {cfg.ops} "
            f"faults {len(schedule)} retry {'on' if cfg.retry else 'off'} "
            f"dedup {'on' if cfg.dedup else 'off'} "
            f"recovery {'on' if cfg.recovery else 'off'} profile {cfg.profile}"
            # Shard info only when sharded: single-node logs stay
            # byte-identical to pre-sharding builds.
            + (
                f" shards {cfg.directory_shards}x{cfg.directory_replicas}"
                if cfg.directory_shards > 1
                else ""
            )
            # Ablation markers only when non-default, so default-config
            # logs stay byte-identical across the flags' introduction.
            + ("" if cfg.health else " no-health")
            + ("" if cfg.hedge or not cfg.health else " no-hedge")
        )
        injector = _FaultInjector(
            world, app, users, schedule, world.random.get("chaos.drops"), log
        )
        injector.arm()

        workload = Workload(app, users, world.random.get("chaos.workload"), log)
        gap_rng = world.random.get("chaos.gaps")
        mean_gap = cfg.duration / max(cfg.ops, 1)
        for i in range(cfg.ops):
            world.run_for(gap_rng.uniform(0.2, 1.8) * mean_gap)
            workload.step(i)

        injector.heal_all()
        world.run_for(cfg.settle)

        violations = run_invariant_checks(app, world, baselines, journals)
        # The checks were the journals' only reader. Detached, they are
        # freed with this frame instead of living on in the finished
        # world until a full garbage collection reclaims its cycles.
        for detach in detach_journals:
            detach()
        for violation in violations:
            log(f"VIOLATION {violation}")
        # SLO evaluation over the episode's merged per-op digests —
        # deterministic (sorted merges, fixed spec order), so the lines
        # are part of the byte-identical episode log.
        slo_results = evaluate_slos(world.metrics)
        for slo_result in slo_results:
            log(slo_result.render())
        trace_path: str | None = None
        if violations and cfg.trace_dir and cfg.tracing:
            from pathlib import Path

            from repro.obs.export import write_timeline

            out = Path(cfg.trace_dir)
            out.mkdir(parents=True, exist_ok=True)
            trace_path = str(out / f"episode_{index:03d}.trace.json")
            write_timeline(
                trace_path, world.tracer.spans(), label=f"chaos episode {index}"
            )
            log(f"trace -> {trace_path}")
        stats = world.stats
        replays = world.directory_replays() + sum(
            world.node(u).listener.replays for u in users
        )
        recoveries = sum(
            world.node(u).coordinator.recovered_commits
            + world.node(u).coordinator.recovered_aborts
            for u in users
        )
        terminations = sum(app.service(u).terminated for u in users)
        log(
            f"episode {index} {'ok' if not violations else 'FAIL'} "
            f"ops {workload.ops_ok}/{cfg.ops} messages {stats.messages} "
            f"retries {stats.retries} recovered {stats.retry_successes} "
            f"reply-lost {stats.reply_lost} dups {stats.duplicates} "
            f"replays {replays} recoveries {recoveries} "
            f"terminations {terminations} violations {len(violations)}"
        )
        return EpisodeResult(
            index=index,
            seed=seed,
            schedule=schedule,
            violations=violations,
            ops_ok=workload.ops_ok,
            ops_failed=workload.ops_failed,
            messages=stats.messages,
            bytes=stats.bytes,
            retries=stats.retries,
            retry_successes=stats.retry_successes,
            reply_lost=stats.reply_lost,
            duplicates=stats.duplicates,
            replays=replays,
            recoveries=recoveries,
            terminations=terminations,
            trace_path=trace_path,
            log=log_lines,
            slo=slo_results,
        )

    # -- campaign -------------------------------------------------------------

    def run(self) -> CampaignResult:
        cfg = self.config
        indexes = [cfg.episode] if cfg.episode is not None else list(range(cfg.episodes))
        episodes = [self.run_episode(i) for i in indexes]
        result = CampaignResult(cfg, episodes)
        failing = next((e for e in episodes if not e.ok), None)
        if failing is not None:
            shrunk = self.shrink(failing) if cfg.shrink else failing.schedule
            result.shrunk = shrunk
            result.repro = self.repro_command(failing.index, shrunk)
        return result

    def shrink(self, failing: EpisodeResult) -> FaultSchedule:
        """Bisect the fault schedule to a minimal failing *prefix*.

        Assumes (best-effort) monotonicity: if a prefix fails, longer
        prefixes containing it fail too. The returned prefix is verified
        to fail; when even the empty schedule fails (a workload-only
        bug), the empty prefix is returned.
        """
        full = failing.schedule
        lo, hi = 0, len(full)  # invariant: prefix(hi) is known to fail
        while lo < hi:
            mid = (lo + hi) // 2
            if self.run_episode(failing.index, schedule=full.prefix(mid)).ok:
                lo = mid + 1
            else:
                hi = mid
        return full.prefix(hi)

    def repro_command(self, index: int, schedule: FaultSchedule) -> str:
        cfg = self.config
        return (
            f"python -m repro chaos --seed {cfg.seed} --users {cfg.users} "
            f"--ops {cfg.ops} --duration {cfg.duration:g} "
            f"--intensity {cfg.intensity:g} --profile {cfg.profile} "
            f"--episode {index}"
            + ("" if cfg.retry else " --no-retry")
            + ("" if cfg.dedup else " --no-dedup")
            + ("" if cfg.recovery else " --no-recovery")
            + ("" if cfg.health else " --no-health")
            + ("" if cfg.hedge else " --no-hedge")
            + ("" if cfg.tracing else " --no-tracing")
            + (
                f" --directory-shards {cfg.directory_shards}"
                f" --directory-replicas {cfg.directory_replicas}"
                if cfg.directory_shards > 1
                else ""
            )
            + f" --schedule '{schedule.to_json()}'"
        )
