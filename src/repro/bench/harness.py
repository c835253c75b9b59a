"""Experiment harness: one function per experiment of EXPERIMENTS.md.

Each ``exp_*`` function returns ``{"title", "columns", "rows"}``; the
module's ``main()`` prints every table. The pytest-benchmark files under
``benchmarks/`` call the same functions (smaller parameters) and assert
the *shape* claims recorded in EXPERIMENTS.md.

Run everything::

    python -m repro.bench.harness            # all experiments
    python -m repro.bench.harness --exp E4   # one experiment
    python -m repro.bench.harness --fast     # reduced sweeps

Each run also writes a machine-readable ``BENCH_<id>.json`` per
experiment (columns, rows, wall time) next to the working directory;
``--json-dir`` redirects them, ``--no-json`` disables. Every experiment
with a committed artifact declares its regression gates with ``@gated``;
``python -m repro.bench.regress`` enforces them.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Any

from repro.bench.metrics import format_table, measure
from repro.bench.workloads import (
    build_calendar_population,
    meeting_request_stream,
    quorum_request,
)
from repro.calendar.model import MeetingStatus, OrGroup
from repro.device.resource import ResourceObject
from repro.kernel.linktypes import LinkRef, LinkSubtype, LinkType
from repro.txn.coordinator import AND, OR, XOR, Participant, at_least
from repro.util.errors import SchedulingError, UnreachableError
from repro.world import SyDWorld


# --------------------------------------------------------------------------- helpers

def gated(key: tuple[str, ...], sim: tuple[str, ...] = (), wall: tuple[str, ...] = ()):
    """Declare the regression claims of an experiment beside it.

    ``key`` names the columns that identify a row; ``sim`` names the
    deterministic simulated-time and count columns and ``wall`` the
    host-dependent wall-clock ones, every one lower-is-better.
    ``python -m repro.bench.regress`` reruns the experiment and holds
    each gated cell of its committed artifact to its class tolerance.
    """

    def declare(fn):
        fn.gates = {"key": key, "sim": sim, "wall": wall}
        return fn

    return declare


def _resource_world(
    n_users: int,
    seed: int = 1,
    tracing: bool = True,
    trace_sample: int = 1,
) -> tuple[SyDWorld, list[str]]:
    """World with n resource-service users, one free entity 'slot'."""
    world = SyDWorld(seed=seed, tracing=tracing, trace_sample=trace_sample)
    users = [f"u{i:03d}" for i in range(n_users)]
    for user in users:
        node = world.add_node(user)
        obj = ResourceObject(f"{user}_res", node.store, node.locks)
        node.listener.publish_object(obj, user_id=user, service="res")
        obj.add("slot")
    return world, users


# --------------------------------------------------------------------------- E1

@gated(key=("operation", "targets"), sim=("messages", "sim elapsed (ms)"))
def exp_e1_kernel_ops(group_sizes=(2, 4, 8, 16, 32, 64), seed: int = 1) -> dict[str, Any]:
    """E1 (Figures 1-3): cost of the SyD Kernel primitives.

    Group invocation is measured twice per size: with the engine's
    sequential loop (``batching = False``, the ablation baseline) and
    with scatter-gather batching (the default). Both move the same
    messages; only the virtual-time cost differs (sum of member round
    trips vs ~max per wave), which is why the latency column reports
    ``sim_elapsed`` — the virtual-clock critical path — rather than the
    summed per-message network delay.
    """
    world, users = _resource_world(max(group_sizes) + 1, seed)
    node = world.node(users[0])
    rows: list[list[Any]] = []

    with measure(world) as m:
        node.directory.lookup_user(users[1])
    rows.append(["directory lookup", 1, m.messages, m.sim_elapsed * 1e3])

    with measure(world) as m:
        node.directory.form_group("g-e1", users[0], users[1:5])
    rows.append(["group formation (4)", 4, m.messages, m.sim_elapsed * 1e3])

    with measure(world) as m:
        node.engine.execute(users[1], "res", "read", "slot")
    rows.append(["single invocation", 1, m.messages, m.sim_elapsed * 1e3])

    for n in group_sizes:
        members = users[1 : n + 1]
        node.engine.batching = False
        with measure(world) as m:
            node.engine.execute_group(members, "res", "read", "slot")
        rows.append(
            ["group invocation (sequential)", n, m.messages, m.sim_elapsed * 1e3]
        )
        node.engine.batching = True
        with measure(world) as m:
            node.engine.execute_group(members, "res", "read", "slot")
        rows.append(["group invocation", n, m.messages, m.sim_elapsed * 1e3])

    return {
        "id": "E1",
        "title": "E1 — SyD Kernel primitive costs (Figures 1-3)",
        "columns": ["operation", "targets", "messages", "sim elapsed (ms)"],
        "rows": rows,
    }


# --------------------------------------------------------------------------- E2

@gated(
    key=("constraint", "targets", "availability"),
    sim=("messages", "sim elapsed (ms)"),
)
def exp_e2_negotiation(
    sizes=(2, 4, 8, 16),
    availabilities=(1.0, 0.75, 0.5, 0.25),
    trials: int = 20,
    seed: int = 2,
) -> dict[str, Any]:
    """E2 (Figure 4): negotiation links across constraints, sizes, availability."""
    import random

    rows: list[list[Any]] = []
    constraints = [("and", AND), ("or", OR), ("xor", XOR), ("at_least_half", None)]
    for n in sizes:
        for p in availabilities:
            for name, constraint in constraints:
                if constraint is None:
                    constraint = at_least(max(1, n // 2))
                rng = random.Random(seed * 1000 + n * 10 + int(p * 100))
                successes, messages, latency = 0, 0, 0.0
                for trial in range(trials):
                    world, users = _resource_world(n + 1, seed=seed + trial)
                    initiator_node = world.node(users[0])
                    # Each target is available with probability p.
                    for u in users[1:]:
                        if rng.random() > p:
                            world.node(u).store.update(
                                "resources", None, {"status": "busy"}
                            )
                    targets = [Participant(u, "slot", "res") for u in users[1:]]
                    with measure(world) as m:
                        result = initiator_node.coordinator.execute(
                            Participant(users[0], "slot", "res"), targets, constraint
                        )
                    successes += int(result.ok)
                    messages += m.messages
                    latency += m.sim_elapsed
                rows.append(
                    [
                        name,
                        n,
                        p,
                        successes / trials,
                        messages / trials,
                        latency / trials * 1e3,
                    ]
                )
    return {
        "id": "E2",
        "title": "E2 — negotiation links: success rate and cost (Figure 4)",
        "columns": [
            "constraint",
            "targets",
            "availability",
            "success rate",
            "messages",
            "sim elapsed (ms)",
        ],
        "rows": rows,
    }


# --------------------------------------------------------------------------- E3

@gated(key=("waiting links",), sim=("messages", "sim elapsed (ms)"))
def exp_e3_cancel_cascade(depths=(1, 2, 4, 8, 16, 32), seed: int = 3) -> dict[str, Any]:
    """E3 (§4.4): waiting-link promotion + cascade deletion vs chain depth."""
    rows: list[list[Any]] = []
    for depth in depths:
        world, users = _resource_world(depth + 2, seed)
        a = world.node(users[0])
        blocking = a.links.create_link(
            LinkType.NEGOTIATION,
            [LinkRef(users[1], "slot", "res")],
            constraint=AND,
            context={"cascade_id": "root"},
        )
        # `depth` remote tentative links waiting on the blocking link.
        for i in range(depth):
            owner = users[i + 1]
            remote = world.node(owner).links.create_link(
                LinkType.NEGOTIATION,
                [LinkRef(users[0], "slot", "res")],
                constraint=AND,
                subtype=LinkSubtype.TENTATIVE,
            )
            a.links.register_waiting(
                blocking.link_id, owner, remote.link_id, priority=5, group_id="grp"
            )
        with measure(world) as m:
            promoted = a.links.delete_link(blocking.link_id)
        rows.append([depth, len(promoted), m.messages, m.sim_elapsed * 1e3])
    return {
        "id": "E3",
        "title": "E3 — cancel: waiting-link promotion and cascade cost (§4.4)",
        "columns": ["waiting links", "promoted", "messages", "sim elapsed (ms)"],
        "rows": rows,
    }


# --------------------------------------------------------------------------- E4

@gated(key=("participants", "occupancy"), sim=("messages/req", "sim elapsed (ms)"))
def exp_e4_meeting_setup(
    occupancies=(0.1, 0.3, 0.5, 0.7, 0.9),
    participants=(2, 4, 8),
    requests: int = 15,
    seed: int = 4,
) -> dict[str, Any]:
    """E4 (§5): end-to-end meeting scheduling vs calendar occupancy."""
    rows: list[list[Any]] = []
    for n in participants:
        for rho in occupancies:
            app = build_calendar_population(
                max(n + 2, 6), seed=seed, occupancy=rho
            )
            users = sorted(app.users)
            confirmed = tentative = failed = 0
            messages = latency = 0.0
            for req in meeting_request_stream(
                users, requests, seed=seed, group_size=n
            ):
                manager = app.manager(req.initiator)
                with measure(app.world) as m:
                    try:
                        meeting = manager.schedule_meeting(
                            req.title, list(req.participants)
                        )
                        if meeting.status is MeetingStatus.CONFIRMED:
                            confirmed += 1
                        else:
                            tentative += 1
                    except SchedulingError:
                        failed += 1
                messages += m.messages
                latency += m.sim_elapsed
            rows.append(
                [
                    n,
                    rho,
                    confirmed / requests,
                    tentative / requests,
                    failed / requests,
                    messages / requests,
                    latency / requests * 1e3,
                ]
            )
    return {
        "id": "E4",
        "title": "E4 — meeting setup vs occupancy and group size (§5)",
        "columns": [
            "participants",
            "occupancy",
            "confirmed",
            "tentative",
            "failed",
            "messages/req",
            "sim elapsed (ms)",
        ],
        "rows": rows,
    }


# --------------------------------------------------------------------------- E5

def exp_e5_proxy(journal_sizes=(0, 10, 50, 200), seed: int = 5) -> dict[str, Any]:
    """E5 (§5.2): proxy failover — availability and cost."""
    from repro.kernel.listener import SyDListener
    from repro.net.address import DeviceClass, NodeAddress
    from repro.proxy.device import ProxiedDevice
    from repro.proxy.nameserver import NameServerService
    from repro.proxy.proxy import ProxyHost

    rows: list[list[Any]] = []
    for journal in journal_sizes:
        world = SyDWorld(seed=seed)
        ns = NameServerService()
        ns_listener = SyDListener("syd-nameserver")
        ns_listener.publish_object(ns)
        world.transport.register(
            NodeAddress("syd-nameserver", DeviceClass.SERVER),
            lambda msg, lst=ns_listener: lst.handle_invoke(msg),
        )
        host = ProxyHost("proxy-1", world.transport, nameserver_node="syd-nameserver")
        host.register_factory(
            "resource", lambda user, store: ResourceObject(f"{user}_res", store)
        )
        phil = world.add_node("phil")
        obj = ResourceObject("phil_res", phil.store, phil.locks)
        phil.listener.publish_object(obj, user_id="phil", service="res")
        obj.add("slot")
        device = ProxiedDevice(phil, "syd-nameserver")
        device.export_service("res", "phil_res", "resource")
        device.attach()
        caller = world.add_node("caller")

        with measure(world) as m_up:
            caller.engine.execute("phil", "res", "read", "slot")

        world.take_down("phil")
        with measure(world) as m_down:
            caller.engine.execute("phil", "res", "read", "slot")

        # Proxy accepts `journal` writes while the device is down.
        for i in range(journal):
            caller.engine.execute("phil", "res", "set_status", "slot", f"s{i}")

        world.bring_up("phil")
        with measure(world) as m_back:
            applied = device.reconnect()

        # Availability without a proxy, for contrast.
        phil.directory.set_proxy("phil", None)
        world.take_down("phil")
        try:
            caller.engine.execute("phil", "res", "read", "slot")
            no_proxy = "served"
        except UnreachableError:
            no_proxy = "FAILS"
        rows.append(
            [
                journal,
                m_up.sim_latency * 1e3,
                m_down.sim_latency * 1e3,
                applied,
                m_back.sim_latency * 1e3,
                no_proxy,
            ]
        )
    return {
        "id": "E5",
        "title": "E5 — proxy failover and handback (§5.2)",
        "columns": [
            "proxy writes",
            "direct (ms)",
            "via proxy (ms)",
            "replayed",
            "handback (ms)",
            "down w/o proxy",
        ],
        "rows": rows,
    }


# --------------------------------------------------------------------------- E6

def exp_e6_triggers(fanouts=(1, 2, 4, 8, 16, 32), seed: int = 6) -> dict[str, Any]:
    """E6 (§5.3): DB-resident triggers vs middleware triggers (ablation)."""
    from repro.datastore.predicate import where
    from repro.datastore.triggers import RowTrigger, TriggerEvent

    rows: list[list[Any]] = []
    for fanout in fanouts:
        for mode in ("db-trigger", "middleware"):
            world, users = _resource_world(fanout + 2, seed)
            src = world.node(users[0])
            dests = users[1 : fanout + 1]

            if mode == "db-trigger":
                # Oracle-style: a row trigger inside the store calls out.
                def action(ctx, node=src, targets=tuple(dests)):
                    for d in targets:
                        node.engine.execute(
                            d, "res", "on_peer_change", "slot",
                            {"new": ctx.new},
                        )

                src.store.add_trigger(
                    RowTrigger(
                        f"propagate-{fanout}",
                        "resources",
                        frozenset({TriggerEvent.UPDATE}),
                        action,
                    )
                )
            else:
                # §5.3's proposal: the middleware fires after the method.
                src.enable_middleware_triggers()
                for d in dests:
                    src.links.add_link_method(
                        f"{users[0]}_res", "set_status", d, "res", "on_peer_change"
                    )

            caller = world.node(users[-1])
            with measure(world) as m:
                caller.engine.execute(users[0], "res", "set_status", "slot", "busy")
            rows.append([mode, fanout, m.messages, m.sim_latency * 1e3])
    return {
        "id": "E6",
        "title": "E6 — DB triggers vs middleware triggers (§5.3 ablation)",
        "columns": ["mode", "fan-out", "messages", "sim latency (ms)"],
        "rows": rows,
    }


# --------------------------------------------------------------------------- E7

def exp_e7_security(sizes=(16, 64, 256, 1024), seed: int = 7) -> dict[str, Any]:
    """E7 (§5.4): TEA authentication overhead."""
    import time

    from repro.security import tea
    from repro.security.envelope import Credentials, seal, unseal

    rows: list[list[Any]] = []
    for size in sizes:
        data = bytes(range(256)) * (size // 256 + 1)
        data = data[:size]
        t0 = time.perf_counter()
        n = 200
        for _ in range(n):
            blob = tea.encrypt(data, "key", iv=bytes(8))
        enc_us = (time.perf_counter() - t0) / n * 1e6
        t0 = time.perf_counter()
        for _ in range(n):
            tea.decrypt(blob, "key")
        dec_us = (time.perf_counter() - t0) / n * 1e6
        rows.append([f"tea {size}B", enc_us, dec_us, len(blob) - size])

    creds = Credentials("phil", "secret")
    t0 = time.perf_counter()
    n = 500
    for _ in range(n):
        envelope = seal(creds, "net")
    seal_us = (time.perf_counter() - t0) / n * 1e6
    t0 = time.perf_counter()
    for _ in range(n):
        unseal(envelope, "net")
    unseal_us = (time.perf_counter() - t0) / n * 1e6
    rows.append(["credential envelope", seal_us, unseal_us, len(envelope)])

    # Per-request traffic overhead of authentication.
    world = SyDWorld(seed=seed, auth_passphrase="net")
    a = world.add_node("a", password="pa")
    b = world.add_node("b", password="pb")
    obj = ResourceObject("b_res", b.store, b.locks)
    b.listener.publish_object(obj, user_id="b", service="res")
    obj.add("slot")
    b.auth_table.grant("a", "pa")
    with measure(world) as m_auth:
        a.engine.execute("b", "res", "read", "slot")
    a.engine.credentials = None
    b.listener._auth_passphrase = None
    with measure(world) as m_plain:
        a.engine.execute("b", "res", "read", "slot")
    rows.append(
        ["request bytes (auth vs plain)", m_auth.bytes, m_plain.bytes,
         m_auth.bytes - m_plain.bytes]
    )
    return {
        "id": "E7",
        "title": "E7 — TEA authentication overhead (§5.4)",
        "columns": ["operation", "encrypt/seal (µs) | bytes", "decrypt/unseal (µs) | bytes", "overhead"],
        "rows": rows,
    }


# --------------------------------------------------------------------------- E8

def exp_e8_comparison(
    n_users: int = 8, n_meetings: int = 10, n_cancels: int = 3, seed: int = 8
) -> dict[str, Any]:
    """E8 (§6): SyD calendar vs replicated-email vs centralized, quantified."""
    from repro.baselines.centralized import CentralizedCalendarBaseline
    from repro.baselines.replicated import ReplicatedCalendarBaseline

    rows: list[list[Any]] = []

    # ---- SyD -----------------------------------------------------------
    app = build_calendar_population(n_users, seed=seed, occupancy=0.3)
    users = sorted(app.users)
    scheduled = []
    before = app.world.stats.snapshot()
    for req in meeting_request_stream(users, n_meetings, seed=seed, group_size=3):
        try:
            meeting = app.manager(req.initiator).schedule_meeting(
                req.title, list(req.participants)
            )
            scheduled.append((req.initiator, meeting))
        except SchedulingError:
            pass
    confirmed = sum(
        1 for _, m in scheduled if m.status is MeetingStatus.CONFIRMED
    )
    for initiator, meeting in scheduled[:n_cancels]:
        app.manager(initiator).cancel_meeting(meeting.meeting_id)
    syd_msgs = app.world.stats.snapshot().delta(before).messages
    storage = app.total_storage_bytes()
    syd_row = [
        "SyD",
        f"{confirmed}/{n_meetings}",
        syd_msgs + app.mail.sent,
        app.mail.action_required,           # zero manual interventions
        max(storage.values()),
        "yes",                              # auto reschedule / promotion
    ]

    # ---- replicated / email ---------------------------------------------
    rep = ReplicatedCalendarBaseline(days=5)
    for u in users:
        rep.add_user(u)
    import random as _random

    rng = _random.Random(seed)
    for u in users:
        for d in range(5):
            for h in range(9, 17):
                if rng.random() < 0.3:
                    rep.block(u, d, h)
    rep.sync_replicas()
    rep_confirmed = 0
    rep_meetings = []
    for req in meeting_request_stream(users, n_meetings, seed=seed, group_size=3):
        mid, _rounds = rep.schedule_meeting_full_cycle(
            req.initiator, req.title, list(req.participants)
        )
        if mid:
            rep_confirmed += 1
            rep_meetings.append((req.initiator, mid))
    for initiator, mid in rep_meetings[:n_cancels]:
        rep.cancel_meeting(initiator, mid)
        for u in users:
            rep.process_cancellation(u)
    rep_row = [
        "replicated+email",
        f"{rep_confirmed}/{n_meetings}",
        rep.mail.sent + rep.replication_messages,
        rep.manual_interventions,
        max(rep.storage_bytes(u) for u in users),
        "no",
    ]

    # ---- centralized ----------------------------------------------------
    cen = CentralizedCalendarBaseline(days=5)
    for u in users:
        cen.add_user(u)
    rng = _random.Random(seed)
    for u in users:
        for d in range(5):
            for h in range(9, 17):
                if rng.random() < 0.3:
                    cen.block(u, d, h)
    cen_confirmed = 0
    cen_meetings = []
    for req in meeting_request_stream(users, n_meetings, seed=seed, group_size=3):
        mid = cen.schedule_meeting(req.initiator, req.title, list(req.participants))
        if mid:
            cen_confirmed += 1
            cen_meetings.append((req.initiator, mid))
    for initiator, mid in cen_meetings[:n_cancels]:
        cen.cancel_meeting(initiator, mid)
    cen_row = [
        "centralized",
        f"{cen_confirmed}/{n_meetings}",
        cen.messages,
        0,
        cen.server_storage_bytes(),  # all storage on the server
        "no",
    ]

    rows.extend([syd_row, rep_row, cen_row])
    return {
        "id": "E8",
        "title": "E8 — SyD vs existing calendar designs, quantified (§6)",
        "columns": [
            "system",
            "confirmed",
            "messages",
            "manual steps",
            "max storage (B)",
            "auto promote/resched",
        ],
        "rows": rows,
    }


def exp_e8b_storage_scaling(populations=(2, 4, 8, 16, 32), seed: int = 8) -> dict[str, Any]:
    """E8b (§6): per-user storage vs population size.

    The §6 claim: "each user's local machine stores only that particular
    user's information ... this requires much less storage space". SyD
    per-user bytes must stay flat as the population grows; the
    replicated design's grow linearly (every user holds every folder).
    """
    from repro.baselines.replicated import ReplicatedCalendarBaseline

    rows: list[list[Any]] = []
    for n in populations:
        app = build_calendar_population(n, seed=seed)
        syd_per_user = max(app.total_storage_bytes().values())

        rep = ReplicatedCalendarBaseline(days=5)
        for i in range(n):
            rep.add_user(f"u{i:03d}")
        rep_per_user = max(rep.storage_bytes(f"u{i:03d}") for i in range(n))
        rows.append([n, syd_per_user, rep_per_user, rep_per_user / syd_per_user])
    return {
        "id": "E8B",
        "title": "E8b — per-user storage vs population (§6 storage claim)",
        "columns": ["users", "SyD bytes/user", "replicated bytes/user", "ratio"],
        "rows": rows,
    }


# --------------------------------------------------------------------------- E9

def exp_e9_quorum(
    bio_sizes=(4, 6, 8),
    quorums=(0.25, 0.5, 0.75),
    seed: int = 9,
) -> dict[str, Any]:
    """E9 (§5): quorum scheduling — Biology k-of-n + Physics >= 2 + musts."""
    rows: list[list[Any]] = []
    for n_bio in bio_sizes:
        for q in quorums:
            k = max(1, int(q * n_bio))
            app = build_calendar_population(
                3 + n_bio + 3, seed=seed, occupancy=0.4
            )
            users = sorted(app.users)
            initiator, participants, must, groups = quorum_request(
                users, must=2, group_sizes=(n_bio, 3), ks=(k, 2)
            )
            with measure(app.world) as m:
                try:
                    meeting = app.manager(initiator).schedule_meeting(
                        "faculty", participants, must_attend=must, or_groups=groups
                    )
                    status = meeting.status.value
                    committed = len(meeting.committed)
                except SchedulingError:
                    status, committed = "failed", 0
            rows.append(
                [n_bio, f"{k}/{n_bio}", status, committed, m.messages, m.sim_elapsed * 1e3]
            )
    return {
        "id": "E9",
        "title": "E9 — quorum / OR-group scheduling (§5 second example)",
        "columns": ["biology n", "quorum k", "status", "committed", "messages", "sim elapsed (ms)"],
        "rows": rows,
    }


def exp_e10_contention(
    contenders=(2, 4, 8), seed: int = 10
) -> dict[str, Any]:
    """E10 (§5's race): query-then-write vs negotiation links under
    contention. Several initiators target the *same* popular participant
    in the same window; the naive path double-books, SyD never does."""
    from repro.baselines.naive import run_interleaved_naive, run_interleaved_syd

    rows: list[list[Any]] = []
    for n in contenders:
        for mode in ("naive", "syd"):
            app = build_calendar_population(n + 1, seed=seed)
            users = sorted(app.users)
            popular = users[-1]
            requests = [(users[i], [popular]) for i in range(n)]
            runner = run_interleaved_naive if mode == "naive" else run_interleaved_syd
            report = runner(app, requests, day_from=0, day_to=0)
            rows.append(
                [
                    mode,
                    n,
                    report.believed_successes,
                    report.double_booked_slots,
                    report.conflicting_meetings,
                ]
            )
    return {
        "id": "E10",
        "title": "E10 — the §5 race: query-then-write vs negotiation links",
        "columns": [
            "mode",
            "contenders",
            "believed successes",
            "double-booked slots",
            "conflicting meetings",
        ],
        "rows": rows,
    }


@gated(key=("intensity", "retry"), sim=("violations", "messages"))
def exp_e11_chaos(
    intensities=(0.5, 1.0, 2.0), episodes: int = 10, seed: int = 7
) -> dict[str, Any]:
    """E11 — chaos survivability: seeded fault campaigns with the engine
    RetryPolicy on vs off. Reports episodes that finish with zero
    invariant violations, total violations, and retry traffic. The
    retry-off rows are the ablation: they show how much of the paper's
    robustness story the retry/backoff layer carries.

    Pinned to the ``classic`` fault profile (crash/drop/partition/proxy)
    so the numbers stay comparable across revisions that add new fault
    kinds; E12 covers the delivery-semantics faults."""
    from repro.chaos import ChaosCampaign, ChaosConfig

    rows: list[list[Any]] = []
    for intensity in intensities:
        for retry in (True, False):
            config = ChaosConfig(
                seed=seed,
                episodes=episodes,
                intensity=intensity,
                retry=retry,
                profile="classic",
                shrink=False,
            )
            result = ChaosCampaign(config).run()
            violations = sum(len(e.violations) for e in result.episodes)
            messages = sum(e.messages for e in result.episodes)
            retries = sum(e.retries for e in result.episodes)
            recovered = sum(e.retry_successes for e in result.episodes)
            rows.append(
                [
                    f"{intensity:g}",
                    "on" if retry else "off",
                    f"{result.survived}/{len(result.episodes)}",
                    violations,
                    messages,
                    retries,
                    recovered,
                ]
            )
    return {
        "id": "E11",
        "title": "E11 — chaos survivability: fault campaigns, retry on vs off",
        "columns": [
            "intensity",
            "retry",
            "clean episodes",
            "violations",
            "messages",
            "retries",
            "recovered",
        ],
        "rows": rows,
    }


@gated(key=("mode",), sim=("violations", "messages", "bytes/msg", "per-call (ms)"))
def exp_e12_dedup(episodes: int = 10, calls: int = 50, seed: int = 7) -> dict[str, Any]:
    """E12 — exactly-once dispatch: what it costs and what it buys.

    Two parts in one table. The ``micro`` rows run a clean two-node
    world and measure the pure wire overhead of stamping idempotency
    keys (bytes per message and single-call latency, stamped vs the
    pre-exactly-once format). The ``campaign`` rows run the ``delivery``
    fault profile (lost replies + duplicate deliveries + crashes) in
    three modes:

    * ``exactly-once``  — keys stamped, receiver dedup on (the default);
    * ``at-least-once`` — keys stamped but dedup tables off (the
      ``--no-dedup`` ablation: retries re-execute, violations leak while
      staying attributable to their keys);
    * ``pre-PR wire``   — no keys at all (byte-for-byte the old wire
      format; the dedup machinery cannot engage).

    The exactly-once rows must be clean and the ``at-least-once`` rows
    must leak ``double_application`` violations — that asymmetry is the
    evidence the dedup layer (and not luck) carries the exactly-once
    property. The ``pre-PR wire`` rows are the byte baseline only: their
    duplicates re-execute just as blindly, but without keys the
    accounting invariant cannot attribute executions, and since the
    recovery/termination machinery landed the semantic residue heals
    before the checkers run.

    The whole experiment runs with span tracing *off*: it isolates the
    dedup-stamp overhead, so "pre-PR wire" has to be byte-for-byte the
    pre-exactly-once format with no trace headers muddying the bytes/msg
    column (E14 measures the tracing overhead on its own).
    """
    from repro.chaos import ChaosCampaign, ChaosConfig

    rows: list[list[Any]] = []

    # -- micro: wire overhead of stamping ---------------------------------
    for stamp in (False, True):
        world, users = _resource_world(2, seed, tracing=False)
        world.transport.stamp_dedup = stamp
        node = world.node(users[0])
        with measure(world) as m:
            for _ in range(calls):
                node.engine.execute(users[1], "res", "read", "slot")
        rows.append(
            [
                f"micro {'stamped' if stamp else 'unstamped'}",
                "-",
                "-",
                m.messages,
                round(m.bytes / m.messages, 1),
                0,
                m.sim_elapsed / calls * 1e3,
            ]
        )

    # -- campaign: delivery faults, three dispatch modes -------------------
    modes = (
        ("exactly-once", True, True),
        ("at-least-once", False, True),
        ("pre-PR wire", False, False),
    )
    for mode, dedup, stamp in modes:
        config = ChaosConfig(
            seed=seed,
            episodes=episodes,
            profile="delivery",
            dedup=dedup,
            stamp=stamp,
            shrink=False,
            tracing=False,
        )
        result = ChaosCampaign(config).run()
        violations = sum(len(e.violations) for e in result.episodes)
        messages = sum(e.messages for e in result.episodes)
        total_bytes = sum(e.bytes for e in result.episodes)
        replays = sum(e.replays for e in result.episodes)
        rows.append(
            [
                mode,
                f"{result.survived}/{len(result.episodes)}",
                violations,
                messages,
                round(total_bytes / messages, 1),
                replays,
                "-",
            ]
        )
    return {
        "id": "E12",
        "title": "E12 — exactly-once dispatch: overhead and ablations",
        "columns": [
            "mode",
            "clean episodes",
            "violations",
            "messages",
            "bytes/msg",
            "dedup replays",
            "per-call (ms)",
        ],
        "rows": rows,
    }


@gated(key=("mode",), sim=("violations", "decision_agreement", "no_stranded_marks"))
def exp_e13_recovery(episodes: int = 10, seed: int = 7) -> dict[str, Any]:
    """E13 — coordinator crash recovery: the ``recovery`` fault profile
    (mid-protocol coordinator deaths at targeted phases, plus ordinary
    crashes and drop windows) with the recovery machinery on vs off.

    * ``recovery-on``  — durable intent logs, presumed-abort replay on
      restart, and the participant lease-termination sweep (the
      default). Must be clean.
    * ``no-recovery``  — the ``--no-recovery`` ablation: the intent log
      is volatile (a restart wipes it) and no lease sweep runs — the
      pre-PR coordinator. Must leak ``decision_agreement`` (a change
      applied with no durable commit record survives the wipe) and
      ``no_stranded_marks`` (orphaned marks outlive their lease with
      nobody to terminate them).

    The asymmetry is the evidence that the recovery protocol — not the
    fault mix being gentle — carries the crash-safety property.
    """
    from repro.chaos import ChaosCampaign, ChaosConfig

    rows: list[list[Any]] = []
    for mode, recovery in (("recovery-on", True), ("no-recovery", False)):
        config = ChaosConfig(
            seed=seed,
            episodes=episodes,
            profile="recovery",
            recovery=recovery,
            shrink=False,
        )
        result = ChaosCampaign(config).run()
        violations = [v for e in result.episodes for v in e.violations]
        rows.append(
            [
                mode,
                f"{result.survived}/{len(result.episodes)}",
                len(violations),
                sum(1 for v in violations if v.check == "decision_agreement"),
                sum(1 for v in violations if v.check == "no_stranded_marks"),
                sum(e.recoveries for e in result.episodes),
                sum(e.terminations for e in result.episodes),
            ]
        )
    return {
        "id": "E13",
        "title": "E13 — coordinator crash recovery: intent-log replay on vs off",
        "columns": [
            "mode",
            "clean episodes",
            "violations",
            "decision_agreement",
            "no_stranded_marks",
            "recoveries",
            "lease terminations",
        ],
        "rows": rows,
    }


@gated(
    key=("mode",),
    sim=("messages", "bytes/msg", "per-call (ms, sim)"),
    wall=("per-call (µs, wall)",),
)
def exp_e14_obs(calls: int = 50, seed: int = 1, sample: int = 4) -> dict[str, Any]:
    """E14 — causal tracing: wire overhead and span cost.

    The same two-node micro workload as E12's micro rows (``calls``
    cross-node reads), run three ways:

    * ``tracing off``  — ``SyDWorld(tracing=False)``: no tracer, no
      trace headers on the wire.  This is the baseline; it must be
      byte-for-byte the stamped (exactly-once) wire format, i.e. the
      observability layer costs nothing when disabled.
    * ``sampled 1/k``  — tracing on with root sampling: only every
      k-th root trace is recorded, and unsampled roots suppress their
      subtree *and its wire stamps*, so both the span count and the
      byte overhead scale down with the sampling rate.
    * ``tracing on``   — every root recorded, every message stamped
      with ``(trace_id, parent_span_id)``.

    Span creation costs no virtual time (the clock only advances on
    network hops), so the sim per-call column is identical across rows
    up to jitter draws; the wire column is the honest price.  The
    acceptance bar: tracing on adds at most ~15% bytes/msg over the
    baseline, and disabled tracing adds nothing at all.
    """
    rows: list[list[Any]] = []
    base_bpm: float | None = None
    modes = (
        ("tracing off", False, 1),
        (f"sampled 1/{sample}", True, sample),
        ("tracing on", True, 1),
    )
    for mode, tracing, k in modes:
        world, users = _resource_world(2, seed, tracing=tracing, trace_sample=k)
        node = world.node(users[0])
        spans_before = world.tracer.span_count() if tracing else 0
        wall0 = time.perf_counter()
        with measure(world) as m:
            for _ in range(calls):
                node.engine.execute(users[1], "res", "read", "slot")
        wall = time.perf_counter() - wall0
        spans = (world.tracer.span_count() - spans_before) if tracing else 0
        bpm = m.bytes / m.messages
        if base_bpm is None:
            base_bpm = bpm
        overhead = (bpm / base_bpm - 1.0) * 100.0
        rows.append(
            [
                mode,
                m.messages,
                round(bpm, 1),
                f"{overhead:+.1f}%",
                spans,
                m.sim_elapsed / calls * 1e3,
                round(wall / calls * 1e6, 1),
            ]
        )
    return {
        "id": "E14",
        "title": "E14 — causal tracing: wire overhead and span cost",
        "columns": [
            "mode",
            "messages",
            "bytes/msg",
            "overhead",
            "spans",
            "per-call (ms, sim)",
            "per-call (µs, wall)",
        ],
        "rows": rows,
    }


@gated(key=("workload", "mode"), wall=("µs/msg",))
def exp_e15_throughput(
    rpc_calls: int = 20000,
    batches: int = 250,
    batch_size: int = 64,
    engine_calls: int = 400,
    chaos_ops: int = 15,
    seed: int = 7,
) -> dict[str, Any]:
    """E15 — raw simulation throughput: the transport's messages/sec gate.

    Four workloads, each run with tracing off (``default``) and on
    (``tracing on``):

    * ``rpc``            — raw transport round trips, two server nodes,
      ``ConstantLatency``: the purest hot-path measurement.
    * ``rpc_many n=64``  — scatter-gather batches: the group-operation
      hot path.
    * ``engine (E14 micro)`` — the same two-node engine workload E14
      measures; its **default** row is the E14 tracing-off baseline the
      ROADMAP's ≥10× success metric is measured against.
    * ``chaos replay``   — one seeded chaos episode end to end.

    ``meta.vs_e14_baseline_x`` records the headline metric: default
    raw-rpc messages/sec over the E14-baseline engine default.
    """
    from repro.chaos.campaign import ChaosCampaign, ChaosConfig
    from repro.net.address import DeviceClass, NodeAddress
    from repro.net.latency import ConstantLatency
    from repro.net.transport import Transport
    from repro.util.clock import VirtualClock
    from repro.util.trace import Tracer

    def raw_transport(tracing: bool) -> Transport:
        clock = VirtualClock()
        tracer = Tracer(clock)
        tracer.enabled = tracing
        transport = Transport(clock=clock, latency=ConstantLatency(0.001), tracer=tracer)
        for i in range(batch_size + 1):
            transport.register(
                NodeAddress(f"n{i:03d}", DeviceClass.SERVER), lambda m: {"ok": 1}
            )
        return transport

    def run_rpc(tracing: bool) -> tuple[int, float]:
        transport = raw_transport(tracing)
        t0 = time.perf_counter()
        for _ in range(rpc_calls):
            transport.rpc("n000", "n001", "read", {"k": "slot"})
        wall = time.perf_counter() - t0
        return transport.stats.messages, wall

    def run_rpc_many(tracing: bool) -> tuple[int, float]:
        transport = raw_transport(tracing)
        legs = [(f"n{i + 1:03d}", "read", {"k": "slot"}) for i in range(batch_size)]
        t0 = time.perf_counter()
        for _ in range(batches):
            transport.rpc_many("n000", legs)
        wall = time.perf_counter() - t0
        return transport.stats.messages, wall

    def run_engine(tracing: bool) -> tuple[int, float]:
        world, users = _resource_world(2, seed, tracing=tracing)
        node = world.node(users[0])
        t0 = time.perf_counter()
        for _ in range(engine_calls):
            node.engine.execute(users[1], "res", "read", "slot")
        wall = time.perf_counter() - t0
        return world.transport.stats.messages, wall

    def run_chaos(tracing: bool) -> tuple[int, float]:
        cfg = ChaosConfig(
            seed=seed,
            episodes=1,
            users=4,
            ops=chaos_ops,
            duration=60.0,
            shrink=False,
            tracing=tracing,
        )
        t0 = time.perf_counter()
        episode = ChaosCampaign(cfg).run_episode(0, quiet=True)
        wall = time.perf_counter() - t0
        return episode.messages, wall

    workloads = [
        ("rpc", run_rpc),
        (f"rpc_many n={batch_size}", run_rpc_many),
        ("engine (E14 micro)", run_engine),
        ("chaos replay", run_chaos),
    ]
    modes = [("default", False), ("tracing on", True)]
    rows: list[list[Any]] = []
    rates: dict[tuple[str, str], float] = {}
    for wname, fn in workloads:
        for mname, tracing in modes:
            msgs, wall = fn(tracing)
            rate = msgs / wall if wall > 0 else 0.0
            rates[(wname, mname)] = rate
            rows.append(
                [
                    wname,
                    mname,
                    msgs,
                    round(wall, 4),
                    int(rate),
                    round(wall / msgs * 1e6, 2) if msgs else 0.0,
                ]
            )
    baseline = rates[("engine (E14 micro)", "default")]
    return {
        "id": "E15",
        "title": "E15 — raw simulation throughput (simulated messages/sec of wall time)",
        "columns": ["workload", "mode", "messages", "wall (s)", "msgs/sec", "µs/msg"],
        "rows": rows,
        "artifact": "BENCH_throughput.json",
        "meta": {
            "vs_e14_baseline_x": round(rates[("rpc", "default")] / baseline, 1)
            if baseline
            else None,
        },
    }


@gated(key=("devices",), wall=("p50 lookup (µs)",))
def exp_e16_scale(
    populations=(1_000, 10_000, 100_000),
    big_population: int = 1_000_000,
    lookups: int = 400,
    batch_size: int = 32,
    batches: int = 10,
    per_shard: int = 25_000,
    seed: int = 16,
) -> dict[str, Any]:
    """E16 — population scale: directory lookups vs device count.

    For each population the directory is seeded with that many device
    registrations — bulk-loaded straight into the shard stores, the way
    a control-plane restore would, since driving a million
    ``publish_user`` RPCs would measure the seeding loop, not the
    lookups. Shard count scales proportionally (one shard per
    ``per_shard`` devices, R=2 once sharded; N=1 below the threshold,
    exercising the plain single-node path), then a probe node issues
    ``lookups`` uniformly-sampled ``lookup_user`` calls and ``batches``
    ``lookup_users_many`` batches.

    Reported per row: p50/p95 wall-clock per lookup, messages per
    lookup, and batch messages per key. The headline claim
    (``meta.flat_within_2x``) is that p50 per-op latency at 100k devices
    stays within 2× of the 1k row — consistent hashing makes each
    lookup a single-shard conversation, so latency tracks shard-local
    store size (O(1) hash index), not population. The ``big_population``
    row (1M devices, 40 shards) joins the flatness pair as its high end;
    set it to 0 to skip (the reduced ``--fast`` sweep does).
    """
    import statistics

    def seed_directory(world: SyDWorld, population: int) -> float:
        """Bulk-load ``population`` device registrations; returns wall s."""
        t0 = time.perf_counter()
        topology = world.directory_topology
        if topology is None:
            store = world.directory_service.store
            owners_of = lambda uid: [store]  # noqa: E731
        else:
            shard_stores = {s.name: s.service.store for s in topology.shard_list()}
            owners_of = lambda uid: [  # noqa: E731
                shard_stores[n] for n in topology.ring.owners(f"u:{uid}")
            ]
        for i in range(population):
            uid = f"u{i:07d}"
            for store in owners_of(uid):
                store.insert(
                    "users",
                    {
                        "user_id": uid,
                        "node_id": f"{uid}-dev",
                        "proxy_node": None,
                        "online": True,
                        "info": None,
                    },
                )
        return time.perf_counter() - t0

    def run_row(population: int) -> list[Any]:
        shards = max(1, min(40, population // per_shard))
        replicas = 2 if shards > 1 else 1
        world = SyDWorld(
            seed=seed,
            latency="zero",
            tracing=False,
            directory_shards=shards,
            directory_replicas=replicas,
        )
        seed_s = seed_directory(world, population)
        world.add_node("probe")
        probe = world.node("probe").directory
        rng = __import__("random").Random(seed + population)
        targets = [f"u{rng.randrange(population):07d}" for _ in range(lookups)]
        m0 = world.stats.messages
        samples = []
        for uid in targets:
            t0 = time.perf_counter()
            probe.lookup_user(uid)
            samples.append((time.perf_counter() - t0) * 1e6)
        per_lookup_msgs = (world.stats.messages - m0) / lookups
        m0 = world.stats.messages
        for b in range(batches):
            keys = [f"u{rng.randrange(population):07d}" for _ in range(batch_size)]
            for _, err in probe.lookup_users_many(keys):
                assert err is None
        batch_msgs_per_key = (world.stats.messages - m0) / (batches * batch_size)
        return [
            population,
            shards,
            replicas,
            round(seed_s, 2),
            round(statistics.median(samples), 1),
            round(statistics.quantiles(samples, n=20)[18], 1),
            round(per_lookup_msgs, 2),
            round(batch_msgs_per_key, 2),
        ]

    rows = [run_row(p) for p in sorted(populations)]
    if big_population:
        rows.append(run_row(big_population))

    by_pop = {row[0]: row for row in rows}
    p50_index, msgs_index = 4, 6
    lo = min(by_pop)
    hi = max(by_pop)
    flat = by_pop[hi][p50_index] <= 2 * by_pop[lo][p50_index]
    return {
        "id": "E16",
        "title": "E16 — population scale: directory lookup latency vs device count",
        "columns": [
            "devices",
            "shards",
            "replicas",
            "seed (s)",
            "p50 lookup (µs)",
            "p95 lookup (µs)",
            "msgs/lookup",
            "batch msgs/key",
        ],
        "rows": rows,
        "artifact": "BENCH_scale.json",
        "meta": {
            "flat_within_2x": flat,
            "two_msgs_per_lookup": all(row[msgs_index] == 2.0 for row in rows),
            "flat_pair": [lo, hi],
            "per_shard_devices": per_shard,
        },
    }


@gated(key=("mode",), sim=("p50 (sim ms)", "p99 (sim ms)", "msgs/lookup"))
def exp_e17_hedging(
    population: int = 240,
    lookups: int = 400,
    shards: int = 8,
    replicas: int = 2,
    slow_scale: float = 0.4,
    slow_shape: float = 1.5,
    seed: int = 17,
) -> dict[str, Any]:
    """E17 — hedged reads: tail latency under a slow-but-alive shard.

    One directory shard gets gray ``slow_node`` inflation (seeded
    Pareto-tailed extra delay on every leg it touches — it still
    answers, just late), then a probe issues ``lookups`` uniformly
    sampled ``lookup_user`` calls under three configurations: the full
    stack (health monitor + hedged reads), ``--no-hedge`` (detector on,
    hedging off) and ``--no-health`` (neither — PR 8's behaviour).

    With hedging on, a lookup whose ranked primary is the slow shard
    fires a backup leg at the next ring owner after a suspicion-scaled
    delay (base 0.25 s) and the first reply wins, so the slow shard's
    Pareto tail is cut at roughly the hedge delay plus one healthy
    round trip. The cost is two extra messages per fired hedge — and
    hedges only fire for the ~1/``shards`` of keys whose primary is
    slow (healthy primaries answer well under the hedge timer), which
    is what keeps the message overhead bounded.

    Gates (``meta``): hedged p99 must be ≥2× better than the unhedged
    (``no-hedge``) row, for ≤1.15× its messages per lookup.
    """
    import statistics

    def seed_directory(world: SyDWorld) -> None:
        topology = world.directory_topology
        shard_stores = {s.name: s.service.store for s in topology.shard_list()}
        for i in range(population):
            uid = f"u{i:07d}"
            for name in topology.ring.owners(f"u:{uid}"):
                shard_stores[name].insert(
                    "users",
                    {
                        "user_id": uid,
                        "node_id": f"{uid}-dev",
                        "proxy_node": None,
                        "online": True,
                        "info": None,
                    },
                )

    def run_mode(mode: str, health: bool, hedge: bool) -> list[Any]:
        world = SyDWorld(
            seed=seed,
            tracing=False,
            health=health,
            hedge=hedge,
            directory_shards=shards,
            directory_replicas=replicas,
        )
        seed_directory(world)
        world.add_node("probe")
        probe = world.node("probe").directory
        slow = world.directory_topology.shard_list()[0].node_id
        world.transport.faults.slow_node(
            slow,
            rng=__import__("random").Random(seed + 1),
            scale=slow_scale,
            shape=slow_shape,
        )
        rng = __import__("random").Random(seed + 2)
        targets = [f"u{rng.randrange(population):07d}" for _ in range(lookups)]
        m0 = world.stats.messages
        samples = []
        for uid in targets:
            t0 = world.clock.now()
            probe.lookup_user(uid)
            samples.append((world.clock.now() - t0) * 1000.0)
        return [
            mode,
            lookups,
            round(statistics.median(samples), 2),
            round(statistics.quantiles(samples, n=100)[98], 2),
            round((world.stats.messages - m0) / lookups, 3),
            world.stats.hedges,
            world.stats.hedge_wins,
        ]

    rows = [
        run_mode("hedged", health=True, hedge=True),
        run_mode("no-hedge", health=True, hedge=False),
        run_mode("no-health", health=False, hedge=False),
    ]
    by_mode = {row[0]: row for row in rows}
    p99, msgs = 3, 4
    p99_x = by_mode["no-hedge"][p99] / max(by_mode["hedged"][p99], 1e-9)
    msg_ratio = by_mode["hedged"][msgs] / max(by_mode["no-hedge"][msgs], 1e-9)
    return {
        "id": "E17",
        "title": "E17 — hedged directory reads under a slow-but-alive shard",
        "columns": [
            "mode",
            "lookups",
            "p50 (sim ms)",
            "p99 (sim ms)",
            "msgs/lookup",
            "hedges",
            "hedge wins",
        ],
        "rows": rows,
        "artifact": "BENCH_e17.json",
        "meta": {
            "p99_improvement_x": round(p99_x, 2),
            "hedged_p99_2x": p99_x >= 2.0,
            "msg_ratio": round(msg_ratio, 3),
            "msgs_within_1p15": msg_ratio <= 1.15,
        },
    }


@gated(key=("profile", "quantile"), sim=("elapsed (sim ms)",))
def exp_e18_attribution(
    users: int = 6,
    ops: int = 40,
    duration: float = 120.0,
    seed: int = 7,
    shards: int = 4,
    replicas: int = 2,
    population: int = 240,
    lookups: int = 400,
    slow_seed: int = 17,
) -> dict[str, Any]:
    """E18 — where the tail goes: latency attribution of ``cal.schedule``.

    Replays one traced chaos episode per configuration — ``classic``
    (crash/partition/loss faults), ``gray`` (stalled-but-alive nodes)
    and ``gray`` with hedged reads disabled — then runs the exact
    interval-partition attribution (:mod:`repro.obs.critical`) over
    every closed ``cal.schedule`` span and reports the p50 and p99
    operations' per-category breakdown.

    The claim quantified here: the two fault families build their tails
    out of *different* time. The classic tail is retry backoff (the
    caller sleeping between attempts at a dead destination); the gray
    tail is stall (a live destination answering late) plus the inflated
    transit itself.

    The second half reruns E17's slow-but-alive-shard setup under full
    tracing and attributes directory lookups: with hedging off the p99
    lookup is one long stalled transit; with hedging on the same
    quantile collapses to roughly the hedge delay plus a healthy round
    trip — hedging doesn't shrink the slow replica's stall, it removes
    it from the critical path.

    Gates (``meta``): the attribution must cover ~100% of each picked
    operation's elapsed time; stall+backoff must own a larger share of
    each profile's p99 than its p50 (the tail is *made of* waiting);
    and the no-hedge slow-shard p99 must be slower than the hedged one.
    """
    from repro.chaos import ChaosCampaign, ChaosConfig
    from repro.obs import CATEGORIES, attribute

    def run_mode(mode: str, profile: str, hedge: bool) -> list[list[Any]]:
        config = ChaosConfig(
            seed=seed,
            users=users,
            ops=ops,
            duration=duration,
            profile=profile,
            hedge=hedge,
            directory_shards=shards,
            directory_replicas=replicas,
            shrink=False,
        )
        campaign = ChaosCampaign(config)
        campaign.run_episode(0, quiet=True)
        spans = campaign.last_world.tracer.spans()
        schedules = sorted(
            (s for s in spans if s.name == "cal.schedule" and s.end is not None),
            key=lambda s: (s.end - s.start, s.span_id),
        )
        if not schedules:
            return []
        attrs = [attribute(spans, s) for s in schedules]
        items = [(a.elapsed, dict(a.categories), a.coverage) for a in attrs]
        return quantile_rows(mode, items)

    def quantile_rows(
        mode: str, items: list[tuple[float, dict[str, float], float]]
    ) -> list[list[Any]]:
        """p50/p99 rows (nearest rank by elapsed) for one configuration."""
        items = sorted(items, key=lambda it: it[0])
        rows = []
        for quantile in ("p50", "p99"):
            rank = (len(items) + 1) // 2 if quantile == "p50" else len(items)
            elapsed, categories, coverage = items[max(0, rank - 1)]
            share = lambda cat: (  # noqa: E731
                categories.get(cat, 0.0) / elapsed if elapsed > 0 else 0.0
            )
            rows.append(
                [
                    mode,
                    quantile,
                    len(items),
                    round(elapsed * 1000.0, 2),
                    round(share("net.transit") * 100.0, 1),
                    round(share("retry.backoff") * 100.0, 1),
                    round(share("stall") * 100.0, 1),
                    round(
                        sum(
                            share(c)
                            for c in CATEGORIES
                            if c not in ("net.transit", "retry.backoff", "stall")
                        )
                        * 100.0,
                        1,
                    ),
                    round(coverage * 100.0, 2),
                ]
            )
        return rows

    def run_slow_shard(mode: str, hedge: bool) -> list[list[Any]]:
        """E17's slow-but-alive shard, traced, lookups attributed."""
        world = SyDWorld(
            seed=slow_seed,
            tracing=True,
            health=True,
            hedge=hedge,
            directory_shards=8,
            directory_replicas=2,
        )
        topology = world.directory_topology
        shard_stores = {s.name: s.service.store for s in topology.shard_list()}
        for i in range(population):
            uid = f"u{i:07d}"
            for name in topology.ring.owners(f"u:{uid}"):
                shard_stores[name].insert(
                    "users",
                    {
                        "user_id": uid,
                        "node_id": f"{uid}-dev",
                        "proxy_node": None,
                        "online": True,
                        "info": None,
                    },
                )
        world.add_node("probe")
        probe = world.node("probe").directory
        slow = topology.shard_list()[0].node_id
        world.transport.faults.slow_node(
            slow,
            rng=__import__("random").Random(slow_seed + 1),
            scale=0.4,
            shape=1.5,
        )
        rng = __import__("random").Random(slow_seed + 2)
        targets = [f"u{rng.randrange(population):07d}" for _ in range(lookups)]
        marks: list[tuple[int, int, float]] = []
        for uid in targets:
            i0 = world.tracer.span_count()
            t0 = world.clock.now()
            probe.lookup_user(uid)
            marks.append((i0, world.tracer.span_count(), world.clock.now() - t0))
        spans = world.tracer.spans()
        items = []
        for i0, i1, elapsed in marks:
            categories: dict[str, float] = {}
            coverage_num = 0.0
            for span in spans[i0:i1]:
                if span.parent_id is not None or span.end is None:
                    continue
                attr = attribute(spans, span)
                for cat, value in attr.categories.items():
                    categories[cat] = categories.get(cat, 0.0) + value
                coverage_num += attr.total
            items.append(
                (elapsed, categories, coverage_num / elapsed if elapsed > 0 else 1.0)
            )
        return quantile_rows(mode, items)

    rows = [
        *run_mode("classic", "classic", hedge=True),
        *run_mode("gray", "gray", hedge=True),
        *run_slow_shard("slow-shard hedged", hedge=True),
        *run_slow_shard("slow-shard no-hedge", hedge=False),
    ]
    by_key = {(row[0], row[1]): row for row in rows}
    elapsed, backoff, stall, coverage = 3, 5, 6, 8

    def wait_share(key: tuple[str, str]) -> float:
        row = by_key[key]
        return row[backoff] + row[stall]

    tail_is_waiting = all(
        wait_share((mode, "p99")) >= wait_share((mode, "p50"))
        for mode in ("classic", "gray", "slow-shard no-hedge")
        if (mode, "p99") in by_key
    )
    hedge_helps = (
        by_key[("slow-shard no-hedge", "p99")][elapsed]
        > by_key[("slow-shard hedged", "p99")][elapsed]
        if ("slow-shard no-hedge", "p99") in by_key
        and ("slow-shard hedged", "p99") in by_key
        else False
    )
    return {
        "id": "E18",
        "title": "E18 — latency attribution of cal.schedule p50/p99 by fault profile",
        "columns": [
            "profile",
            "quantile",
            "schedules",
            "elapsed (sim ms)",
            "net.transit %",
            "retry.backoff %",
            "stall %",
            "other %",
            "coverage %",
        ],
        "rows": rows,
        "meta": {
            "tail_is_waiting": tail_is_waiting,
            "coverage_within_0p1": all(abs(row[coverage] - 100.0) <= 0.1 for row in rows),
            "hedge_removes_slow_shard_tail": hedge_helps,
            "gray_p99_stall_share": by_key[("gray", "p99")][stall]
            if ("gray", "p99") in by_key
            else None,
            "classic_p99_backoff_share": by_key[("classic", "p99")][backoff]
            if ("classic", "p99") in by_key
            else None,
            "hedged_p99_ms": by_key[("slow-shard hedged", "p99")][elapsed]
            if ("slow-shard hedged", "p99") in by_key
            else None,
            "no_hedge_p99_ms": by_key[("slow-shard no-hedge", "p99")][elapsed]
            if ("slow-shard no-hedge", "p99") in by_key
            else None,
        },
    }


ALL_EXPERIMENTS = {
    "E1": exp_e1_kernel_ops,
    "E2": exp_e2_negotiation,
    "E3": exp_e3_cancel_cascade,
    "E4": exp_e4_meeting_setup,
    "E5": exp_e5_proxy,
    "E6": exp_e6_triggers,
    "E7": exp_e7_security,
    "E8": exp_e8_comparison,
    "E8B": exp_e8b_storage_scaling,
    "E9": exp_e9_quorum,
    "E10": exp_e10_contention,
    "E11": exp_e11_chaos,
    "E12": exp_e12_dedup,
    "E13": exp_e13_recovery,
    "E14": exp_e14_obs,
    "E15": exp_e15_throughput,
    "E16": exp_e16_scale,
    "E17": exp_e17_hedging,
    "E18": exp_e18_attribution,
}

FAST_OVERRIDES: dict[str, dict[str, Any]] = {
    "E2": {"sizes": (2, 4), "availabilities": (1.0, 0.5), "trials": 4},
    "E3": {"depths": (1, 4, 8)},
    "E4": {"occupancies": (0.1, 0.5), "participants": (2, 4), "requests": 5},
    "E5": {"journal_sizes": (0, 10)},
    "E6": {"fanouts": (1, 4, 8)},
    "E8B": {"populations": (2, 4, 8)},
    "E9": {"bio_sizes": (4,), "quorums": (0.5,)},
    "E11": {"intensities": (1.0,), "episodes": 5},
    "E12": {"episodes": 5, "calls": 20},
    "E13": {"episodes": 5},
    "E14": {"calls": 20},
    "E15": {"rpc_calls": 4000, "batches": 40, "engine_calls": 100, "chaos_ops": 8},
    "E16": {"populations": (1_000, 10_000), "big_population": 0, "lookups": 120, "batches": 4},
    "E17": {"population": 120, "lookups": 120},
    "E18": {"ops": 20, "duration": 60.0},
}


def run_experiment(exp_id: str, fast: bool = False) -> dict[str, Any]:
    """Run one experiment; returns its table dict."""
    try:
        fn = ALL_EXPERIMENTS[exp_id]
    except KeyError:
        known = ", ".join(sorted(ALL_EXPERIMENTS))
        raise SystemExit(f"unknown experiment {exp_id!r} (known: {known})") from None
    kwargs = FAST_OVERRIDES.get(exp_id, {}) if fast else {}
    return fn(**kwargs)


def write_json(table: dict[str, Any], wall_time_s: float, json_dir: str, fast: bool) -> Path:
    """Write one experiment's table as ``BENCH_<id>.json``; returns the path.

    An experiment may name its artifact explicitly via an ``"artifact"``
    key (E15 writes ``BENCH_throughput.json``) and contribute extra
    ``"meta"`` entries, merged alongside the harness's own. ``json_dir``
    is created, with its parents, if it does not exist.
    """
    path = Path(json_dir) / table.get("artifact", f"BENCH_{table['id'].lower()}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "id": table["id"],
        "title": table["title"],
        "columns": table["columns"],
        "rows": table["rows"],
        "wall_time_s": round(wall_time_s, 3),
        "meta": {"fast": fast, **table.get("meta", {})},
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--exp", action="append", help="experiment id (repeatable)")
    parser.add_argument("--fast", action="store_true", help="reduced sweeps")
    parser.add_argument(
        "--json-dir", default=".", help="directory for BENCH_<id>.json files"
    )
    parser.add_argument(
        "--no-json", action="store_true", help="skip writing BENCH_<id>.json"
    )
    parser.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=15,
        default=None,
        metavar="N",
        help="run each experiment under cProfile and print the top N "
        "functions by internal time (default N=15)",
    )
    args = parser.parse_args(argv)
    targets = args.exp or sorted(ALL_EXPERIMENTS)
    for exp_id in targets:
        t0 = time.perf_counter()
        if args.profile:
            import cProfile
            import io
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            table = run_experiment(exp_id.upper(), fast=args.fast)
            profiler.disable()
        else:
            table = run_experiment(exp_id.upper(), fast=args.fast)
        wall = time.perf_counter() - t0
        print(format_table(table["title"], table["columns"], table["rows"]))
        if args.profile:
            buf = io.StringIO()
            pstats.Stats(profiler, stream=buf).sort_stats("tottime").print_stats(
                args.profile
            )
            print(buf.getvalue().rstrip())
        if not args.no_json:
            print(f"[wrote {write_json(table, wall, args.json_dir, args.fast)}]")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
