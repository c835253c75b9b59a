"""Fault injection for the simulated network.

Mobility in the paper means devices vanish (powered off, out of wireless
range) and reappear; the proxy machinery (§5.2) exists to mask exactly
that. The :class:`FaultPlan` is the single switchboard all experiments use
to take nodes down, create partitions, or drop specific messages.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.net.message import Message

DropRule = Callable[[Message], bool]


class FaultPlan:
    """Mutable description of what is currently broken in the network."""

    def __init__(self) -> None:
        self._down: set[str] = set()
        # Partition *layers*: each partition() call appends one layer (a
        # list of disjoint groups). Two nodes are reachable only if no
        # layer separates them.
        self._partitions: list[list[set[str]]] = []
        self._drop_rules: list[DropRule] = []
        self._duplicate_rules: list[DropRule] = []
        # Gray failures: degraded-but-alive components. Each entry keeps
        # its own seeded RNG so injection order, not wall time, decides
        # every draw (determinism gate).
        self._slow_nodes: dict[str, tuple[random.Random, float, float]] = {}
        self._degraded_links: dict[
            frozenset[str], tuple[random.Random, float, float]
        ] = {}
        self._stalled: dict[str, float] = {}
        self._clock_skew: dict[str, float] = {}

    @property
    def active(self) -> bool:
        """True when *anything* is currently broken.

        The transport checks this once per message leg: a default
        (inert) fault plan means every registered pair is reachable and
        no drop/gray rule can match, so the reachability and drop
        probes and the gray-delay draws are skipped wholesale. Cheap by
        construction — truthiness checks on the underlying containers.
        """
        return bool(
            self._down
            or self._partitions
            or self._drop_rules
            or self._duplicate_rules
            or self._slow_nodes
            or self._degraded_links
            or self._stalled
            or self._clock_skew
        )

    # -- node availability --------------------------------------------------

    def set_down(self, node_id: str) -> None:
        """Take a node offline (messages to/from it fail)."""
        self._down.add(node_id)

    def set_up(self, node_id: str) -> None:
        """Bring a node back online."""
        self._down.discard(node_id)

    def is_down(self, node_id: str) -> bool:
        return node_id in self._down

    def down_nodes(self) -> set[str]:
        return set(self._down)

    # -- partitions ----------------------------------------------------------

    def partition(self, *groups: set[str] | list[str] | tuple[str, ...]) -> None:
        """Split the network: nodes can only reach peers in their own group.

        Nodes not named in any group of a layer remain mutually reachable
        and can reach every group of that layer (they model backbone
        infrastructure).

        Repeated calls **compose**: each call adds an independent
        partition layer, and two nodes are reachable only when no layer
        separates them. (Earlier versions silently *replaced* the
        previous groups, so a second fault injection would accidentally
        heal the first.) ``heal_partition`` removes every layer at once.
        """
        if groups:
            self._partitions.append([set(g) for g in groups])

    def heal_partition(self) -> None:
        """Remove all partitions (every layer)."""
        self._partitions = []

    def partition_layers(self) -> int:
        """Number of active partition layers."""
        return len(self._partitions)

    def partitioned_nodes(self) -> set[str]:
        """Every node named in any active partition layer."""
        return {n for layer in self._partitions for g in layer for n in g}

    def _same_side(self, a: str, b: str) -> bool:
        for layer in self._partitions:
            a_groups = [g for g in layer if a in g]
            b_groups = [g for g in layer if b in g]
            # Backbone nodes (in no group of this layer) reach everyone.
            if not a_groups or not b_groups:
                continue
            if not any(b in g for g in a_groups):
                return False
        return True

    # -- targeted drops --------------------------------------------------------

    def add_drop_rule(self, rule: DropRule) -> Callable[[], None]:
        """Drop every message for which ``rule(message)`` is True.

        Returns a callable that removes the rule.
        """
        self._drop_rules.append(rule)

        def remove() -> None:
            try:
                self._drop_rules.remove(rule)
            except ValueError:
                pass

        return remove

    def should_drop(self, message: Message) -> bool:
        # A loopback invocation (a device calling its own listener) never
        # crosses the network, so network faults cannot touch it. Without
        # this a drop window could eat e.g. a coordinator's unmark of its
        # *own* participant — residue no retry or restart could explain.
        if message.src == message.dst:
            return False
        # Degraded links lose traffic probabilistically (one seeded draw
        # per traversal), on top of any targeted drop rules.
        if self._degraded_links and self.gray_drop(message.src, message.dst):
            return True
        return any(rule(message) for rule in self._drop_rules)

    # -- duplicate deliveries ---------------------------------------------------

    def add_duplicate_rule(self, rule: DropRule) -> Callable[[], None]:
        """Re-dispatch every delivered request for which ``rule`` is True.

        The duplicate executes inline right after the original delivery
        (its result is discarded and its errors are swallowed — the
        network, not a caller, produced it). Returns a remover callable.
        """
        self._duplicate_rules.append(rule)

        def remove() -> None:
            try:
                self._duplicate_rules.remove(rule)
            except ValueError:
                pass

        return remove

    def should_duplicate(self, message: Message) -> bool:
        if message.src == message.dst:  # loopback: see should_drop
            return False
        return any(rule(message) for rule in self._duplicate_rules)

    # -- gray failures ----------------------------------------------------------
    #
    # Degraded-but-alive components: the node/link still answers (so it
    # looks healthy to binary liveness checks) but latency, loss, or its
    # notion of time is wrong. Every rule keeps a private seeded RNG so
    # draws depend only on injection + delivery order.

    def slow_node(
        self,
        node_id: str,
        *,
        rng: random.Random,
        scale: float = 0.4,
        shape: float = 1.5,
    ) -> Callable[[], None]:
        """Inflate every RPC leg touching ``node_id`` by a heavy-tailed delay.

        The extra delay per leg is ``scale * (paretovariate(shape) - 1)``:
        usually small, occasionally enormous — the canonical gray radio.
        Returns a remover callable.
        """
        self._slow_nodes[node_id] = (rng, scale, shape)

        def remove() -> None:
            self._slow_nodes.pop(node_id, None)

        return remove

    def degrade_link(
        self,
        a: str,
        b: str,
        *,
        rng: random.Random,
        loss: float = 0.15,
        jitter: float = 0.3,
    ) -> Callable[[], None]:
        """Make the (symmetric) pair lossy and jittery without severing it.

        Each traversal independently drops with probability ``loss`` and
        otherwise gains ``uniform(0, jitter)`` seconds. Layers like
        partitions do: multiple calls on the same pair compose (the last
        registration wins for that pair; distinct pairs are independent).
        Returns a remover callable.
        """
        self._degraded_links[frozenset((a, b))] = (rng, loss, jitter)

        def remove() -> None:
            self._degraded_links.pop(frozenset((a, b)), None)

        return remove

    def stall_node(self, node_id: str, delay: float = 45.0) -> Callable[[], None]:
        """Make ``node_id`` accept requests but reply after a huge delay.

        The handler still runs (side effects land, heartbeat probes that
        only check reachability still pass) but every reply leg out of
        the node gains ``delay`` seconds — alive to liveness checks,
        useless to callers. Returns a remover callable.
        """
        self._stalled[node_id] = delay

        def remove() -> None:
            self._stalled.pop(node_id, None)

        return remove

    def set_clock_skew(self, node_id: str, offset: float) -> Callable[[], None]:
        """Skew ``node_id``'s *perceived* time by ``offset`` seconds.

        Consumed only by lease/timeout arithmetic (lock manager, deadline
        budgets) — never by the simulation clock, so event ordering and
        message logs are untouched. Returns a remover callable.
        """
        self._clock_skew[node_id] = offset

        def remove() -> None:
            self._clock_skew.pop(node_id, None)

        return remove

    def clock_skew_of(self, node_id: str) -> float:
        """Current perceived-time offset for ``node_id`` (0.0 = honest)."""
        return self._clock_skew.get(node_id, 0.0)

    def gray_delay(self, src: str, dst: str) -> float:
        """Extra one-way delay for a ``src`` → ``dst`` traversal right now.

        Sums slow-node inflation for both endpoints and degraded-link
        jitter for the pair. Loopback traffic is exempt (see
        ``should_drop``).
        """
        if src == dst:
            return 0.0
        extra = 0.0
        for node in (src, dst):
            rule = self._slow_nodes.get(node)
            if rule is not None:
                rng, scale, shape = rule
                extra += scale * (rng.paretovariate(shape) - 1.0)
        link = self._degraded_links.get(frozenset((src, dst)))
        if link is not None:
            rng, _loss, jitter = link
            if jitter > 0.0:
                extra += rng.uniform(0.0, jitter)
        return extra

    def gray_drop(self, src: str, dst: str) -> bool:
        """Did the degraded link eat this traversal? (One seeded draw.)"""
        if src == dst:
            return False
        link = self._degraded_links.get(frozenset((src, dst)))
        if link is None:
            return False
        rng, loss, _jitter = link
        return loss > 0.0 and rng.random() < loss

    def stall_delay(self, node_id: str) -> float:
        """Reply-leg delay inflicted by a stalled node (0.0 = not stalled)."""
        return self._stalled.get(node_id, 0.0)

    def stalled_nodes(self) -> set[str]:
        return set(self._stalled)

    def slow_nodes(self) -> set[str]:
        return set(self._slow_nodes)

    def degraded_pairs(self) -> set[frozenset[str]]:
        return set(self._degraded_links)

    def heal_gray(self) -> None:
        """Remove every gray rule (slow, degraded, stalled, skewed)."""
        self._slow_nodes.clear()
        self._degraded_links.clear()
        self._stalled.clear()
        self._clock_skew.clear()

    # -- verdict ------------------------------------------------------------

    def reachable(self, src: str, dst: str) -> bool:
        """Can a message currently travel from ``src`` to ``dst``?"""
        if src in self._down or dst in self._down:
            return False
        return self._same_side(src, dst)
