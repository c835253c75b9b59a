"""Sharded-vs-single-node directory equivalence suite.

Every directory verb, run against an N=1 world and an N=4/R=2 world,
must yield identical results and identical error types — sharding is an
implementation detail behind the ``DirectoryClient`` interface. The
final test runs the chaos classic profile at seed 7 under both
configurations and compares invariant outcomes.
"""

import pytest

from repro.chaos.campaign import ChaosCampaign, ChaosConfig
from repro.kernel.sharding import ShardedDirectoryClient
from repro.util.errors import (
    DuplicateRegistrationError,
    UnknownGroupError,
    UnknownServiceError,
    UnknownUserError,
    UnreachableError,
)
from repro.world import SyDWorld

USERS = ["alice", "bob", "carol", "dave", "erin", "fred"]


def _worlds():
    single = SyDWorld(seed=11)
    sharded = SyDWorld(seed=11, directory_shards=4, directory_replicas=2)
    for world in (single, sharded):
        for user in USERS:
            world.add_node(user)
    return single, sharded


def _clients(single, sharded):
    return single.node("alice").directory, sharded.node("alice").directory


def _both(single, sharded, fn):
    """Run ``fn`` against both worlds' clients; return both outcomes as
    (value, error_type) pairs and assert they match."""
    outcomes = []
    for world in (single, sharded):
        client = world.node("alice").directory
        try:
            outcomes.append((fn(client), None))
        except Exception as exc:  # noqa: BLE001 — captured for comparison
            outcomes.append((None, type(exc)))
    assert outcomes[0] == outcomes[1], outcomes
    return outcomes[0]


def test_sharded_world_uses_sharded_client():
    _single, sharded = _worlds()
    assert isinstance(sharded.node("alice").directory, ShardedDirectoryClient)
    assert len(sharded.directory_topology.shards) == 4
    assert sharded.directory_topology.ring.replicas == 2


def test_lookup_and_list_verbs_agree():
    single, sharded = _worlds()
    value, error = _both(single, sharded, lambda d: d.lookup_user("bob"))
    assert error is None and value["node_id"] == "bob-device"
    _both(single, sharded, lambda d: sorted(d.list_users()))
    _both(single, sharded, lambda d: d.lookup_user("ghost"))
    # Batched lookups: same records, same per-entry error types.
    def batched(d):
        return [
            (record, type(err) if err else None)
            for record, err in d.lookup_users_many(["alice", "ghost", "carol"])
        ]

    _both(single, sharded, batched)


def test_mutation_verbs_agree():
    single, sharded = _worlds()
    _both(single, sharded, lambda d: d.set_proxy("bob", "carol-device"))
    value, _ = _both(single, sharded, lambda d: d.lookup_user("bob"))
    assert value["proxy_node"] == "carol-device"
    _both(single, sharded, lambda d: d.set_online("bob", False))
    _both(single, sharded, lambda d: d.set_proxy("ghost", None))  # UnknownUserError
    _both(single, sharded, lambda d: d.publish_user("bob", "elsewhere"))  # dup
    _both(single, sharded, lambda d: d.unpublish_user("fred"))
    _both(single, sharded, lambda d: d.lookup_user("fred"))  # now unknown
    _both(single, sharded, lambda d: d.unpublish_user("fred"))  # unknown again


def test_service_verbs_agree():
    single, sharded = _worlds()
    _both(single, sharded, lambda d: d.register_service("bob", "cal", "calendar", ["query"]))
    value, _ = _both(single, sharded, lambda d: d.lookup_service("bob", "cal"))
    assert value["object_name"] == "calendar"
    _both(
        single,
        sharded,
        lambda d: sorted(r["service_key"] for r in d.services_of("bob")),
    )
    _both(single, sharded, lambda d: d.lookup_service("bob", "nope"))  # UnknownService
    _both(single, sharded, lambda d: d.register_service("ghost", "cal", "x", []))
    _both(single, sharded, lambda d: d.register_service("bob", "cal", "x", []))  # dup
    _both(single, sharded, lambda d: d.unregister_service("bob", "cal"))
    _both(single, sharded, lambda d: d.unregister_service("bob", "cal"))  # False now
    # Services batch path.
    _both(single, sharded, lambda d: d.register_service("carol", "cal", "calendar", ["query"]))
    def batched(d):
        return [
            (record["object_name"] if record else None, type(err) if err else None)
            for record, err in d.lookup_services_many([("carol", "cal"), ("bob", "cal")])
        ]

    _both(single, sharded, batched)


def test_group_verbs_agree():
    single, sharded = _worlds()
    _both(single, sharded, lambda d: d.form_group("team", "alice", ["alice", "bob"]))
    _both(single, sharded, lambda d: d.group_members("team"))
    _both(single, sharded, lambda d: d.form_group("team", "alice", ["alice"]))  # dup
    _both(single, sharded, lambda d: d.form_group("bad", "alice", ["alice", "ghost"]))
    _both(single, sharded, lambda d: d.add_member("team", "carol"))
    _both(single, sharded, lambda d: d.add_member("team", "carol"))  # idempotent
    _both(single, sharded, lambda d: d.add_member("team", "ghost"))  # UnknownUser
    _both(single, sharded, lambda d: d.add_member("nope", "alice"))  # UnknownGroup
    _both(single, sharded, lambda d: d.group_members("team"))
    _both(single, sharded, lambda d: d.remove_member("team", "bob"))
    _both(single, sharded, lambda d: d.group_members("team"))
    _both(single, sharded, lambda d: sorted(d.list_groups()))
    _both(single, sharded, lambda d: d.disband_group("team"))
    _both(single, sharded, lambda d: d.group_members("team"))  # UnknownGroup
    _both(single, sharded, lambda d: d.disband_group("team"))  # UnknownGroup


def test_error_types_are_the_exact_exceptions():
    _single, sharded = _worlds()
    directory = sharded.node("alice").directory
    with pytest.raises(UnknownUserError):
        directory.lookup_user("ghost")
    with pytest.raises(DuplicateRegistrationError):
        directory.publish_user("bob", "x")
    with pytest.raises(UnknownServiceError):
        directory.lookup_service("bob", "nope")
    with pytest.raises(UnknownGroupError):
        directory.group_members("nope")


def test_single_shard_world_keeps_plain_wiring():
    """N=1 must stay on today's code path, not a one-shard ring."""
    world = SyDWorld(seed=3, directory_shards=1, directory_replicas=1)
    world.add_node("alice")
    assert world.directory_topology is None
    assert world.directory_listener is not None
    assert not isinstance(world.node("alice").directory, ShardedDirectoryClient)
    assert world.directory_shard_names() == []
    assert world.directory_replays() == 0


def test_chaos_classic_seed7_invariant_outcomes_match():
    """The classic chaos profile at seed 7 produces identical invariant
    outcomes (all clean) whether the directory is one node or 4x2."""
    outcomes = []
    for shards, replicas in ((1, 1), (4, 2)):
        config = ChaosConfig(
            seed=7,
            episodes=2,
            profile="classic",
            shrink=False,
            directory_shards=shards,
            directory_replicas=replicas,
        )
        result = ChaosCampaign(config).run()
        outcomes.append(
            [sorted(str(v) for v in episode.violations) for episode in result.episodes]
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == [[], []]  # and both are clean


def test_per_shard_cache_flush_regression():
    """A mutation on shard A leaves shard B's cached entries live.

    The pre-sharding DirectoryCache flushed *everything* on any epoch
    bump; per-shard buckets keep unrelated entries warm — measured here
    by message count: the re-lookup of the untouched user costs zero
    traffic, the mutated user's re-lookup refetches.
    """
    world = SyDWorld(seed=11, directory_shards=4, directory_replicas=2, directory_cache=True)
    for user in USERS:
        world.add_node(user)
    topology = world.directory_topology
    observer = world.node("erin").directory
    # Two users whose keys live on different primary shards.
    by_shard = {}
    for user in USERS:
        by_shard.setdefault(topology.primary_shard_for(("user", user)), user)
    (shard_a, user_a), (shard_b, user_b) = sorted(by_shard.items())[:2]
    observer.lookup_user(user_a)
    observer.lookup_user(user_b)
    # Mutate user_a (bumps shard A's epoch at every owner of user_a, but
    # shard B's epoch only if it co-owns user_a — pick non-co-owned pair).
    world.node(user_a).directory.set_proxy(user_a, "ghost-proxy")
    assert topology.epoch_of(shard_a) > 0
    before = world.stats.messages
    cached = observer.lookup_user(user_b)
    if shard_b not in topology.user_owners(user_a):
        assert world.stats.messages == before, "shard B's cache bucket was flushed"
    assert cached["user_id"] == user_b
    # The mutated shard's bucket did flush: user_a refetches and sees the
    # new proxy.
    assert observer.lookup_user(user_a)["proxy_node"] == "ghost-proxy"
    assert world.stats.messages > before


def test_per_shard_cache_unit_level():
    """DirectoryCache with shard_of flushes exactly one bucket."""
    from repro.kernel.directory import _MISS, DirectoryCache

    epochs = {"a": 0, "b": 0}
    cache = DirectoryCache(lambda shard: epochs[shard], shard_of=lambda key: key[1][0])
    cache.put(("user", "apple"), {"user_id": "apple"})
    cache.put(("user", "banana"), {"user_id": "banana"})
    assert len(cache) == 2
    epochs["a"] += 1  # mutation on shard a
    assert cache.get(("user", "banana")) == {"user_id": "banana"}  # still live
    assert cache.get(("user", "apple")) is _MISS  # flushed
    assert cache.flushes == 1
    assert cache.filled_epochs() == {"a": 1, "b": 0}


@pytest.mark.parametrize(
    "shards, replicas", [(1, 1), (4, 1), (4, 2)], ids=["single", "4x1", "4x2"]
)
def test_batched_lookups_match_sequential_with_owner_down(shards, replicas):
    """With the key's primary down (or the directory node, unsharded),
    every batched entry equals the sequential lookup's value or carries
    its error type. At 4x1 the down shard has no replica left to fail
    over to; at 4x2 both paths read the replica."""
    world = SyDWorld(seed=11, directory_shards=shards, directory_replicas=replicas)
    for user in USERS:
        world.add_node(user)
    topology = world.directory_topology
    down = (
        world.directory_node
        if topology is None
        else topology.owner_nodes_for(("user", "bob"))[0]
    )
    world.transport.faults.set_down(down)
    client = world.node("alice").directory
    users = USERS + ["ghost"]
    pairs = [(user, "_syd_links") for user in users] + [("bob", "nothing")]

    def sequential(lookup, *args):
        try:
            return lookup(*args), None
        except Exception as exc:  # noqa: BLE001 — captured for comparison
            return None, type(exc)

    def typed(entries):
        return [(value, type(error) if error else None) for value, error in entries]

    expected_users = [sequential(client.lookup_user, user) for user in users]
    expected_services = [sequential(client.lookup_service, *pair) for pair in pairs]
    assert typed(client.lookup_users_many(users)) == expected_users
    assert typed(client.lookup_services_many(pairs)) == expected_services
    bob = expected_users[users.index("bob")]
    if replicas == 1:
        assert bob == (None, UnreachableError)
    else:
        assert bob[1] is None and bob[0]["user_id"] == "bob"
