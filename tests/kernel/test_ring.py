"""Property tests for the consistent-hash ring (plain-``random`` style).

The four properties the sharded directory depends on: deterministic
placement for a seed, bounded churn when shards join/leave, distinct
replicas, and bounded load skew over a 5k-key population.
"""

import random
from collections import Counter

import pytest

from repro.kernel.ring import HashRing
from repro.util.errors import ReproError

SEED = 0x5D417  # "SyD dir"
KEYS_SMALL = 800
KEYS_BALANCE = 5000


def _keys(n: int, rng: random.Random) -> list[str]:
    return [f"u:user-{rng.randrange(10**9):09d}-{i}" for i in range(n)]


def test_assignment_is_deterministic_for_a_seed():
    rng = random.Random(SEED)
    keys = _keys(KEYS_SMALL, rng)
    a = HashRing(["s00", "s01", "s02", "s03"], replicas=2, seed=7)
    b = HashRing(["s03", "s01", "s00", "s02"], replicas=2, seed=7)  # order-free
    for key in keys:
        assert a.owners(key) == b.owners(key)
    # A different seed produces a genuinely different placement.
    c = HashRing(["s00", "s01", "s02", "s03"], replicas=2, seed=8)
    assert any(a.primary(k) != c.primary(k) for k in keys)


def test_replicas_are_distinct_and_capped_at_shard_count():
    rng = random.Random(SEED + 1)
    ring = HashRing(["s00", "s01", "s02"], replicas=2, seed=3)
    for key in _keys(KEYS_SMALL, rng):
        owners = ring.owners(key)
        assert len(owners) == 2
        assert len(set(owners)) == 2
    # R larger than the shard count degrades to "every shard owns it".
    greedy = HashRing(["s00", "s01"], replicas=5, seed=3)
    for key in _keys(50, rng):
        assert sorted(greedy.owners(key)) == ["s00", "s01"]


def test_adding_a_shard_only_moves_keys_to_the_new_shard():
    rng = random.Random(SEED + 2)
    keys = _keys(KEYS_SMALL, rng)
    ring = HashRing(["s00", "s01", "s02", "s03"], replicas=2, seed=11)
    before = {k: ring.owners(k) for k in keys}
    grown = ring.with_shard("s04")
    moved = 0
    for key in keys:
        after = grown.owners(key)
        # The primary either stays put or moves to the new shard, never
        # to another pre-existing shard.
        if after[0] != before[key][0]:
            assert after[0] == "s04"
            moved += 1
        # Every owner that is new to this key's set is the added shard.
        for owner in after:
            if owner not in before[key]:
                assert owner == "s04"
    # The new shard actually takes a meaningful share (~1/5 of keys).
    assert 0 < moved < len(keys) // 2


def test_removing_a_shard_only_moves_its_own_keys():
    rng = random.Random(SEED + 3)
    keys = _keys(KEYS_SMALL, rng)
    ring = HashRing(["s00", "s01", "s02", "s03", "s04"], replicas=2, seed=11)
    before = {k: ring.owners(k) for k in keys}
    shrunk = ring.without_shard("s02")
    for key in keys:
        after = shrunk.owners(key)
        if "s02" not in before[key]:
            # Keys the leaving shard never owned are untouched.
            assert after == before[key]
        else:
            assert "s02" not in after
            # Survivors keep their relative order; only replacements for
            # the departed shard are new.
            survivors = [o for o in before[key] if o != "s02"]
            assert after[: len(survivors)] == survivors or set(survivors) <= set(after)


def test_balance_over_5k_keys_stays_under_skew_bound():
    rng = random.Random(SEED + 4)
    ring = HashRing(["s00", "s01", "s02", "s03"], replicas=1, seed=5)
    load = Counter(ring.primary(k) for k in _keys(KEYS_BALANCE, rng))
    assert set(load) == {"s00", "s01", "s02", "s03"}
    skew = max(load.values()) / min(load.values())
    assert skew <= 2.0, f"shard load skew {skew:.2f} exceeds bound: {dict(load)}"


def test_ring_edge_cases():
    empty = HashRing(replicas=2, seed=1)
    with pytest.raises(ReproError):
        empty.owners("u:alice")
    ring = HashRing(["s00"], replicas=2, seed=1)
    assert ring.owners("u:alice") == ["s00"]
    with pytest.raises(ReproError):
        ring.add_shard("s00")
    with pytest.raises(ReproError):
        ring.remove_shard("s99")
    with pytest.raises(ReproError):
        HashRing(replicas=0)


def _fresh(ring: HashRing) -> HashRing:
    """A ring built from scratch on ``ring``'s shards and parameters."""
    return HashRing(
        ring.shard_names(), replicas=ring.replicas, vnodes=ring.vnodes, seed=ring.seed
    )


def _same_placement(ring: HashRing, keys: list[str]) -> None:
    fresh = _fresh(ring)
    for key in keys:
        assert ring.owners(key) == fresh.owners(key)
        assert ring.primary(key) == fresh.primary(key)


def test_memoized_owners_follow_every_membership_change():
    rng = random.Random(SEED + 5)
    keys = _keys(300, rng)
    ring = HashRing(["s00", "s01", "s02", "s03"], replicas=2, seed=13)
    _same_placement(ring, keys)  # fills the memo
    ring.add_shard("s04")
    _same_placement(ring, keys)
    ring.remove_shard("s01")
    _same_placement(ring, keys)
    # Plans are copies: they answer for their own membership, and
    # warming them leaves the source ring's answers alone.
    grown = ring.with_shard("s05")
    _same_placement(grown, keys)
    shrunk = ring.without_shard("s00")
    _same_placement(shrunk, keys)
    _same_placement(ring.copy(), keys)
    _same_placement(ring, keys)
    assert "s05" not in ring and "s00" in ring


def test_owner_lists_are_fresh_per_call():
    ring = HashRing(["s00", "s01", "s02"], replicas=2, seed=3)
    first = ring.owners("u:alice")
    expected = list(first)
    first.append("s99")
    first[0] = "s98"
    assert ring.owners("u:alice") == expected
    assert ring.owners("u:alice") is not ring.owners("u:alice")
    assert ring.primary("u:alice") == expected[0]


def test_memoized_owners_stay_capped_at_shard_count():
    ring = HashRing(["s00", "s01"], replicas=5, seed=3)
    assert sorted(ring.owners("u:alice")) == ["s00", "s01"]
    assert sorted(ring.owners("u:alice")) == ["s00", "s01"]  # memo hit
    ring.add_shard("s02")
    assert sorted(ring.owners("u:alice")) == ["s00", "s01", "s02"]
    ring.remove_shard("s00")
    ring.remove_shard("s01")
    assert ring.owners("u:alice") == ["s02"]
    ring.remove_shard("s02")
    with pytest.raises(ReproError):
        ring.owners("u:alice")
