"""Hashable keys of group results and the free-slot intersection."""

from collections import OrderedDict

from hypothesis import given
from hypothesis import strategies as st

from repro.kernel.aggregate import InvocationResult, _hashable, intersect_lists


def recursive_key(value):
    """The key by the full recursive walk, with no fast path."""
    if isinstance(value, list):
        return tuple(recursive_key(v) for v in value)
    if isinstance(value, dict):
        return frozenset((k, recursive_key(v)) for k, v in value.items())
    return value


class Entity(dict):
    """A dict subclass, as a caller might pass one."""


def same_key(value):
    key = _hashable(value)
    assert key == recursive_key(value)
    assert hash(key) == hash(recursive_key(value))


class TestHashableKeys:
    def test_flat_dicts(self):
        same_key({"day": 1, "hour": 9})
        same_key({"hour": 9, "day": 1})
        same_key({})
        assert _hashable({"day": 1, "hour": 9}) == frozenset({("day", 1), ("hour", 9)})

    def test_a_dict_never_keys_like_the_list_of_its_pairs(self):
        assert _hashable({"day": 0, "hour": 9}) != _hashable([["day", 0], ["hour", 9]])
        assert _hashable({"day": 0, "hour": 9}) != _hashable((("day", 0), ("hour", 9)))
        nested = {"slot": {"day": 0}, "tags": []}
        assert _hashable(nested) != _hashable([["slot", [["day", 0]]], ["tags", []]])

    def test_nested_dicts_and_lists(self):
        same_key({"slot": {"day": 1, "hour": 9}, "tags": ["a", {"b": [1, 2]}]})
        same_key([{"day": 1}, [2, [3, {"x": None}]]])
        same_key({"a": 1, "z": []})
        same_key({"a": {}, "b": 2})

    def test_dict_subclasses(self):
        same_key(Entity(day=1, hour=9))
        same_key(OrderedDict([("hour", 9), ("day", 1)]))
        same_key({"inner": Entity(x=[1, Entity(y=2)])})
        same_key(Entity(nested=OrderedDict(a=[1])))

    def test_none_bool_and_float_values(self):
        same_key({"a": None, "b": True, "c": False, "d": 1.5, "e": float("inf")})
        same_key([None, True, 0.25])
        same_key(None)
        same_key(3.0)

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.text(max_size=3)
            | st.floats(allow_nan=False),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=3), inner, max_size=3),
            max_leaves=12,
        )
    )
    def test_any_json_like_value(self, value):
        same_key(value)


def ok(member, value):
    return InvocationResult(member, True, value)


class TestIntersectLists:
    def test_keeps_first_member_order(self):
        first = [{"day": 2, "hour": 9}, {"day": 0, "hour": 11}, {"day": 1, "hour": 10}]
        second = [{"hour": 10, "day": 1}, {"day": 2, "hour": 9}, {"day": 0, "hour": 11}]
        third = [{"day": 0, "hour": 11}, {"day": 2, "hour": 9}]
        got = intersect_lists([ok("a", first), ok("b", second), ok("c", third)])
        assert got == [{"day": 2, "hour": 9}, {"day": 0, "hour": 11}]
        assert got[0] is first[0]

    def test_duplicates_in_the_first_list_are_kept(self):
        first = [{"day": 0, "hour": 9}, {"day": 0, "hour": 9}, {"day": 0, "hour": 10}]
        got = intersect_lists([ok("a", first), ok("b", [{"day": 0, "hour": 9}])])
        assert got == [{"day": 0, "hour": 9}, {"day": 0, "hour": 9}]

    def test_nested_values_intersect(self):
        first = [{"slot": {"day": 0}}, {"slot": {"day": 1}}]
        assert intersect_lists([ok("a", first), ok("b", [{"slot": {"day": 1}}])]) == [
            {"slot": {"day": 1}}
        ]

    def test_a_dict_is_not_common_with_the_list_of_its_pairs(self):
        dicts = [{"day": 0, "hour": 9}]
        pairs = [[["day", 0], ["hour", 9]]]
        assert intersect_lists([ok("a", dicts), ok("b", pairs)]) == []
        assert intersect_lists([ok("a", pairs), ok("b", dicts)]) == []

    def test_any_failure_or_no_member_empties_it(self):
        failed = InvocationResult("b", False, error_type="X", error_message="down")
        assert intersect_lists([ok("a", [{"day": 0}]), failed]) == []
        assert intersect_lists([]) == []
