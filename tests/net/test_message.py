"""Tests for message size estimation."""

import enum
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.message import Message, estimate_size


def test_scalar_sizes():
    assert estimate_size(None) == 1
    assert estimate_size(True) == 1
    assert estimate_size(7) == 8
    assert estimate_size(3.14) == 8


def test_string_size_counts_utf8():
    assert estimate_size("abc") == 5
    assert estimate_size("é") == 2 + 2  # two utf-8 bytes


def test_container_sizes_recursive():
    assert estimate_size([1, 2]) == 2 + 16
    assert estimate_size({"a": 1}) == 2 + (2 + 1) + 8


def test_message_size_includes_header():
    m = Message("m-1", "a", "b", "k", {})
    assert m.size_bytes == 32 + 2  # header + empty dict


def test_message_size_cached():
    m = Message("m-1", "a", "b", "k", {"x": 1})
    assert m.size_bytes == m.size_bytes


def test_bigger_payload_bigger_message():
    small = Message("1", "a", "b", "k", {"x": "hi"})
    large = Message("2", "a", "b", "k", {"x": "hi" * 100})
    assert large.size_bytes > small.size_bytes


def test_size_fixed_at_construction_despite_payload_mutation():
    # Regression for the lazy-size era: the wire size models what was
    # put on the wire, so mutating the payload afterwards (handlers do
    # reuse dicts) must not change size_bytes.
    payload = {"x": 1}
    m = Message("m-1", "a", "b", "k", payload)
    before = m.size_bytes
    payload["huge"] = "y" * 10_000
    assert m.size_bytes == before


def test_deeply_nested_payload_does_not_recurse():
    deep = {"v": 0}
    for _ in range(5_000):
        deep = {"inner": deep}
    m = Message("m-1", "a", "b", "k", deep)  # would RecursionError if recursive
    assert m.size_bytes > 5_000 * 2


def test_lazy_id_pair_formats_on_first_access():
    m = Message(("msg", 42), "a", "b", "k", {})
    assert m._msg_id is None  # not formatted yet
    assert m.msg_id == "msg-42"
    assert m._msg_id == "msg-42"  # memoized


def test_lazy_and_eager_ids_are_interchangeable():
    eager = Message("msg-7", "a", "b", "k", {"x": 1})
    lazy = Message(("msg", 7), "a", "b", "k", {"x": 1})
    assert eager.msg_id == lazy.msg_id
    assert eager.size_bytes == lazy.size_bytes


def test_dedup_fast_branch_matches_general_estimator():
    # The canonical (str, int, int) key takes an interned shortcut; it
    # must price identically to the general walk, for any sender id.
    for sender in ("a", "u00", "host-é"):
        key = (sender, 1, 42)
        with_key = Message("m-1", "a", "b", "k", {}, dedup=key)
        bare = Message("m-2", "a", "b", "k", {})
        assert with_key.size_bytes - bare.size_bytes == estimate_size(list(key))


def test_noncanonical_dedup_shapes_use_general_estimator():
    key = ("a", "weird", 1)  # str where incarnation should be
    m = Message("m-1", "a", "b", "k", {}, dedup=key)
    bare = Message("m-2", "a", "b", "k", {})
    assert m.size_bytes - bare.size_bytes == estimate_size(list(key))


def test_trace_header_fast_branch_matches_general_estimator():
    # An ASCII (trace_id, span_id) pair is priced inline; every other
    # shape takes the general walk. Both must price identically to it.
    bare = Message("m-0", "a", "b", "k", {})
    for trace in (
        ("t0001", "s000042"),
        ("", ""),
        ("t0001", "s-é"),
        ("tré", "s000042"),
        ("t0001", 42),
        ("t0001", "s1", "extra"),
        ("t0001",),
        ["t0001", "s000042"],
    ):
        m = Message("m-1", "a", "b", "k", {}, trace=trace)
        assert m.size_bytes - bare.size_bytes == estimate_size(list(trace)), trace


def test_mixed_flat_and_nested_dicts_price_identically():
    # Scalars priced inline and containers pushed on the stack add up:
    # a dict that is flat except one nested value must equal the sum of
    # its parts.
    flat_part = {"a": 1, "b": "x"}
    nested = dict(flat_part)
    nested["c"] = [1, 2]
    assert estimate_size(nested) == estimate_size(flat_part) + 2 + len("c") + 2 + 16


def test_bool_and_none_sizes_survive_the_fast_scan():
    assert estimate_size({"t": True, "f": False, "n": None}) == 2 + 3 * (2 + 1 + 1)


# -- exactness against a recursive reference ----------------------------------


class IntSub(int):
    pass


class Level(enum.IntEnum):
    LOW = 1


class FloatSub(float):
    pass


class StrSub(str):
    pass


class ListSub(list):
    pass


class TupleSub(tuple):
    pass


class DictSub(dict):
    pass


@dataclass(frozen=True)
class Opaque:
    """Priced by the ``repr`` fallback."""

    label: str


def _reference(v) -> int:
    """The wire-size rules, one recursive case per type family."""
    if v is None or isinstance(v, bool):
        return 1
    if isinstance(v, (int, float)):
        return 8
    if isinstance(v, str):
        return 2 + len(v.encode("utf-8"))
    if isinstance(v, bytes):
        return 2 + len(v)
    if isinstance(v, (list, tuple)):
        return 2 + sum(_reference(x) for x in v)
    if isinstance(v, dict):
        return 2 + sum(_reference(k) + _reference(x) for k, x in v.items())
    return 2 + len(repr(v))


_text = st.one_of(st.text(max_size=6), st.text(alphabet="aé€😀", max_size=6))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    _text,
    st.binary(max_size=6),
    st.builds(IntSub, st.integers()),
    st.sampled_from(Level),
    st.builds(FloatSub, st.floats(allow_nan=False)),
    st.builds(StrSub, _text),
    st.builds(Opaque, _text),
    st.complex_numbers(allow_nan=False),
)
_keys = st.one_of(
    _text,
    st.integers(),
    st.none(),
    st.booleans(),
    st.binary(max_size=4),
    st.builds(StrSub, _text),
    st.tuples(st.integers(), _text),
    st.frozensets(st.integers(), max_size=3),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4).map(ListSub),
        st.lists(children, max_size=4).map(TupleSub),
        st.dictionaries(_keys, children, max_size=4),
        st.dictionaries(_keys, children, max_size=4).map(DictSub),
    ),
    max_leaves=20,
)

#: one layer of nesting around a value, for the deep case
_WRAPPERS = {
    "list": lambda x: [x],
    "tuple": lambda x: (x,),
    "dict": lambda x: {"ключ": x},
    "dict_sub": lambda x: DictSub({7: x}),
}


@settings(max_examples=200, deadline=None)
@given(
    value=_values,
    wrapper=st.sampled_from(sorted(_WRAPPERS)),
    depth=st.sampled_from([0, 1, 5000]),
)
def test_estimate_size_matches_recursive_reference(value, wrapper, depth):
    wrap = _WRAPPERS[wrapper]
    # The reference recurses, so a deep value is priced as the inner
    # value plus ``depth`` times the cost of one wrapper layer.
    layer = _reference(wrap(None)) - _reference(None)
    deep = value
    for _ in range(depth):
        deep = wrap(deep)
    assert estimate_size(deep) == _reference(value) + depth * layer


def test_non_ascii_strings_are_priced_by_utf8_length():
    assert estimate_size({"ключ": "значение"}) == 2 + (2 + 8) + (2 + 16)
    assert estimate_size(["€", "a😀"]) == 2 + (2 + 3) + (2 + 5)
