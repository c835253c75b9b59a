"""The decoded link view always equals a fresh decode of ``SyD_Links``.

``SyDLinks.all_links`` serves reads from a view refreshed only when the
links table's version moves, and a refresh decodes only the rows whose
stored content changed. These tests drive every write path on all three
store kinds (create, promote, delete, cascade, expire, direct store
insert/update/delete, node restart and a flat-file load, plus a row
trigger that reads links from inside a write) and compare the view with
``Link.from_row`` over ``store.select("SyD_Links")`` after each one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SyDWorld
from repro.datastore.flatfile import FlatFileStore
from repro.datastore.predicate import where
from repro.datastore.triggers import RowTrigger, TriggerEvent
from repro.kernel.links import LINKS_TABLE
from repro.kernel.linktypes import Link, LinkRef, LinkSubtype, LinkType
from repro.txn.coordinator import AND

STORE_KINDS = ["relational", "flatfile", "list"]
USERS = ["a", "b", "c"]
ALL_EVENTS = frozenset((TriggerEvent.INSERT, TriggerEvent.UPDATE, TriggerEvent.DELETE))


def reference(node):
    """The links a fresh decode of the table gives, in link-id order."""
    return [Link.from_row(r) for r in node.store.select(LINKS_TABLE)]


def assert_views_match(world):
    for user in USERS:
        node = world.node(user)
        assert node.links.all_links() == reference(node), user
        assert node.links_service.list_link_rows() == node.store.select(LINKS_TABLE)


def make_world(kind):
    world = SyDWorld(seed=5)
    reads = []
    for user in USERS:
        node = world.add_node(user, store_kind=kind)

        def probe(ctx, node=node):
            # Reads from inside a write see the write's rows.
            assert node.links.all_links() == reference(node)
            reads.append(ctx.table)

        node.store.add_trigger(RowTrigger(f"probe-{user}", LINKS_TABLE, ALL_EVENTS, probe))
    return world, reads


def link(world, owner, peer, *, cascade=None, subtype=LinkSubtype.PERMANENT, **kw):
    context = {"cascade_id": cascade} if cascade else {}
    return world.node(owner).links.create_link(
        LinkType.NEGOTIATION,
        [LinkRef(peer, {"slot": 1}, "res")],
        constraint=AND,
        subtype=subtype,
        context=context,
        **kw,
    )


def owned(world, user, index):
    links = reference(world.node(user))
    return links[index % len(links)] if links else None


def write(world, verb, *args, **kwargs):
    """Warm every view, run one write, then compare every view."""
    assert_views_match(world)
    verb(*args, **kwargs)
    assert_views_match(world)


def apply(world, op):
    name, user, *args = op
    node = world.node(user)
    store, links = node.store, node.links
    peer = USERS[(USERS.index(user) + 1) % len(USERS)]
    if name == "create":
        (cascade,) = args
        write(world, link, world, user, peer, cascade=cascade)
        if cascade:
            write(world, link, world, peer, user, cascade=cascade)
    elif name == "wait":
        (index,) = args
        blocking = owned(world, user, index)
        if blocking is not None and blocking.subtype is LinkSubtype.PERMANENT:
            write(world, link, world, user, peer, subtype=LinkSubtype.TENTATIVE,
                  waiting_on=blocking.link_id, priority=1)
    elif name == "promote":
        target = owned(world, user, args[0])
        if target is not None:
            write(world, links.promote_link, target.link_id)
    elif name in ("delete", "cascade"):
        target = owned(world, user, args[0])
        if target is not None:
            write(world, links.delete_link, target.link_id, cascade=name == "cascade")
    elif name == "expire":
        (ttl,) = args
        write(world, link, world, user, peer, ttl=ttl)
        world.run_for(ttl)
        write(world, links.expire_links)
    elif name == "store_insert":
        row = link(world, user, peer).to_row()
        write(world, store.delete, LINKS_TABLE, where("link_id") == row["link_id"])
        write(world, store.insert, LINKS_TABLE, dict(row, priority=7, context={"k": [1]}))
    elif name == "store_update":
        priority, context = args
        write(world, store.update, LINKS_TABLE, where("priority") == priority,
              {"priority": priority + 1, "context": context})
    elif name == "store_delete":
        write(world, store.delete, LINKS_TABLE, where("priority") == args[0])
    elif name == "restart":
        write(world, world.restart, user)
    elif name == "load":
        if isinstance(store, FlatFileStore):
            source = FlatFileStore("source")
            source.create_table(LINKS_TABLE, store.schema(LINKS_TABLE))
            for row in store.select(LINKS_TABLE)[: args[0]]:
                source.insert(LINKS_TABLE, dict(row, priority=row["priority"] + 1))
            write(world, store.load, LINKS_TABLE, source.dump(LINKS_TABLE))
    else:  # pragma: no cover - strategy and dispatcher are kept in step
        raise AssertionError(name)


users = st.sampled_from(USERS)
indexes = st.integers(0, 9)
ops = st.one_of(
    st.tuples(st.just("create"), users, st.sampled_from([None, "m1", "m2"])),
    st.tuples(st.just("wait"), users, indexes),
    st.tuples(st.sampled_from(["promote", "delete", "cascade"]), users, indexes),
    st.tuples(st.just("expire"), users, st.sampled_from([1.0, 5.0])),
    st.tuples(st.just("store_insert"), users),
    st.tuples(
        st.just("store_update"),
        users,
        st.integers(0, 2),
        st.sampled_from([{}, {"cascade_id": "m1"}, {"k": [2]}]),
    ),
    st.tuples(st.just("store_delete"), users, st.integers(0, 2)),
    st.tuples(st.just("restart"), users),
    st.tuples(st.just("load"), users, st.integers(0, 3)),
)


@pytest.mark.parametrize("kind", STORE_KINDS)
@settings(max_examples=25, deadline=None)
@given(steps=st.lists(ops, max_size=10))
def test_view_equals_fresh_decode_under_every_write_path(kind, steps):
    world, _ = make_world(kind)
    assert_views_match(world)
    for op in steps:
        apply(world, op)


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_each_write_path_once(kind):
    world, reads = make_world(kind)
    for op in [
        ("create", "a", None),
        ("create", "a", "m1"),
        ("wait", "a", 0),
        ("delete", "a", 0),          # promotes the waiter
        ("wait", "a", 0),
        ("promote", "a", 2),
        ("cascade", "a", 0),         # link-a-2 reaches b's m1 link
        ("expire", "b", 1.0),
        ("store_insert", "c"),
        ("store_update", "c", 7, {"cascade_id": "m2"}),
        ("store_delete", "c", 8),
        ("restart", "a"),
        ("load", "a", 1),
    ]:
        apply(world, op)
    assert reads  # the in-write probe ran


def test_cascade_reaches_the_peer_view():
    world, _ = make_world("relational")
    link(world, "a", "b", cascade="m1")
    peer = link(world, "b", "a", cascade="m1")
    assert peer in world.node("b").links.all_links()
    write(world, world.node("a").links.delete_link,
          owned(world, "a", 0).link_id, cascade=True)
    assert world.node("b").links.all_links() == []


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_results_never_alias_the_view(kind):
    """Returned lists, and the context and refs list of a link's row, are
    the caller's own. (A dict ``source_entity`` and ref entities are shared
    with the cached link, as they were with the stored row.)"""
    world, _ = make_world(kind)
    link(world, "a", "b", cascade="m1")
    node = world.node("a")
    before = node.links.all_links()
    first = node.links.all_links()
    first.clear()
    row = node.links.all_links()[0].to_row()
    row["context"]["cascade_id"] = "scribbled"
    row["refs"].append({"user": "z", "entity": 0})
    row["priority"] = 99
    node.links_service.list_link_rows()[0]["context"].clear()
    assert node.links.all_links() == before == reference(node)


def test_a_hit_selects_nothing_and_a_miss_decodes_each_row_once(monkeypatch):
    world = SyDWorld(seed=5)
    node = world.add_node("a")
    world.add_node("b")
    for _ in range(3):
        link(world, "a", "b")
    warm = node.links.all_links()
    selects, decodes = [], []
    real_select, real_decode = node.store.select, Link.from_row

    def select(table, *args, **kwargs):
        selects.append(table)
        return real_select(table, *args, **kwargs)

    def decode(row):
        decodes.append(row["link_id"])
        return real_decode(row)

    monkeypatch.setattr(node.store, "select", select)
    monkeypatch.setattr(Link, "from_row", staticmethod(decode))

    assert node.links.all_links() == warm
    assert (selects, decodes) == ([], [])

    changed = warm[1].link_id
    node.store.update(LINKS_TABLE, where("link_id") == changed, {"priority": 4})
    fresh = node.links.all_links()
    assert (selects, decodes) == ([LINKS_TABLE], [ln.link_id for ln in warm])
    assert fresh[1].priority == 4
    assert node.links.all_links() == fresh and len(decodes) == len(warm)
