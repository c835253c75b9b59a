"""Tests for deterministic id generation."""

from repro.util.idgen import IdGenerator


def test_ids_are_sequential_per_prefix():
    gen = IdGenerator()
    assert gen.next("link") == "link-1"
    assert gen.next("link") == "link-2"
    assert gen.next("msg") == "msg-1"
    assert gen.next("link") == "link-3"


def test_two_generators_are_independent():
    a, b = IdGenerator(), IdGenerator()
    a.next("x")
    assert b.next("x") == "x-1"


def test_peek_reports_issued_count():
    gen = IdGenerator()
    assert gen.peek("m") == 0
    gen.next("m")
    gen.next("m")
    assert gen.peek("m") == 2


def test_reset_single_prefix():
    gen = IdGenerator()
    gen.next("a")
    gen.next("b")
    gen.reset("a")
    assert gen.next("a") == "a-1"
    assert gen.next("b") == "b-2"


def test_reset_all():
    gen = IdGenerator()
    gen.next("a")
    gen.next("b")
    gen.reset()
    assert gen.next("a") == "a-1"
    assert gen.next("b") == "b-1"


def test_next_num_returns_integers():
    gen = IdGenerator()
    assert gen.next_num("msg") == 1
    assert gen.next_num("msg") == 2


def test_next_and_next_num_share_one_counter():
    # The transport draws raw numbers while other code draws formatted
    # ids; both must advance the same sequence.
    gen = IdGenerator()
    assert gen.next("msg") == "msg-1"
    assert gen.next_num("msg") == 2
    assert gen.next("msg") == "msg-3"
    assert gen.peek("msg") == 3
