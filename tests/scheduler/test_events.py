"""Tests for the deterministic event queue."""

import pytest

from repro.scheduler import EventKind, EventQueue


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(5.0, EventKind.FINISH, "b")
        q.push(1.0, EventKind.FINISH, "a")
        assert q.pop().payload == "a"
        assert q.pop().payload == "b"

    def test_kind_priority_at_same_time(self):
        """FINISH < NODE_UP < NODE_DOWN at one instant, whatever the push order."""
        q = EventQueue()
        q.push(3.0, EventKind.NODE_DOWN, "down")
        q.push(3.0, EventKind.NODE_UP, "up")
        q.push(3.0, EventKind.FINISH, "finish")
        assert [q.pop().payload for _ in range(3)] == ["finish", "up", "down"]

    def test_insertion_order_breaks_full_ties(self):
        q = EventQueue()
        q.push(1.0, EventKind.FINISH, "first")
        q.push(1.0, EventKind.FINISH, "second")
        assert q.pop().payload == "first"
        assert q.pop().payload == "second"

    def test_pop_simultaneous_batches_same_timestamp(self):
        q = EventQueue()
        q.push(2.0, EventKind.FINISH, "x")
        q.push(1.0, EventKind.FINISH, "a")
        q.push(1.0, EventKind.NODE_DOWN, "b")
        t, batch = q.pop_simultaneous()
        assert t == 1.0
        assert [e.payload for e in batch] == ["a", "b"]
        assert len(q) == 1


class TestBasics:
    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(1.0, EventKind.FINISH)
        assert q and len(q) == 1

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(1.0, EventKind.FINISH, "x")
        assert q.peek().payload == "x"
        assert len(q) == 1

    def test_peek_empty_is_none(self):
        assert EventQueue().peek() is None

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, EventKind.FINISH)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(float("nan"), EventKind.FINISH)

    def test_payload_not_compared(self):
        # objects without ordering must not break the heap
        q = EventQueue()
        q.push(1.0, EventKind.FINISH, object())
        q.push(1.0, EventKind.FINISH, object())
        q.pop(), q.pop()
