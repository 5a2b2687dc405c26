"""Discrete-event queue.

A tiny heap wrapper with fully deterministic ordering: events sort by
(time, kind priority, sequence number). The heap holds job completions
and node faults; arrivals come from the engine's job stream and join an
instant's batch after all of its events, so freed nodes are visible to
the scheduling pass that considers the newly submitted jobs — the same
order SLURM's event loop effectively produces — and submissions observe
post-fault availability.

At the same instant a job that finishes exactly when its node dies
counts as finished (FINISH first), and a node whose outage ends as
another begins stays down (NODE_UP before NODE_DOWN, so back-to-back
windows in a fault trace compose).
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

__all__ = ["EventKind", "Event", "EventQueue"]


class EventKind(enum.IntEnum):
    """Event kinds; the integer value is the same-time tiebreak priority."""

    FINISH = 0
    NODE_UP = 1
    NODE_DOWN = 2


@dataclass(frozen=True, order=True)
class Event:
    """One timestamped event. ``payload`` is excluded from ordering."""

    time: float
    kind: EventKind
    seq: int
    payload: Any = field(compare=False, default=None)


class EventQueue:
    """Min-heap of :class:`Event` with stable insertion tiebreak.

    Internally the heap holds ``(time, kind, seq, event)`` tuples — the
    exact key :class:`Event` ordering compares, but as plain floats and
    ints, so the heap's O(log n) comparisons per operation never pay
    for dataclass ``__lt__`` tuple construction. ``seq`` is unique, so
    a comparison never reaches the event itself.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._next_seq = 0

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        """Schedule an event; returns it (mainly for tests)."""
        if not time >= 0.0:  # rejects NaN too
            raise ValueError(f"event time must be >= 0, got {time}")
        event = Event(time=float(time), kind=kind, seq=self._next_seq, payload=payload)
        self._next_seq += 1
        heapq.heappush(self._heap, (event.time, int(kind), event.seq, event))
        return event

    # ------------------------------------------------------------------
    # checkpoint support (engine snapshot/restore)
    # ------------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The sequence number the next :meth:`push` will assign."""
        return self._next_seq

    def snapshot_entries(self) -> List[Event]:
        """The pending events in internal heap-array order.

        The returned list *is* a valid heap array (the internal tuple
        keys order exactly as :class:`Event` does); feeding it back to
        :meth:`restore` reproduces this queue exactly — same pop order,
        same tiebreaks — which is what makes engine checkpoints
        bit-deterministic.
        """
        return [entry[3] for entry in self._heap]

    @classmethod
    def restore(cls, entries: List[Event], next_seq: int) -> "EventQueue":
        """Rebuild a queue from :meth:`snapshot_entries` output."""
        queue = cls()
        queue._heap = [(e.time, int(e.kind), e.seq, e) for e in entries]
        heapq.heapify(queue._heap)  # no-op on a valid heap array
        if entries:
            max_seq = max(e.seq for e in entries)
            if next_seq <= max_seq:
                raise ValueError(
                    f"next_seq {next_seq} collides with pending event "
                    f"seq {max_seq}"
                )
        queue._next_seq = next_seq
        return queue

    def pop(self) -> Event:
        """Remove and return the earliest event; raises ``IndexError`` if empty."""
        return heapq.heappop(self._heap)[3]

    def peek(self) -> Optional[Event]:
        """Earliest event without removing it, or ``None`` when empty."""
        return self._heap[0][3] if self._heap else None

    def pop_simultaneous(self) -> Tuple[float, List[Event]]:
        """Pop every event sharing the earliest timestamp, in priority order."""
        first = self.pop()
        batch = [first]
        while self._heap and self._heap[0][0] == first.time:
            batch.append(self.pop())
        return first.time, batch

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
