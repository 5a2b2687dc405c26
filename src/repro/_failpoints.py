"""Process-local failpoints for deterministic I/O fault injection.

A failpoint is a named site in harness code (``atomic_write``, journal
appends) where :mod:`repro.chaos` can arm a fault — "the next write
raises ENOSPC", "every write sleeps 50 ms" — without the production
code knowing anything about chaos testing. The production hook is one
call, :func:`trigger`, which is a no-op unless that site has an armed
action; the chaos side arms actions through the :func:`armed` context
manager so they can never leak past a test or chaos phase.

Kept stdlib-only and at the package top level on purpose: it is
imported by the lowest layers (``repro.runs.atomic``), so it must not
import anything that could cycle back.

Actions
-------
``raise-enospc``
    Raise ``OSError(errno.ENOSPC)`` — a full disk — at the site.
``sleep``
    Block for ``arg`` seconds — slow I/O — then continue normally.

Each armed action has a bounded fire ``count``; once spent it
disarms itself, so "fail once then succeed" (the retry-recovery
scenario) is the natural default.
"""

from __future__ import annotations

import errno
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

__all__ = ["arm", "disarm", "disarm_all", "trigger", "armed", "FailpointError"]


class FailpointError(ValueError):
    """An unknown failpoint action name was armed."""


_ACTIONS = ("raise-enospc", "sleep")

_lock = threading.Lock()
_armed: Dict[str, List[Dict[str, object]]] = {}


def arm(site: str, action: str, *, count: int = 1, arg: float = 0.0) -> None:
    """Arm ``action`` at ``site`` for the next ``count`` triggers."""
    if action not in _ACTIONS:
        raise FailpointError(
            f"unknown failpoint action {action!r} (know {', '.join(_ACTIONS)})"
        )
    if count < 1:
        raise ValueError(f"failpoint count must be >= 1, got {count}")
    with _lock:
        _armed.setdefault(site, []).append(
            {"action": action, "count": count, "arg": float(arg)}
        )


def disarm(site: str) -> None:
    """Remove every armed action at ``site``."""
    with _lock:
        _armed.pop(site, None)


def disarm_all() -> None:
    """Remove every armed action at every site."""
    with _lock:
        _armed.clear()


def trigger(site: str, *, detail: str = "") -> None:
    """Production-side hook: fire any armed action at ``site``.

    No-op (one dict lookup) when nothing is armed. A firing action
    decrements its count and disarms itself at zero.
    """
    with _lock:
        actions = _armed.get(site)
        if not actions:
            return
        entry = actions[0]
        entry["count"] = int(entry["count"]) - 1
        if int(entry["count"]) <= 0:
            actions.pop(0)
            if not actions:
                _armed.pop(site, None)
        action = str(entry["action"])
        arg = float(entry["arg"])
    if action == "raise-enospc":
        raise OSError(
            errno.ENOSPC,
            f"injected ENOSPC at failpoint {site!r}"
            + (f" ({detail})" if detail else ""),
        )
    if action == "sleep":
        time.sleep(arg)


@contextmanager
def armed(
    site: str, action: str, *, count: int = 1, arg: float = 0.0
) -> Iterator[None]:
    """Arm an action for the duration of a ``with`` block, then disarm.

    Disarms *all* actions at the site on exit so a partially-fired
    arming cannot leak into later code.
    """
    arm(site, action, count=count, arg=arg)
    try:
        yield
    finally:
        disarm(site)


def snapshot() -> Dict[str, List[Dict[str, object]]]:
    """Copy of the currently armed actions (for tests/diagnostics)."""
    with _lock:
        return {site: [dict(e) for e in entries] for site, entries in _armed.items()}
