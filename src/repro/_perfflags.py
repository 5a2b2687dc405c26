"""Process-wide switch between vectorized and legacy (loop) hot paths.

PR 4 vectorized the allocator inner loops, the switch search, the
counterfactual overlay capture, and ``ClusterState.jobs_on``. The
original Python-loop implementations are kept behind this flag for two
reasons:

* the equivalence property tests run every workload through both paths
  and require bit-identical results (``tests/allocation`` and
  ``tests/scheduler/test_incremental_equivalence.py``);
* ``benchmarks/run_bench.py`` measures the *pre-change* engine with the
  same script that measures the optimized one, so the before/after
  numbers in ``BENCH_PR4.json`` are directly comparable.

The flag is a plain module global — flipping it mid-simulation is not
supported (and never needed: both paths produce identical node sets, so
only timings would blur). It deliberately lives in its own leaf module
because both :mod:`repro.cluster.state` and :mod:`repro.allocation.base`
read it and neither may import the other.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

__all__ = ["is_legacy", "legacy_mode", "set_legacy"]

_LEGACY = False


def is_legacy() -> bool:
    """True when the pre-PR-4 Python-loop implementations are active."""
    return _LEGACY


def set_legacy(enabled: bool) -> None:
    global _LEGACY
    _LEGACY = bool(enabled)


@contextmanager
def legacy_mode(enabled: bool = True) -> Iterator[None]:
    """Temporarily select the legacy implementations (tests/benchmarks)."""
    global _LEGACY
    previous = _LEGACY
    _LEGACY = bool(enabled)
    try:
        yield
    finally:
        _LEGACY = previous

