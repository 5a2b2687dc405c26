"""Golden digests of every pattern's step arrays.

``data/golden_pairs.json`` holds, per pattern and rank count, the
sha256 over each step's ``pairs.tobytes()``, ``msize``, ``repeat`` and
``exchange``, in step order. Row order is part of the digest: the
flow-level simulator (:mod:`repro.netsim`) spawns flows in pair order,
and the digests were taken from the explicit ``(k, 2)`` arrays the
patterns built before steps were described by shift blocks.

Regenerate (only when a pattern's schedule changes on purpose)::

    PYTHONPATH=src python tests/patterns/test_golden_pairs.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.patterns import Stencil2D, get_pattern, pattern_names

FIXTURE = Path(__file__).parent / "data" / "golden_pairs.json"

NRANKS = list(range(1, 71)) + [96, 127, 128, 255, 256, 1000, 1024, 4096]


def golden_patterns():
    """Every registered pattern, plus the periodic stencil."""
    named = {name: get_pattern(name) for name in pattern_names()}
    named["stencil2d-periodic"] = Stencil2D(periodic=True)
    return named


def steps_digest(pattern, nranks):
    """``[n_steps, sha256]`` over every step of ``pattern.steps(nranks)``."""
    h = hashlib.sha256()
    steps = pattern.steps(nranks)
    for step in steps:
        h.update(repr(step.pairs.shape).encode())
        h.update(step.pairs.tobytes())
        h.update(float(step.msize).hex().encode())
        h.update(repr((int(step.repeat), bool(step.exchange))).encode())
    return [len(steps), h.hexdigest()]


def build_fixture():
    """The fixture's content, computed from the current patterns."""
    return {
        key: {str(n): steps_digest(pattern, n) for n in NRANKS}
        for key, pattern in golden_patterns().items()
    }


@pytest.mark.parametrize("key", sorted(golden_patterns()))
def test_steps_match_golden_digests(key):
    golden = json.loads(FIXTURE.read_text())[key]
    pattern = golden_patterns()[key]
    mismatched = [
        n for n in NRANKS if steps_digest(pattern, n) != golden[str(n)]
    ]
    assert not mismatched, f"{key}: step arrays changed at nranks {mismatched}"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(build_fixture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
