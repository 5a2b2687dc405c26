"""Comm/compute labelling and pattern assignment (paper §5.1, §6.2).

The logs carry no job-nature information; the paper assumes a chosen
percentage of jobs (30-90%) is communication-intensive and assigns each
the communication mix of the experiment at hand. This module implements
that step: given a raw trace, a percentage, and a mix, it produces
schedulable :class:`~repro.cluster.job.Job` objects, seeded for
reproducibility.

The §6.2 experiment sets are provided as named mixes:

====  ==============================  =====================
set   composition                     comm fraction
====  ==============================  =====================
A     67% compute, 33% RHVD           0.33
B     50% compute, 50% RHVD           0.50
C     30% compute, 70% RHVD           0.70
D     50% compute, 15% RD + 35% bin.  0.50
E     30% compute, 21% RD + 49% bin.  0.70
====  ==============================  =====================
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..cluster.job import CommComponent, Job, JobKind
from ..patterns.registry import get_pattern
from .._validation import require_fraction
from .trace import TraceJob

__all__ = [
    "CommMix",
    "EXPERIMENT_SETS",
    "DEFAULT_COMM_FRACTION",
    "make_mix",
    "single_pattern_mix",
    "assign_kinds",
    "assign_kinds_stream",
]

#: A communication mix: ((pattern name, fraction of total runtime), ...).
CommMix = Tuple[Tuple[str, float], ...]

#: §6.2 experiment sets A-E.
EXPERIMENT_SETS: Dict[str, CommMix] = {
    "A": (("rhvd", 0.33),),
    "B": (("rhvd", 0.50),),
    "C": (("rhvd", 0.70),),
    "D": (("rd", 0.15), ("binomial", 0.35)),
    "E": (("rd", 0.21), ("binomial", 0.49)),
}

# Default single-pattern mixes for the Table 3 / Table 4 style runs,
# which fix one pattern per run; the paper does not state the comm
# fraction there, so we use the heaviest §6.2 value (0.7) — see
# DESIGN.md "Modelling decisions".
DEFAULT_COMM_FRACTION = 0.70


def make_mix(mix: CommMix) -> Tuple[CommComponent, ...]:
    """Instantiate pattern objects for a named mix."""
    components = tuple(
        CommComponent(get_pattern(name), float(fraction)) for name, fraction in mix
    )
    total = sum(c.fraction for c in components)
    if total > 1.0 + 1e-9:
        raise ValueError(f"mix fractions sum to {total} > 1")
    return components


def single_pattern_mix(pattern_name: str, comm_fraction: float = DEFAULT_COMM_FRACTION) -> CommMix:
    """Mix with one pattern at the given runtime fraction."""
    require_fraction(comm_fraction, "comm_fraction")
    return ((pattern_name, comm_fraction),)


def assign_kinds(
    trace: Sequence[TraceJob],
    *,
    percent_comm: float,
    mix: CommMix,
    seed: int = 0,
) -> List[Job]:
    """Label a trace and attach communication components.

    ``percent_comm`` is the paper's percentage of communication-intensive
    jobs (0-100). Which jobs get the label is a seeded uniform draw, so
    the same seed labels the same jobs across allocator runs — required
    for a fair comparison.
    """
    if not 0.0 <= percent_comm <= 100.0:
        raise ValueError(f"percent_comm must be in [0, 100], got {percent_comm}")
    rng = np.random.default_rng(seed)
    n = len(trace)
    n_comm = int(round(n * percent_comm / 100.0))
    comm_idx = set(rng.choice(n, size=n_comm, replace=False).tolist()) if n_comm else set()
    components = make_mix(mix)
    jobs: List[Job] = []
    for i, t in enumerate(trace):
        if i in comm_idx and t.nodes > 1:
            jobs.append(
                Job(
                    job_id=t.job_id,
                    submit_time=t.submit_time,
                    nodes=t.nodes,
                    runtime=t.runtime,
                    kind=JobKind.COMM,
                    comm=components,
                )
            )
        else:
            # single-node jobs have no network communication; label them
            # compute-intensive regardless of the draw
            jobs.append(
                Job(
                    job_id=t.job_id,
                    submit_time=t.submit_time,
                    nodes=t.nodes,
                    runtime=t.runtime,
                    kind=JobKind.COMPUTE,
                )
            )
    return jobs


def assign_kinds_stream(
    trace: Iterable[TraceJob],
    *,
    percent_comm: float,
    mix: CommMix,
    seed: int = 0,
) -> Iterator[Job]:
    """Streaming :func:`assign_kinds`: label jobs without materializing.

    The eager version draws an *exact-count* sample — impossible when
    the trace length is unknown up front — so the stream labels each
    job by an independent seeded Bernoulli draw at ``percent_comm/100``
    instead. The label is a pure function of ``(seed, job index)``:
    deterministic, prefix-stable, and independent of how the upstream
    iterator chunks its work. The realized comm share converges on
    ``percent_comm`` but is not exact, so a streaming run and an eager
    run of the *same trace* only compare bit-identically when both
    sides use the same labeler (materialize this stream with
    ``list(...)`` for the eager side).

    Single-node jobs are labeled compute-intensive regardless of the
    draw (the draw is still consumed, keeping indices aligned), exactly
    like the eager path.
    """
    if not 0.0 <= percent_comm <= 100.0:
        raise ValueError(f"percent_comm must be in [0, 100], got {percent_comm}")
    rng = np.random.default_rng(seed)
    threshold = percent_comm / 100.0
    components = make_mix(mix)
    for t in trace:
        # sequential scalar draws from one generator produce the same
        # stream however the caller batches consumption
        is_comm = rng.random() < threshold
        if is_comm and t.nodes > 1:
            yield Job(
                job_id=t.job_id,
                submit_time=t.submit_time,
                nodes=t.nodes,
                runtime=t.runtime,
                kind=JobKind.COMM,
                comm=components,
            )
        else:
            yield Job(
                job_id=t.job_id,
                submit_time=t.submit_time,
                nodes=t.nodes,
                runtime=t.runtime,
                kind=JobKind.COMPUTE,
            )
