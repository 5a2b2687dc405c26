"""Distribution primitives for synthetic job logs.

Supercomputer workload studies (Cirne & Berman 2001; Li et al. 2004 —
both cited by the paper for its power-of-two assumption) agree on three
robust features, which these primitives reproduce:

* job sizes cluster on powers of two, biased toward small/medium jobs;
* runtimes are heavy-tailed (lognormal is the standard fit);
* interarrivals are roughly exponential over stationary windows.

Everything is driven by an explicit :class:`numpy.random.Generator`, so
logs are reproducible from a seed.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

from .._validation import require_positive_int
from .trace import TraceJob

__all__ = [
    "power_of_two_sizes",
    "lognormal_runtimes",
    "exponential_arrivals",
    "weibull_arrivals",
    "geometric_exponent_weights",
    "stream_trace",
]

#: jobs generated per chunk by :func:`stream_trace`; bounds its peak
#: memory and fixes the per-chunk child-seed sequence, so it is part of
#: the reproducibility contract and deliberately not a parameter.
STREAM_CHUNK_JOBS = 65_536


def geometric_exponent_weights(max_exp: int, decay: float = 0.75) -> np.ndarray:
    """Weights for size exponents ``0..max_exp``: ``decay**k``, normalized.

    ``decay < 1`` biases toward small jobs (most logs), ``decay = 1`` is
    uniform over exponents, ``decay > 1`` biases toward big jobs.
    """
    if max_exp < 0:
        raise ValueError(f"max_exp must be >= 0, got {max_exp}")
    if decay <= 0:
        raise ValueError(f"decay must be > 0, got {decay}")
    w = decay ** np.arange(max_exp + 1, dtype=np.float64)
    return w / w.sum()


def power_of_two_sizes(
    rng: np.random.Generator,
    n: int,
    *,
    max_exp: int,
    weights: Optional[Sequence[float]] = None,
    min_exp: int = 0,
    pow2_fraction: float = 1.0,
) -> np.ndarray:
    """Sample ``n`` job sizes, mostly powers of two.

    Exponents ``min_exp..max_exp`` are drawn with the given ``weights``
    (defaults to :func:`geometric_exponent_weights` over the full range,
    truncated below ``min_exp``). A ``1 - pow2_fraction`` share of jobs
    gets a non-power-of-two size drawn uniformly from
    ``(2^(k-1), 2^k)`` — the paper's logs are 90-99% powers of two.
    """
    require_positive_int(n, "n")
    if not 0 <= min_exp <= max_exp:
        raise ValueError(f"need 0 <= min_exp <= max_exp, got {min_exp}, {max_exp}")
    if not 0.0 <= pow2_fraction <= 1.0:
        raise ValueError(f"pow2_fraction must be in [0, 1], got {pow2_fraction}")
    if weights is None:
        w = geometric_exponent_weights(max_exp)[min_exp:]
        w = w / w.sum()
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.size != max_exp - min_exp + 1:
            raise ValueError(
                f"weights must have {max_exp - min_exp + 1} entries, got {w.size}"
            )
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be non-negative and sum to > 0")
        w = w / w.sum()
    exps = rng.choice(np.arange(min_exp, max_exp + 1), size=n, p=w)
    sizes = (1 << exps.astype(np.int64)).astype(np.int64)
    if pow2_fraction < 1.0:
        irregular = rng.random(n) >= pow2_fraction
        for i in np.flatnonzero(irregular):
            k = int(exps[i])
            if k >= 2:  # sizes 1 and 2 have no strictly-between values
                sizes[i] = int(rng.integers((1 << (k - 1)) + 1, 1 << k))
    return sizes


def lognormal_runtimes(
    rng: np.random.Generator,
    n: int,
    *,
    median_seconds: float,
    sigma: float = 1.0,
    min_seconds: float = 60.0,
    max_seconds: float = 86400.0,
) -> np.ndarray:
    """Heavy-tailed runtimes: lognormal with the given median, clipped.

    The clip bounds mirror real schedulers: a minimum of about a minute
    (shorter records are usually crashes) and a maximum wall-time limit
    (24 h by default, typical of the paper's systems).
    """
    require_positive_int(n, "n")
    if median_seconds <= 0 or sigma <= 0:
        raise ValueError("median_seconds and sigma must be > 0")
    if not 0 < min_seconds <= max_seconds:
        raise ValueError("need 0 < min_seconds <= max_seconds")
    samples = rng.lognormal(mean=np.log(median_seconds), sigma=sigma, size=n)
    return np.clip(samples, min_seconds, max_seconds)


def weibull_arrivals(
    rng: np.random.Generator,
    n: int,
    *,
    mean_interarrival_seconds: float,
    shape: float = 0.6,
) -> np.ndarray:
    """Bursty submit times: Weibull interarrivals (first job at 0).

    Workload studies find interarrival gaps heavier-tailed than
    exponential; a Weibull shape < 1 produces the characteristic bursts
    of real logs. ``shape = 1`` degenerates to the Poisson process.
    The scale is chosen so the *mean* gap equals the requested one.
    """
    require_positive_int(n, "n")
    if mean_interarrival_seconds <= 0:
        raise ValueError("mean_interarrival_seconds must be > 0")
    if shape <= 0:
        raise ValueError(f"shape must be > 0, got {shape}")
    from math import gamma

    scale = mean_interarrival_seconds / gamma(1.0 + 1.0 / shape)
    gaps = scale * rng.weibull(shape, size=n)
    gaps[0] = 0.0
    return np.cumsum(gaps)


def stream_trace(
    n_jobs: int = 100_000,
    *,
    seed: int = 0,
    max_nodes: int = 4392,
    min_exp: int = 0,
    max_exp: int = 9,
    size_decay: float = 0.8,
    pow2_fraction: float = 0.9,
    runtime_median_s: float = 1800.0,
    runtime_sigma: float = 1.0,
    mean_interarrival_s: float = 31.0,
    arrival_shape: float = 0.7,
) -> Iterator[TraceJob]:
    """Seeded benchmark trace as a constant-memory stream of jobs.

    Same distributions as the classic eager generator — Theta-scale by
    default (4392 nodes, 8-512 node requests, 90% powers of two), sizes
    from the geometric power-of-two mix of §5.1, lognormal runtimes,
    bursty Weibull submits — but generated in fixed chunks of
    :data:`STREAM_CHUNK_JOBS` jobs, so peak memory is flat no matter
    whether 100k or 10M jobs are requested.

    Chunk ``k`` draws from the child generator
    ``np.random.default_rng([seed, k])``, which makes the trace a pure
    function of ``(seed, job index)``: any prefix of a longer trace is
    bit-identical to the shorter trace with the same seed, and resuming
    a checkpointed streaming run only needs the same arguments, never
    the consumed prefix. Wrap it in ``list(...)`` only when random access
    is genuinely needed.

    Submit times stay globally non-decreasing: each chunk's Weibull
    gaps are offset by the previous chunk's last submit, and only the
    very first gap of the trace is zeroed (first job arrives at t=0).
    """
    require_positive_int(n_jobs, "n_jobs")
    require_positive_int(max_nodes, "max_nodes")
    weights = geometric_exponent_weights(max_exp, size_decay)[min_exp:]
    weights = weights / weights.sum()
    from math import gamma

    arrival_scale = mean_interarrival_s / gamma(1.0 + 1.0 / arrival_shape)
    offset = 0.0
    produced = 0
    chunk_idx = 0
    while produced < n_jobs:
        count = min(STREAM_CHUNK_JOBS, n_jobs - produced)
        rng = np.random.default_rng([seed, chunk_idx])
        # always draw the full chunk and truncate the yield: the arrays
        # are then a function of (seed, chunk_idx) alone, never of
        # n_jobs, which is what makes prefixes bit-stable
        sizes = power_of_two_sizes(
            rng,
            STREAM_CHUNK_JOBS,
            max_exp=max_exp,
            min_exp=min_exp,
            weights=weights,
            pow2_fraction=pow2_fraction,
        )
        sizes = np.minimum(sizes, max_nodes)
        runtimes = lognormal_runtimes(
            rng, STREAM_CHUNK_JOBS, median_seconds=runtime_median_s, sigma=runtime_sigma
        )
        gaps = arrival_scale * rng.weibull(arrival_shape, size=STREAM_CHUNK_JOBS)
        if chunk_idx == 0:
            gaps[0] = 0.0
        submits = offset + np.cumsum(gaps)
        for i in range(count):
            yield TraceJob(
                job_id=produced + i + 1,
                submit_time=float(submits[i]),
                nodes=int(sizes[i]),
                runtime=float(runtimes[i]),
            )
        offset = float(submits[-1])
        produced += count
        chunk_idx += 1


def exponential_arrivals(
    rng: np.random.Generator,
    n: int,
    *,
    mean_interarrival_seconds: float,
) -> np.ndarray:
    """Poisson-process submit times starting at 0 (first job arrives at 0)."""
    require_positive_int(n, "n")
    if mean_interarrival_seconds <= 0:
        raise ValueError("mean_interarrival_seconds must be > 0")
    gaps = rng.exponential(mean_interarrival_seconds, size=n)
    gaps[0] = 0.0
    return np.cumsum(gaps)
