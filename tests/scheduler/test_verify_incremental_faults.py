"""The engine's ``verify_incremental`` self-check over a fault-laden Theta replay.

``verify_incremental`` shadows every skipped or extended scheduling pass
with a from-scratch reference scan and raises on any divergence. The
workload is the first 500 jobs of the seeded 2,000-job Theta
backfill+adaptive replay (90% ``rhvd`` comm) that the end-to-end
throughput gate in ``benchmarks/test_bench_engine.py`` times, with node
faults at 5 per hour under ``requeue``, so state mutations that bypass
the scheduler are covered too.
"""

from repro.cost import clear_leaf_pair_cache
from repro.faults import FaultGeneratorConfig, generate_faults
from repro.scheduler.engine import EngineConfig, SchedulerEngine
from repro.topology import theta_like
from repro.workloads import single_pattern_mix, stream_trace
from repro.workloads.classify import assign_kinds


def replay_jobs(n_jobs=2000):
    """The seeded Theta replay workload (kinds drawn over all ``n_jobs``)."""
    trace = list(stream_trace(n_jobs))
    return assign_kinds(
        trace, percent_comm=90.0, mix=single_pattern_mix("rhvd"), seed=2
    )


def test_e2e_incremental_invariant_under_faults():
    """verify_incremental recomputes every skipped/extended pass from
    scratch inside the engine and raises on any divergence; a fault
    trace makes sure out-of-scheduler mutations are covered too."""
    workload = replay_jobs()
    jobs = workload[: min(len(workload), 500)]
    topo = theta_like()
    horizon = 1.5 * max(j.submit_time for j in jobs) + 1000.0
    faults = generate_faults(
        topo, FaultGeneratorConfig(rate=5.0, horizon=horizon, seed=7)
    )
    cfg = EngineConfig(
        policy="backfill",
        verify_incremental=True,
        collect_perf=True,
        interrupt_policy="requeue",
    )
    clear_leaf_pair_cache()
    engine = SchedulerEngine(topo, "adaptive", cfg)
    result = engine.run(jobs, faults=faults)
    counters = result.perf["counters"]
    # the run must actually have exercised the machinery being verified
    assert counters.get("engine.passes_full", 0) > 0
    total_counted = (
        counters.get("engine.passes_full", 0)
        + counters.get("engine.passes_incremental", 0)
        + counters.get("engine.passes_skipped", 0)
    )
    assert total_counted <= counters["engine.batches"]
