"""Public-API and cross-module integration tests."""

import repro
from repro import (
    ClusterState,
    CommComponent,
    ExperimentConfig,
    Job,
    JobKind,
    PAPER_ALLOCATORS,
    RecursiveHalvingVectorDoubling,
    continuous_runs,
    get_allocator,
    parse_topology_conf,
    simulate,
    single_pattern_mix,
    theta_log,
    two_level_tree,
)


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_readme_quickstart_snippet():
    """The quickstart from the package docstring must actually run."""
    cfg = ExperimentConfig(log="theta", n_jobs=40, mix=single_pattern_mix("rhvd"))
    results = continuous_runs(cfg)
    assert set(results) == set(PAPER_ALLOCATORS)
    for res in results.values():
        assert res.total_execution_hours > 0


def test_end_to_end_custom_topology():
    """A user-defined topology.conf drives a full simulation."""
    conf = """
    SwitchName=leaf0 Nodes=n[0-7]
    SwitchName=leaf1 Nodes=n[8-15]
    SwitchName=spine Switches=leaf[0-1]
    """
    topo = parse_topology_conf(conf)
    jobs = [
        Job(1, 0.0, 8, 100.0, JobKind.COMM,
            (CommComponent(RecursiveHalvingVectorDoubling(), 0.7),)),
        Job(2, 5.0, 16, 50.0),
    ]
    for name in PAPER_ALLOCATORS:
        res = simulate(topo, jobs, name)
        assert len(res) == 2


def test_allocators_share_interface():
    topo = two_level_tree(2, 8)
    state = ClusterState(topo)
    job = Job(1, 0.0, 8, 10.0, JobKind.COMM,
              (CommComponent(RecursiveHalvingVectorDoubling(), 0.5),))
    for name in PAPER_ALLOCATORS + ("linear",):
        takes = get_allocator(name).allocate(state, job)
        assert takes.n_nodes == 8
        assert len(state.copy().allocate(job.job_id, takes, job.kind)) == 8


def test_theta_log_feeds_simulation_directly():
    from repro import assign_kinds
    from repro.topology import theta_like

    trace = theta_log(n_jobs=25, seed=9)
    jobs = assign_kinds(trace, percent_comm=50, mix=single_pattern_mix("rd"), seed=1)
    res = simulate(theta_like(), jobs, "adaptive")
    assert len(res) == 25
    assert (res.wait_times >= 0).all()
