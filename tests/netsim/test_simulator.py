"""Tests for the flow-level collective simulator."""

import numpy as np
import pytest

from repro.netsim import CollectiveWorkload, FlowNetwork, FlowSimulator
from repro.patterns import RecursiveDoubling, Ring
from repro.topology import two_level_tree


@pytest.fixture
def net():
    return FlowNetwork(two_level_tree(2, 4), base_bandwidth=1.0)


class TestSingleWorkload:
    def test_one_iteration_completes(self, net):
        w = CollectiveWorkload(1, (0, 1), RecursiveDoubling(), msize_bytes=2.0)
        recs = FlowSimulator(net).run([w])
        assert len(recs) == 1
        # 2 bytes each way at rate 1 (bottleneck: access links) -> 2 s
        assert recs[0].duration == pytest.approx(2.0)

    def test_iterations_sequential(self, net):
        w = CollectiveWorkload(1, (0, 1), RecursiveDoubling(), msize_bytes=1.0,
                               iterations=3)
        recs = FlowSimulator(net).run([w])
        assert [r.iteration for r in recs] == [0, 1, 2]
        assert recs[1].start == pytest.approx(recs[0].end)

    def test_gap_between_iterations(self, net):
        w = CollectiveWorkload(1, (0, 1), RecursiveDoubling(), msize_bytes=1.0,
                               iterations=2, gap_seconds=5.0)
        recs = FlowSimulator(net).run([w])
        assert recs[1].start == pytest.approx(recs[0].end + 5.0)

    def test_start_time_respected(self, net):
        w = CollectiveWorkload(1, (0, 1), RecursiveDoubling(), start_time=7.0)
        recs = FlowSimulator(net).run([w])
        assert recs[0].start == pytest.approx(7.0)

    def test_multi_step_pattern_duration(self, net):
        """RD over 4 nodes on one leaf: 2 steps, each 1 byte at rate 1."""
        w = CollectiveWorkload(1, (0, 1, 2, 3), RecursiveDoubling(), msize_bytes=1.0)
        recs = FlowSimulator(net).run([w])
        assert recs[0].duration == pytest.approx(2.0)

    def test_single_node_workload_instant(self, net):
        w = CollectiveWorkload(1, (0,), RecursiveDoubling())
        assert FlowSimulator(net).run([w]) == []

    def test_ring_repeat_steps_simulated(self, net):
        w = CollectiveWorkload(1, (0, 1, 2), Ring(), msize_bytes=3.0)
        recs = FlowSimulator(net).run([w])
        # 2 repeats of one step; each step: 1-byte blocks... msize=1/3*3=1
        assert recs[0].duration == pytest.approx(2.0)

    def test_until_truncates(self, net):
        w = CollectiveWorkload(1, (0, 1), RecursiveDoubling(), msize_bytes=1.0,
                               iterations=1000)
        recs = FlowSimulator(net).run([w], until=10.0)
        assert len(recs) <= 11
        assert all(r.end <= 10.0 for r in recs)


class TestInterference:
    def test_sharing_slows_both(self, net):
        """Two 2-node jobs on the same nodes' switch uplink contend."""
        # both jobs cross leaves -> share both switch uplinks
        w1 = CollectiveWorkload(1, (0, 4), RecursiveDoubling(), msize_bytes=1.0)
        w2 = CollectiveWorkload(2, (1, 5), RecursiveDoubling(), msize_bytes=1.0)
        solo = FlowSimulator(net).run([w1])[0].duration
        both = FlowSimulator(net).run([w1, w2])
        d1 = [r.duration for r in both if r.job_id == 1][0]
        assert d1 > solo

    def test_disjoint_leaves_do_not_interfere(self, net):
        w1 = CollectiveWorkload(1, (0, 1), RecursiveDoubling(), msize_bytes=1.0)
        w2 = CollectiveWorkload(2, (4, 5), RecursiveDoubling(), msize_bytes=1.0)
        solo = FlowSimulator(net).run([w1])[0].duration
        both = FlowSimulator(net).run([w1, w2])
        d1 = [r.duration for r in both if r.job_id == 1][0]
        assert d1 == pytest.approx(solo)

    def test_late_arrival_spikes_running_job(self, net):
        """The Figure 1 mechanism in miniature."""
        w1 = CollectiveWorkload(1, (0, 4), RecursiveDoubling(), msize_bytes=1.0,
                                iterations=20)
        w2 = CollectiveWorkload(2, (1, 5), RecursiveDoubling(), msize_bytes=5.0,
                                start_time=10.0)
        recs = FlowSimulator(net).run([w1, w2])
        d1 = np.array([r.duration for r in recs if r.job_id == 1])
        assert d1.max() > d1.min()  # spike present

    def test_unique_job_ids_required(self, net):
        w = CollectiveWorkload(1, (0, 1), RecursiveDoubling())
        with pytest.raises(ValueError, match="unique"):
            FlowSimulator(net).run([w, w])


class TestWorkloadValidation:
    def test_bad_msize(self):
        with pytest.raises(ValueError):
            CollectiveWorkload(1, (0, 1), RecursiveDoubling(), msize_bytes=0)

    def test_bad_iterations(self):
        with pytest.raises(ValueError):
            CollectiveWorkload(1, (0, 1), RecursiveDoubling(), iterations=0)

    def test_negative_start(self):
        with pytest.raises(ValueError):
            CollectiveWorkload(1, (0, 1), RecursiveDoubling(), start_time=-1.0)

    def test_empty_nodes(self):
        with pytest.raises(ValueError):
            CollectiveWorkload(1, (), RecursiveDoubling())
