"""Tests for the Eq. 6 job cost and Eq. 7 runtime rescaling."""

import pytest

from repro.cluster import ClusterState, CommComponent, Job, JobKind
from repro.cost import CostModel, allocation_cost
from repro.cost.hops import effective_hops_scalar
from repro.patterns import (
    BinomialTree,
    CommunicationPattern,
    RecursiveDoubling,
    RecursiveHalvingVectorDoubling,
    Ring,
)
from repro.topology import two_level_tree

from ..conftest import make_comm_job


class TestAllocationCost:
    def test_single_node_zero(self, figure5_state):
        assert CostModel().allocation_cost(figure5_state, [0], RecursiveDoubling()) == 0.0

    def test_two_nodes_same_leaf(self, figure5_state):
        """One RD step; max hops = Hops(n0, n1) = 4."""
        cost = CostModel(weight_by_msize=False).allocation_cost(
            figure5_state, [0, 1], RecursiveDoubling()
        )
        assert cost == pytest.approx(4.0)

    def test_eq6_sums_per_step_max(self, figure5_state):
        """Manual Eq. 6 for Job1's own nodes [0, 1, 4, 5] under RD."""
        nodes = [0, 1, 4, 5]
        model = CostModel(weight_by_msize=False)
        expected = 0.0
        for step in RecursiveDoubling().steps(4):
            worst = max(
                effective_hops_scalar(figure5_state, nodes[s], nodes[d])
                for s, d in step.pairs
            )
            expected += worst
        assert model.allocation_cost(figure5_state, nodes, RecursiveDoubling()) == pytest.approx(expected)

    def test_msize_weighting_changes_rhvd(self, figure5_state):
        nodes = [0, 1, 4, 5]
        pat = RecursiveHalvingVectorDoubling()
        weighted = CostModel(weight_by_msize=True).allocation_cost(figure5_state, nodes, pat)
        unweighted = CostModel(weight_by_msize=False).allocation_cost(figure5_state, nodes, pat)
        assert weighted < unweighted  # msizes are < 1

    def test_rank_order_matters(self):
        """Mapping rank blocks to switches differently changes the cost."""
        topo = two_level_tree(2, 4)
        state = ClusterState(topo)
        state.allocate(1, list(range(8)), JobKind.COMM)
        grouped = [0, 1, 2, 3, 4, 5, 6, 7]      # leaves get rank blocks
        interleaved = [0, 4, 1, 5, 2, 6, 3, 7]  # ranks alternate leaves
        model = CostModel()
        pat = RecursiveHalvingVectorDoubling()
        assert model.allocation_cost(state, grouped, pat) != model.allocation_cost(
            state, interleaved, pat
        )

    def test_ring_repeat_multiplies(self, figure5_state):
        """Ring cost must scale with P-1 via the repeat field."""
        nodes = [0, 1, 4, 5]
        cost = CostModel(weight_by_msize=False).allocation_cost(
            figure5_state, nodes, Ring()
        )
        one_step_max = max(
            effective_hops_scalar(figure5_state, nodes[s], nodes[d])
            for s, d in Ring().steps(4)[0].pairs
        )
        assert cost == pytest.approx(3 * one_step_max)

    def test_empty_nodes_rejected(self, figure5_state):
        with pytest.raises(ValueError):
            CostModel().allocation_cost(figure5_state, [], RecursiveDoubling())

    @pytest.mark.parametrize("method", ["allocation_cost", "allocation_cost_pairwise"])
    @pytest.mark.parametrize("end", ["below", "above"])
    def test_out_of_range_node_id_rejected(self, figure5_state, method, end):
        """-1 must not wrap to the last node; n_nodes must not leak an
        IndexError. The error names the bad id."""
        n = figure5_state.topology.n_nodes
        bad = -1 if end == "below" else n
        price = getattr(CostModel(), method)
        for nodes in ([bad, 0], [0, bad], [bad]):
            with pytest.raises(ValueError, match=f"node id {bad} outside"):
                price(figure5_state, nodes, RecursiveDoubling())
        # a valid pricing of the same job size still works afterwards
        assert price(figure5_state, [n - 1, 0], RecursiveDoubling()) > 0

    def test_pattern_without_steps_costs_zero(self, figure5_state):
        class Silent(CommunicationPattern):
            name = "silent"

            def steps(self, nranks):
                return []

        assert CostModel().allocation_cost(figure5_state, [0, 5], Silent()) == 0.0

    def test_module_level_convenience(self, figure5_state):
        assert allocation_cost(figure5_state, [0, 1], RecursiveDoubling()) > 0


class TestRuntimeRatio:
    def test_plain_ratio(self):
        assert CostModel().runtime_ratio(3.0, 4.0) == pytest.approx(0.75)

    def test_both_zero_is_one(self):
        assert CostModel().runtime_ratio(0.0, 0.0) == 1.0

    def test_zero_default_nonzero_aware_rejected(self):
        with pytest.raises(ValueError):
            CostModel().runtime_ratio(1.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostModel().runtime_ratio(-1.0, 1.0)


class TestAdjustedRuntime:
    def test_eq7_single_component(self):
        """T' = T_compute + T_comm * ratio."""
        job = make_comm_job(nodes=8, runtime=100.0, fraction=0.7)
        pat = job.comm[0].pattern
        model = CostModel()
        t = model.adjusted_runtime(job, {pat: 5.0}, {pat: 10.0})
        assert t == pytest.approx(100.0 * (0.3 + 0.7 * 0.5))

    def test_ratio_one_keeps_runtime(self):
        job = make_comm_job(runtime=50.0)
        pat = job.comm[0].pattern
        assert CostModel().adjusted_runtime(job, {pat: 2.0}, {pat: 2.0}) == pytest.approx(50.0)

    def test_compute_job_unchanged(self):
        job = Job(1, 0.0, 4, 77.0)
        assert CostModel().adjusted_runtime(job, {}, {}) == pytest.approx(77.0)

    def test_mixed_components(self):
        rd, binom = RecursiveDoubling(), BinomialTree()
        job = Job(
            1, 0.0, 8, 100.0, JobKind.COMM,
            (CommComponent(rd, 0.15), CommComponent(binom, 0.35)),
        )
        t = CostModel().adjusted_runtime(
            job, {rd: 1.0, binom: 3.0}, {rd: 2.0, binom: 4.0}
        )
        assert t == pytest.approx(100.0 * (0.5 + 0.15 * 0.5 + 0.35 * 0.75))

    def test_worse_allocation_increases_runtime(self):
        job = make_comm_job(runtime=100.0, fraction=0.5)
        pat = job.comm[0].pattern
        t = CostModel().adjusted_runtime(job, {pat: 20.0}, {pat: 10.0})
        assert t == pytest.approx(100.0 * (0.5 + 0.5 * 2.0))
