"""Seeded fault generator: determinism, pairing, switch failures."""

import pytest

from repro.faults import (
    FAULT_DOWN,
    FAULT_UP,
    FaultEvent,
    FaultGeneratorConfig,
    generate_faults,
)
from repro.topology import two_level_tree


@pytest.fixture
def topo():
    return two_level_tree(n_leaves=4, nodes_per_leaf=8)


class TestFaultEvent:
    def test_nodes_normalized_sorted_unique(self):
        e = FaultEvent(5.0, FAULT_DOWN, (3, 1, 3, 2))
        assert e.nodes == (1, 2, 3)

    def test_rejects_bad_action_and_empty_nodes(self):
        with pytest.raises(ValueError):
            FaultEvent(5.0, "explode", (1,))
        with pytest.raises(ValueError):
            FaultEvent(5.0, FAULT_DOWN, ())
        with pytest.raises(ValueError):
            FaultEvent(-1.0, FAULT_DOWN, (1,))

    def test_is_down(self):
        assert FaultEvent(0.0, FAULT_DOWN, (0,)).is_down
        assert not FaultEvent(0.0, FAULT_UP, (0,)).is_down


class TestGenerator:
    def test_same_seed_same_trace(self, topo):
        cfg = FaultGeneratorConfig(rate=10.0, horizon=36000.0, seed=42)
        assert generate_faults(topo, cfg) == generate_faults(topo, cfg)

    def test_different_seed_different_trace(self, topo):
        a = generate_faults(topo, FaultGeneratorConfig(rate=10.0, horizon=36000.0, seed=1))
        b = generate_faults(topo, FaultGeneratorConfig(rate=10.0, horizon=36000.0, seed=2))
        assert a != b

    def test_zero_rate_is_empty(self, topo):
        assert generate_faults(topo, FaultGeneratorConfig(rate=0.0, horizon=1e6)) == []

    def test_every_down_has_a_matching_up(self, topo):
        events = generate_faults(
            topo, FaultGeneratorConfig(rate=20.0, horizon=36000.0, seed=3)
        )
        open_sets = []
        for e in events:
            if e.is_down:
                open_sets.append(e.nodes)
            else:
                assert e.nodes in open_sets
                open_sets.remove(e.nodes)
        assert open_sets == []

    def test_no_overlapping_outages_per_node(self, topo):
        events = generate_faults(
            topo,
            FaultGeneratorConfig(rate=60.0, horizon=36000.0, seed=4, mean_downtime=7200.0),
        )
        down = set()
        for e in sorted(events, key=lambda e: (e.time, not e.is_down)):
            if e.is_down:
                assert not down.intersection(e.nodes)
                down.update(e.nodes)
            else:
                down.difference_update(e.nodes)

    def test_switch_failures_take_whole_leaves(self, topo):
        events = generate_faults(
            topo,
            FaultGeneratorConfig(rate=30.0, horizon=72000.0, seed=5, switch_fraction=1.0),
        )
        assert events, "expected some faults at this rate"
        for e in events:
            assert e.cause == "switch"
            assert len(e.nodes) == 8  # a whole leaf
            leaves = set(int(topo.leaf_of_node[n]) for n in e.nodes)
            assert len(leaves) == 1

    def test_sorted_by_time_and_within_horizon(self, topo):
        cfg = FaultGeneratorConfig(rate=15.0, horizon=36000.0, seed=6)
        events = generate_faults(topo, cfg)
        times = [e.time for e in events]
        assert times == sorted(times)
        assert all(e.time < cfg.horizon for e in events if e.is_down)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FaultGeneratorConfig(rate=-1.0, horizon=10.0)
        with pytest.raises(ValueError):
            FaultGeneratorConfig(rate=1.0, horizon=10.0, mean_downtime=0.0)
        with pytest.raises(ValueError):
            FaultGeneratorConfig(rate=1.0, horizon=10.0, switch_fraction=1.5)
