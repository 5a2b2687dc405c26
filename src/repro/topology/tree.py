"""Tree / fat-tree topology runtime representation.

The paper (§3.2) models the cluster network as a tree: level-1 ("leaf")
switches connect compute nodes, higher-level switches connect switches.
All scheduling-time queries — which leaf a node sits on, the level of the
lowest common switch of two nodes (Eq. 4 distance), which leaves live
under an inner switch — are answered here from flat NumPy arrays.

Construction goes through :meth:`TreeTopology.from_switches`, which
validates the spec (single root, no cycles, nodes on exactly one leaf)
and assigns:

* leaf indices ``0..n_leaves-1`` in depth-first order, so every switch's
  leaves form a contiguous ``[lo, hi)`` range;
* node ids ``0..n_nodes-1`` in leaf order, so every leaf's nodes form a
  contiguous range as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .entities import SwitchSpec

__all__ = ["TreeTopology", "SwitchInfo", "TopologyError"]


class TopologyError(ValueError):
    """Raised when a switch specification does not describe a valid tree."""


@dataclass(frozen=True)
class SwitchInfo:
    """Immutable per-switch facts exposed by :class:`TreeTopology`.

    Attributes
    ----------
    index:
        Global switch index (0-based, DFS order, root last among equals).
    name:
        Switch name from the spec.
    level:
        1 for leaf switches; an inner switch is one above its highest child.
    depth:
        Hops from the root (root has depth 0).
    leaf_lo, leaf_hi:
        Half-open range of leaf indices under this switch.
    capacity:
        Total compute nodes in this switch's subtree.
    parent:
        Switch index of the parent, or -1 for the root.
    """

    index: int
    name: str
    level: int
    depth: int
    leaf_lo: int
    leaf_hi: int
    capacity: int
    parent: int

    @property
    def is_leaf(self) -> bool:
        """True for level-1 switches (the ones nodes hang off)."""
        return self.level == 1

    @property
    def n_leaves(self) -> int:
        """Number of leaf switches in this switch's subtree."""
        return self.leaf_hi - self.leaf_lo


class TreeTopology:
    """A validated tree/fat-tree network topology.

    Use :meth:`from_switches` (or the helpers in
    :mod:`repro.topology.builders` / :mod:`repro.topology.config`) to
    construct one. Instances are immutable.
    """

    def __init__(
        self,
        *,
        node_names: Sequence[str],
        leaf_names: Sequence[str],
        leaf_sizes: np.ndarray,
        switch_infos: Sequence[SwitchInfo],
        leaf_switch_index: np.ndarray,
        ancestors: np.ndarray,
        switch_levels: np.ndarray,
    ) -> None:
        self._node_names: Tuple[str, ...] = tuple(node_names)
        self._leaf_names: Tuple[str, ...] = tuple(leaf_names)
        self.leaf_sizes: np.ndarray = np.asarray(leaf_sizes, dtype=np.int64)
        self.leaf_sizes.setflags(write=False)
        self._switches: Tuple[SwitchInfo, ...] = tuple(switch_infos)
        #: leaf index -> global switch index
        self._leaf_switch_index = np.asarray(leaf_switch_index, dtype=np.int64)
        self._leaf_switch_index.setflags(write=False)
        #: ancestors[d, k] = switch index of leaf k's ancestor at depth d,
        #: padded below the leaf with the leaf's own switch index.
        self._ancestors = np.asarray(ancestors, dtype=np.int64)
        self._ancestors.setflags(write=False)
        self._switch_levels = np.asarray(switch_levels, dtype=np.int64)
        self._switch_levels.setflags(write=False)

        #: node id -> leaf index
        self.leaf_of_node: np.ndarray = np.repeat(
            np.arange(self.n_leaves, dtype=np.int64), self.leaf_sizes
        )
        self.leaf_of_node.setflags(write=False)
        #: leaf index -> first node id on that leaf (leaf k owns
        #: node ids [leaf_node_offset[k], leaf_node_offset[k+1])).
        self.leaf_node_offset: np.ndarray = np.concatenate(
            ([0], np.cumsum(self.leaf_sizes))
        ).astype(np.int64)
        self.leaf_node_offset.setflags(write=False)

        #: lazily built (n_leaves, n_leaves) LCA-level matrix; shared by
        #: every ClusterState over this topology (instances are immutable)
        self._leaf_lca_levels: np.ndarray | None = None

        self._name_to_node: Dict[str, int] = {n: i for i, n in enumerate(self._node_names)}
        self._name_to_switch: Dict[str, int] = {s.name: s.index for s in self._switches}
        self._levels: Dict[int, List[SwitchInfo]] = {}
        for info in self._switches:
            self._levels.setdefault(info.level, []).append(info)
        self._level_capacity: Dict[int, int] = {
            level: max(info.capacity for info in infos)
            for level, infos in self._levels.items()
        }
        #: lazily built per-level (switch index, leaf_lo, leaf_hi) arrays
        #: for the vectorized lowest-level-switch search
        self._level_arrays: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_switches(cls, specs: Iterable[SwitchSpec]) -> "TreeTopology":
        """Build and validate a topology from switch specifications.

        Raises :class:`TopologyError` on: duplicate switch/node names, a
        node attached to more than one switch, unknown child switch
        references, cycles, forests (more than one root), or empty input.
        """
        spec_list = list(specs)
        if not spec_list:
            raise TopologyError("topology needs at least one switch")
        by_name: Dict[str, SwitchSpec] = {}
        for spec in spec_list:
            err = spec.validate()
            if err:
                raise TopologyError(err)
            if spec.name in by_name:
                raise TopologyError(f"duplicate switch name {spec.name!r}")
            by_name[spec.name] = spec

        node_owner: Dict[str, str] = {}
        for spec in spec_list:
            for node in spec.nodes:
                if node in node_owner:
                    raise TopologyError(
                        f"node {node!r} attached to both {node_owner[node]!r} and {spec.name!r}"
                    )
                node_owner[node] = spec.name

        parent_of: Dict[str, str] = {}
        for spec in spec_list:
            for child in spec.switches:
                if child not in by_name:
                    raise TopologyError(f"switch {spec.name!r} references unknown child {child!r}")
                if child in parent_of:
                    raise TopologyError(
                        f"switch {child!r} has two parents: {parent_of[child]!r} and {spec.name!r}"
                    )
                parent_of[child] = spec.name

        roots = [s.name for s in spec_list if s.name not in parent_of]
        if len(roots) != 1:
            raise TopologyError(f"topology must have exactly one root switch, found {roots}")
        root = roots[0]

        # Iterative DFS from the root: detects cycles/unreachable switches,
        # assigns DFS-contiguous leaf indices and node ids.
        order: List[str] = []
        visited: set[str] = set()
        stack: List[str] = [root]
        while stack:
            name = stack.pop()
            if name in visited:
                raise TopologyError(f"cycle involving switch {name!r}")
            visited.add(name)
            order.append(name)
            # reversed so children come out of the stack in spec order
            stack.extend(reversed(by_name[name].switches))
        unreachable = set(by_name) - visited
        if unreachable:
            raise TopologyError(f"switches unreachable from root: {sorted(unreachable)}")

        # Post-order pass computing level / leaf ranges / capacities.
        levels: Dict[str, int] = {}
        leaf_lo: Dict[str, int] = {}
        leaf_hi: Dict[str, int] = {}
        capacity: Dict[str, int] = {}
        leaf_names: List[str] = []
        leaf_sizes: List[int] = []
        node_names: List[str] = []

        def visit(name: str) -> None:
            spec = by_name[name]
            if spec.is_leaf:
                levels[name] = 1
                leaf_lo[name] = len(leaf_names)
                leaf_names.append(name)
                leaf_sizes.append(len(spec.nodes))
                node_names.extend(spec.nodes)
                leaf_hi[name] = len(leaf_names)
                capacity[name] = len(spec.nodes)
                return
            lo = len(leaf_names)
            cap = 0
            lvl = 0
            for child in spec.switches:
                visit(child)
                cap += capacity[child]
                lvl = max(lvl, levels[child])
            levels[name] = lvl + 1
            leaf_lo[name] = lo
            leaf_hi[name] = len(leaf_names)
            capacity[name] = cap

        # Manual recursion is fine: tree depth is tiny (<= 5 in practice),
        # but guard against pathological chains blowing the stack.
        import sys

        if len(spec_list) > sys.getrecursionlimit() - 100:
            sys.setrecursionlimit(len(spec_list) + 200)
        visit(root)

        # Depths from the root.
        depth: Dict[str, int] = {root: 0}
        for name in order:  # DFS order guarantees parents precede children
            for child in by_name[name].switches:
                depth[child] = depth[name] + 1

        # Global switch indices in DFS order.
        index_of = {name: i for i, name in enumerate(order)}
        infos: List[SwitchInfo] = []
        for name in order:
            infos.append(
                SwitchInfo(
                    index=index_of[name],
                    name=name,
                    level=levels[name],
                    depth=depth[name],
                    leaf_lo=leaf_lo[name],
                    leaf_hi=leaf_hi[name],
                    capacity=capacity[name],
                    parent=index_of[parent_of[name]] if name in parent_of else -1,
                )
            )

        n_leaves = len(leaf_names)
        if n_leaves == 0:
            raise TopologyError("topology has no leaf switches / compute nodes")
        leaf_switch_index = np.array([index_of[n] for n in leaf_names], dtype=np.int64)

        max_depth = max(depth.values())
        ancestors = np.empty((max_depth + 1, n_leaves), dtype=np.int64)
        for k, leaf in enumerate(leaf_names):
            chain: List[int] = []
            cur = leaf
            while True:
                chain.append(index_of[cur])
                if cur == root:
                    break
                cur = parent_of[cur]
            chain.reverse()  # root first
            # pad below the leaf with the leaf itself
            chain.extend([index_of[leaf]] * (max_depth + 1 - len(chain)))
            ancestors[:, k] = chain

        switch_levels = np.array([levels[n] for n in order], dtype=np.int64)

        return cls(
            node_names=node_names,
            leaf_names=leaf_names,
            leaf_sizes=np.array(leaf_sizes, dtype=np.int64),
            switch_infos=infos,
            leaf_switch_index=leaf_switch_index,
            ancestors=ancestors,
            switch_levels=switch_levels,
        )

    # ------------------------------------------------------------------
    # basic facts
    # ------------------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        """Total compute nodes."""
        return len(self._node_names)

    @property
    def n_leaves(self) -> int:
        """Number of leaf switches."""
        return len(self._leaf_names)

    @property
    def n_switches(self) -> int:
        """Total number of switches in the tree."""
        return len(self._switches)

    @property
    def height(self) -> int:
        """Level of the root switch (a two-level tree has height 2)."""
        return self.root.level

    @property
    def root(self) -> SwitchInfo:
        """The top-level switch."""
        return self._switches[0]

    @property
    def switches(self) -> Tuple[SwitchInfo, ...]:
        """All switches, DFS order (root first)."""
        return self._switches

    def switches_at_level(self, level: int) -> List[SwitchInfo]:
        """Switches whose level equals ``level`` (1 = leaves)."""
        return list(self._levels.get(level, []))

    def level_capacity(self, level: int) -> int:
        """Largest subtree capacity among the switches at ``level`` (0 if none).

        A request for more nodes than this cannot be held by any switch
        of the level, whatever the occupancy.
        """
        return self._level_capacity.get(level, 0)

    def level_switch_arrays(
        self, level: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(switch_index, leaf_lo, leaf_hi)`` arrays for one level.

        Same switches, same order as :meth:`switches_at_level`, but as
        flat int64 arrays so subtree-free counts for a whole level are
        one vectorized cumulative-sum difference instead of a Python
        loop over :meth:`~repro.cluster.state.ClusterState.subtree_free`.
        Built lazily and cached — instances are immutable.
        """
        arrays = self._level_arrays.get(level)
        if arrays is None:
            infos = self._levels.get(level, [])
            arrays = (
                np.array([s.index for s in infos], dtype=np.int64),
                np.array([s.leaf_lo for s in infos], dtype=np.int64),
                np.array([s.leaf_hi for s in infos], dtype=np.int64),
            )
            for arr in arrays:
                arr.setflags(write=False)
            self._level_arrays[level] = arrays
        return arrays

    def switch(self, name_or_index) -> SwitchInfo:
        """Look up a switch by name or global index."""
        if isinstance(name_or_index, str):
            try:
                return self._switches[self._name_to_switch[name_or_index]]
            except KeyError:
                raise KeyError(f"no switch named {name_or_index!r}") from None
        return self._switches[int(name_or_index)]

    def leaf(self, leaf_index: int) -> SwitchInfo:
        """The :class:`SwitchInfo` of leaf ``leaf_index``."""
        return self._switches[int(self._leaf_switch_index[leaf_index])]

    def node_name(self, node_id: int) -> str:
        """The SLURM-style name of node ``node_id``."""
        return self._node_names[node_id]

    def node_id(self, name: str) -> int:
        """The id of the node named ``name`` (KeyError when unknown)."""
        try:
            return self._name_to_node[name]
        except KeyError:
            raise KeyError(f"no node named {name!r}") from None

    @property
    def node_names(self) -> Tuple[str, ...]:
        """All node names, indexed by node id."""
        return self._node_names

    @property
    def leaf_names(self) -> Tuple[str, ...]:
        """All leaf-switch names, indexed by leaf index."""
        return self._leaf_names

    def leaf_nodes(self, leaf_index: int) -> np.ndarray:
        """Node ids attached to leaf ``leaf_index`` (contiguous range)."""
        lo = int(self.leaf_node_offset[leaf_index])
        hi = int(self.leaf_node_offset[leaf_index + 1])
        return np.arange(lo, hi, dtype=np.int64)

    # ------------------------------------------------------------------
    # distance queries (paper Eq. 4)
    # ------------------------------------------------------------------

    def lca_level(self, leaf_a, leaf_b) -> np.ndarray:
        """Level of the lowest common switch of two leaves (vectorized).

        ``leaf_a`` / ``leaf_b`` are leaf indices (scalars or arrays).
        Two equal leaves have LCA level 1 (the leaf itself).
        """
        la, lb = np.broadcast_arrays(
            np.asarray(leaf_a, dtype=np.int64), np.asarray(leaf_b, dtype=np.int64)
        )
        shape = la.shape
        la = la.ravel()
        lb = lb.ravel()
        anc_a = self._ancestors[:, la]
        anc_b = self._ancestors[:, lb]
        # Ancestor chains agree on a prefix (from the root) then diverge
        # for good, so the deepest common ancestor sits at index sum-1.
        common = (anc_a == anc_b).sum(axis=0) - 1
        lca = anc_a[common, np.arange(la.size)]
        return self._switch_levels[lca].reshape(shape)

    def leaf_lca_levels(self) -> np.ndarray:
        """Dense leaf×leaf matrix of LCA levels (read-only, built lazily).

        ``M[a, b]`` is the level of the lowest common switch of leaves
        ``a`` and ``b`` (diagonal = 1). At Mira scale this is 136×136 —
        small enough to precompute once and index directly, which is what
        lets the Eq. 6 leaf-pair kernel replace per-node-pair ancestor
        walks with a single fancy-index lookup.
        """
        m = self._leaf_lca_levels
        if m is None:
            idx = np.arange(self.n_leaves, dtype=np.int64)
            m = self.lca_level(idx[:, None], idx[None, :])
            m.setflags(write=False)
            self._leaf_lca_levels = m
        return m

    def distance(self, node_i, node_j) -> np.ndarray:
        """Eq. 4 distance ``d(i, j) = 2 * level of lowest common switch``.

        Vectorized over node-id arrays. The distance of a node to itself
        is 0 (intra-node communication never touches the network).
        """
        ni = np.asarray(node_i, dtype=np.int64)
        nj = np.asarray(node_j, dtype=np.int64)
        la = self.leaf_of_node[ni]
        lb = self.leaf_of_node[nj]
        d = 2 * self.lca_level(la, lb)
        return np.where(ni == nj, 0, d)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"TreeTopology(n_nodes={self.n_nodes}, n_leaves={self.n_leaves}, "
            f"height={self.height})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TreeTopology):
            return NotImplemented
        return (
            self._node_names == other._node_names
            and self._leaf_names == other._leaf_names
            and np.array_equal(self.leaf_sizes, other.leaf_sizes)
            and self._switches == other._switches
        )

    def __hash__(self) -> int:
        return hash((self._node_names, self._leaf_names, self._switches))
