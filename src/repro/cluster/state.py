"""Mutable cluster occupancy state.

Tracks, per leaf switch, the three counters the paper's formulas use
(Table 1): ``L_nodes`` (capacity, static on the topology), ``L_busy``
(allocated nodes) and ``L_comm`` (nodes running communication-intensive
jobs). Node-granular state is an int8 array plus an allocatable mask
kept current by every mutation, so "lowest free node ids on leaf k" is
a single vectorized scan.

A placement is a :class:`Takes`: how many nodes each leaf switch gives,
in rank order. Allocators return takes and never mutate this class —
the scheduler engine applies them through :meth:`ClusterState.allocate`,
which checks them, builds the job's node ids once and updates the
per-leaf counters from the takes. Hypothetical allocations are priced
on :meth:`comm_overlay` views that only materialize the per-leaf
counters the cost model reads.

A placement of one take (a request one leaf switch holds, 71% of the
starts of a streamed Theta replay) never goes through vector
arithmetic: :attr:`Takes.single` gives its ``(leaf, count)`` as Python
ints, the gather is one scan of that leaf's slice of the allocatable
mask, and the per-leaf counters move by scalar updates. Several takes
take the vectorized path: one scan of the mask over the leaves they
span, one index array for every take's head, and a sort for the
record's ascending ids only when the leaves do not ascend. The take
count alone picks the branch.

Every mutation bumps :attr:`ClusterState.version`; derived values
(the Eq. 2 contention-share vector, the allocatable total
:attr:`ClusterState.total_free`) and Eq. 6 cost results are cached
against that counter, so the many repeated pricings of an unchanged
state (individual runs, adaptive arbitration, counterfactuals) skip
recomputation entirely.

Orthogonal to occupancy, every node carries a SLURM-style
*availability* state (UP / DOWN / DRAINING, see :mod:`repro.faults`).
``leaf_free`` always means *allocatable* — free **and** UP — so every
allocator's leaf ordering routes around failed switches without
knowing faults exist; ``leaf_offline`` counts the unoccupied non-UP
nodes so ``leaf_busy`` (and the Eq. 1 ratios built on it) stays exact
under failures. Availability transitions bump :attr:`version` like any
other mutation, keeping the Eq. 6 cost caches honest, and keep
:attr:`ClusterState.n_draining` current: while no node is DRAINING, a
released job's nodes are all UP, so ``release`` frees them without
reading their availability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..topology.tree import SwitchInfo, TreeTopology
from .job import JobKind

__all__ = [
    "ClusterState",
    "CommOverlay",
    "AllocationRecord",
    "Takes",
    "NODE_FREE",
    "NODE_COMPUTE",
    "NODE_COMM",
    "NODE_IO",
    "AVAIL_UP",
    "AVAIL_DOWN",
    "AVAIL_DRAINING",
]

#: entries kept in a state's Eq. 6 cost cache before it is wiped; keys
#: embed the priced placement, so the cap bounds memory, not correctness.
_COST_CACHE_MAX = 256

NODE_FREE = 0
NODE_COMPUTE = 1
NODE_COMM = 2
NODE_IO = 3

#: per-node availability states (orthogonal to the occupancy states above)
AVAIL_UP = 0
AVAIL_DOWN = 1
AVAIL_DRAINING = 2

_KIND_TO_NODE_STATE = {
    JobKind.COMPUTE: NODE_COMPUTE,
    JobKind.COMM: NODE_COMM,
    JobKind.IO: NODE_IO,
}


class Takes:
    """A placement at leaf granularity: distinct leaves with positive counts.

    ``counts[k]`` consecutive ranks run on leaf ``leaves[k]``, in rank
    order — the decision every allocator makes (SLURM's tree search and
    §4's greedy, balanced and adaptive fills). Eqs. 2-6 read only each
    rank's leaf, so a placement is priced from its takes; node ids are
    built once, when :meth:`ClusterState.allocate` starts the job (the
    lowest allocatable ids of each leaf).

    Both arrays are int64 and must not be mutated after construction:
    :attr:`key` (cache keys, equality) is computed once, and so is
    :attr:`single`.
    """

    __slots__ = ("leaves", "counts", "_single", "_key", "_n_nodes")

    def __init__(self, leaves: Iterable[int], counts: Iterable[int]) -> None:
        self.leaves = np.asarray(leaves, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        if self.leaves.ndim != 1 or self.leaves.shape != self.counts.shape:
            raise ValueError(
                "takes need 1-D leaves and counts of equal length, got shapes "
                f"{self.leaves.shape} and {self.counts.shape}"
            )
        self._key: Optional[bytes] = None
        self._single: Optional[Tuple[int, int]] = None
        self._n_nodes: Optional[int] = None
        if self.leaves.size == 1:
            self._single = (self.leaves.item(), self.counts.item())
            self._n_nodes = self._single[1]

    @property
    def single(self) -> Optional[Tuple[int, int]]:
        """``(leaf, count)`` as Python ints when there is one take, else ``None``.

        A request that one leaf switch can hold — SLURM's tree search
        serves it from the lowest feasible switch, a leaf — is placed by
        one take. Every consumer of a placement (:meth:`check`,
        :meth:`ClusterState.allocate` and ``release``,
        :meth:`ClusterState.comm_overlay`, the Eq. 6 pricing of
        :class:`repro.cost.CostModel`) branches on this view and does
        scalar work instead of vector arithmetic on one-element arrays.
        """
        return self._single

    @property
    def n_nodes(self) -> int:
        """Nodes (ranks) in the placement."""
        if self._n_nodes is None:
            self._n_nodes = int(self.counts.sum())
        return self._n_nodes

    @property
    def key(self) -> bytes:
        """Bytes of ``leaves`` then ``counts``: equal keys, equal takes."""
        if self._key is None:
            self._key = self.leaves.tobytes() + self.counts.tobytes()
        return self._key

    def check(self, limit: np.ndarray) -> None:
        """Raise ``ValueError`` unless these are valid takes under ``limit``.

        Leaves must be in ``[0, len(limit))`` and distinct, and each
        count in ``[1, limit[leaf]]``. ``limit`` is the per-leaf
        allocatable count when placing, the leaf size when pricing.
        O(takes): nothing is sized by the machine. Plain Python over the
        takes' lists — a handful of numpy reductions on arrays this small
        cost more than the loop; one take is two comparisons.
        """
        n_leaves = limit.shape[0]
        single = self._single
        if single is not None:
            leaf, count = single
            if not 0 <= leaf < n_leaves:
                raise ValueError(f"leaf {leaf} outside [0, {n_leaves})")
            cap = int(limit[leaf])
            if not 1 <= count <= cap:
                raise ValueError(f"leaf {leaf} can give {cap} nodes, takes ask {count}")
            return
        leaves = self.leaves.tolist()
        if not leaves:
            raise ValueError("takes must name at least one leaf")
        lo, hi = min(leaves), max(leaves)
        if lo < 0 or hi >= n_leaves:
            raise ValueError(f"leaf {lo if lo < 0 else hi} outside [0, {n_leaves})")
        if len(set(leaves)) != len(leaves):
            raise ValueError("takes repeat a leaf")
        caps = limit[self.leaves].tolist()
        for leaf, count, cap in zip(leaves, self.counts.tolist(), caps):
            if not 1 <= count <= cap:
                raise ValueError(f"leaf {leaf} can give {cap} nodes, takes ask {count}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Takes) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        pairs = list(zip(self.leaves.tolist(), self.counts.tolist()))
        return f"Takes({pairs})"


@dataclass(frozen=True)
class AllocationRecord:
    """Nodes held by one running job, and the per-leaf takes they form."""

    job_id: int
    nodes: np.ndarray  # int64 node ids, ascending
    kind: JobKind
    #: how many of ``nodes`` each leaf holds; release moves counters by them
    takes: Takes


def record_takes_match(topology: TreeTopology, record: AllocationRecord) -> bool:
    """True when ``record.takes`` are the per-leaf node counts of ``record.nodes``."""
    takes = record.takes
    if takes.leaves.size and not (
        0 <= takes.leaves.min() and takes.leaves.max() < topology.n_leaves
    ):
        return False
    per_leaf = np.zeros(topology.n_leaves, dtype=np.int64)
    np.add.at(per_leaf, takes.leaves, takes.counts)
    return np.array_equal(
        per_leaf, np.bincount(topology.leaf_of_node[record.nodes], minlength=topology.n_leaves)
    )


def _runs_of_sorted(topology: TreeTopology, nodes: np.ndarray) -> Takes:
    """Takes of an ascending node-id array, one per leaf, ascending leaves."""
    leaf_of = topology.leaf_of_node[nodes]
    starts = np.flatnonzero(np.concatenate(([True], leaf_of[1:] != leaf_of[:-1])))
    counts = np.diff(np.append(starts, nodes.size))
    return Takes(leaf_of[starts], counts)


class ClusterState:
    """Free/busy/comm bookkeeping over a :class:`TreeTopology`.

    Invariants (checked by :meth:`validate`):

    * ``leaf_free + leaf_busy + leaf_offline == topology.leaf_sizes``;
    * ``leaf_free`` counts exactly the free **and** UP nodes,
      ``leaf_offline`` the free-but-not-UP ones;
    * ``leaf_comm <= leaf_busy``;
    * per-leaf counters agree with the node-granular ``node_state``;
    * :attr:`allocatable` equals free **and** UP, node by node;
    * each running record's takes are the per-leaf counts of its nodes;
    * every allocated node belongs to exactly one running job;
    * no running job occupies a DOWN node (DRAINING is allowed: the
      node finishes its current job, then stops accepting new ones);
    * :attr:`n_draining` counts the DRAINING nodes exactly.
    """

    def __init__(self, topology: TreeTopology) -> None:
        self.topology = topology
        self.node_state = np.full(topology.n_nodes, NODE_FREE, dtype=np.int8)
        self.node_avail = np.full(topology.n_nodes, AVAIL_UP, dtype=np.int8)
        self.leaf_free = topology.leaf_sizes.copy()
        self.leaf_offline = np.zeros(topology.n_leaves, dtype=np.int64)
        self.leaf_comm = np.zeros(topology.n_leaves, dtype=np.int64)
        self.leaf_io = np.zeros(topology.n_leaves, dtype=np.int64)
        #: availability history: per-leaf count of node DOWN transitions
        #: since cluster start (monotonic, never decremented by repair);
        #: the fault-aware allocator reads it to bias placements away
        #: from failure-correlated leaves.
        self.leaf_faults = np.zeros(topology.n_leaves, dtype=np.int64)
        #: node id -> owning job id, -1 when unoccupied; the node->job
        #: index the fault path reads (jobs_on) instead of scanning all
        #: running records against an O(n_nodes) hit mask.
        self.node_job = np.full(topology.n_nodes, -1, dtype=np.int64)
        #: per node: unoccupied *and* UP. Every mutation keeps it current,
        #: so the node-id gather of :meth:`allocate` is one scan of it.
        self.allocatable = np.ones(topology.n_nodes, dtype=bool)
        #: nodes marked DRAINING, kept by the ``mark_*`` transitions. A
        #: running job's nodes are UP or DRAINING (never DOWN), so while
        #: this is 0, :meth:`release` frees them all as allocatable.
        self.n_draining = 0
        self.running: Dict[int, AllocationRecord] = {}
        #: bumped by every :meth:`allocate` / :meth:`release`; tags the caches
        self.version = 0
        self._derived_cache: Dict[str, object] = {}
        self._cost_cache: Dict[object, float] = {}

    def _invalidate(self) -> None:
        """Advance :attr:`version` and drop version-tagged caches."""
        self.version += 1
        if self._derived_cache:
            self._derived_cache.clear()
        if self._cost_cache:
            self._cost_cache.clear()

    # ------------------------------------------------------------------
    # derived counters
    # ------------------------------------------------------------------

    @property
    def leaf_busy(self) -> np.ndarray:
        """``L_busy`` per leaf (allocated nodes; offline nodes excluded)."""
        return self.topology.leaf_sizes - self.leaf_free - self.leaf_offline

    @property
    def total_free(self) -> int:
        """Allocatable nodes: free *and* UP.

        Kept in the version-tagged derived cache: every select reads it
        (the allocator's precheck), the queue policy reads it once a
        pass, and between mutations it cannot change.
        """
        total = self._derived_cache.get("total_free")
        if total is None:
            total = int(self.leaf_free.sum())
            self._derived_cache["total_free"] = total
        return total

    @property
    def total_busy(self) -> int:
        """Number of occupied nodes (UP or not)."""
        return self.topology.n_nodes - self.total_free - int(self.leaf_offline.sum())

    @property
    def total_down(self) -> int:
        """Nodes currently marked DOWN."""
        return int(np.count_nonzero(self.node_avail == AVAIL_DOWN))

    @property
    def total_draining(self) -> int:
        """Nodes currently marked DRAINING (:attr:`n_draining`)."""
        return self.n_draining

    def subtree_free(self, switch: SwitchInfo) -> int:
        """Free nodes in ``switch``'s subtree."""
        return int(self.leaf_free[switch.leaf_lo : switch.leaf_hi].sum())

    def communication_ratio(self, leaf_index: Optional[np.ndarray] = None) -> np.ndarray:
        """Paper Eq. 1: ``L_comm / L_busy + L_busy / L_nodes`` per leaf.

        An idle leaf (``L_busy == 0``) has no contention: the first term
        is defined as 0 there, giving idle leaves the minimum ratio —
        exactly the switches a communication-intensive job should prefer.
        ``L_comm <= L_busy``, so an idle leaf's first term is ``0 / 1``.
        """
        busy = self.leaf_busy
        comm = self.leaf_comm
        sizes = self.topology.leaf_sizes
        if leaf_index is not None:
            idx = np.asarray(leaf_index, dtype=np.int64)
            busy, comm, sizes = busy[idx], comm[idx], sizes[idx]
        return comm / np.maximum(busy, 1) + busy / sizes

    def io_ratio(self, leaf_index: Optional[np.ndarray] = None) -> np.ndarray:
        """Eq. 1 analogue for I/O load: ``L_io / L_busy + L_busy / L_nodes``.

        Used by the §7 I/O-aware allocator the same way the greedy
        algorithm uses the communication ratio.
        """
        busy = self.leaf_busy
        io = self.leaf_io
        sizes = self.topology.leaf_sizes
        if leaf_index is not None:
            idx = np.asarray(leaf_index, dtype=np.int64)
            busy, io, sizes = busy[idx], io[idx], sizes[idx]
        first = np.divide(
            io, busy, out=np.zeros(len(busy), dtype=np.float64), where=busy > 0
        )
        return first + busy / sizes

    def leaf_comm_share(self) -> np.ndarray:
        """``L_comm / L_nodes`` per leaf — the per-switch contention term.

        Cached against :attr:`version`: the Eq. 6 kernel reads this
        vector on every evaluation, and between mutations it cannot
        change. The returned array is read-only.
        """
        share = self._derived_cache.get("comm_share")
        if share is None:
            share = self.leaf_comm / self.topology.leaf_sizes
            share.setflags(write=False)
            self._derived_cache["comm_share"] = share
        return share

    def _derived(self, key: str, builder) -> np.ndarray:
        """Version-tagged read-only derived vector (see ``_derived_cache``)."""
        value = self._derived_cache.get(key)
        if value is None:
            value = builder()
            value.setflags(write=False)
            self._derived_cache[key] = value
        return value

    def leaf_free_cumsum(self) -> np.ndarray:
        """``[0, cumsum(leaf_free)]`` — subtree free counts in O(1) each.

        ``cs[hi] - cs[lo]`` is the free-node count under any switch with
        leaf range ``[lo, hi)``; the vectorized lowest-level-switch
        search evaluates a whole level at once from this. Cached against
        :attr:`version` like every derived vector.
        """
        return self._derived(
            "free_cumsum",
            lambda: np.concatenate(
                ([0], np.cumsum(self.leaf_free))
            ).astype(np.int64),
        )

    def leaf_busy_cached(self) -> np.ndarray:
        """Read-only :attr:`leaf_busy`, cached against :attr:`version`."""
        return self._derived("leaf_busy", lambda: np.asarray(self.leaf_busy))

    def communication_ratio_cached(self) -> np.ndarray:
        """Full Eq. 1 ratio vector, cached against :attr:`version`.

        The adaptive allocator prices a greedy and a balanced candidate
        from the same state: with the ranking version-tagged here, the
        second candidate (and any pass over an unmutated state) reuses
        the scan instead of recomputing ``L_comm/L_busy + L_busy/L_n``
        per call. Same numbers as :meth:`communication_ratio`.
        """
        return self._derived("comm_ratio", self.communication_ratio)

    def io_ratio_cached(self) -> np.ndarray:
        """Full I/O-analogue ratio vector, cached against :attr:`version`."""
        return self._derived("io_ratio", self.io_ratio)

    # ------------------------------------------------------------------
    # version-tagged cost cache (read by the Eq. 6 kernel)
    # ------------------------------------------------------------------

    def cost_cache_get(self, key: object) -> Optional[float]:
        """Cached Eq. 6 result for ``key``, valid for the current version."""
        return self._cost_cache.get(key)

    def cost_cache_put(self, key: object, value: float) -> None:
        """Memoize an Eq. 6 total for the current state version (capped FIFO)."""
        if len(self._cost_cache) >= _COST_CACHE_MAX:
            self._cost_cache.clear()
        self._cost_cache[key] = value

    def comm_overlay(self, takes: Takes, kind: JobKind) -> "CommOverlay":
        """A pricing view of this state plus one hypothetical allocation.

        Captures only the per-leaf counters the Eq. 2-6 kernel reads —
        O(n_leaves) instead of the O(n_nodes) of a full :meth:`copy`.
        ``takes`` are checked like :meth:`allocate` checks them (leaves
        in range and distinct, each count in ``[1, leaf_free]``) and
        raise ``ValueError`` otherwise. The view's counters are copied
        at capture time, so it stays numerically valid even if this
        state mutates afterwards.
        """
        takes.check(self.leaf_free)
        leaf_comm = self.leaf_comm.copy()
        if kind is JobKind.COMM:
            single = takes.single
            if single is not None:
                leaf_comm[single[0]] += single[1]
            else:
                leaf_comm[takes.leaves] += takes.counts
        return CommOverlay(self, leaf_comm, takes, kind)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def allocate(
        self, job_id: int, placement: Union[Takes, Iterable[int]], kind: JobKind
    ) -> np.ndarray:
        """Mark a placement as held by ``job_id``; return its node ids in rank order.

        ``placement`` is the :class:`Takes` an allocator returned: the
        lowest allocatable node ids of each leaf are taken, in take
        order (the only node-id gather of a started job). An explicit
        node-id set (worked examples, fillers, tests) is accepted too.
        Raises ``ValueError`` before anything is mutated if the job id
        is already running, a take is malformed or exceeds its leaf's
        allocatable count, or a node id is out of range, busy, not UP,
        or repeated (a duplicate would silently shrink the allocation —
        always an allocator bug).
        """
        if job_id in self.running:
            raise ValueError(f"job {job_id} is already running")
        if isinstance(placement, Takes):
            placement.check(self.leaf_free)
            rank_nodes, nodes = self._gather(placement)
            takes = placement
        else:
            rank_nodes, nodes = self._check_node_ids(job_id, placement)
            takes = _runs_of_sorted(self.topology, nodes)
        self._apply(AllocationRecord(job_id=job_id, nodes=nodes, kind=kind, takes=takes))
        return rank_nodes

    def _gather(self, takes: Takes) -> Tuple[np.ndarray, np.ndarray]:
        """Lowest allocatable ids of each take's leaf: in take order, and ascending.

        One scan of :attr:`allocatable` over the node range the takes
        span, then binary searches for each take's leaf bounds in the
        result, give every leaf's run of free ids; take ``k`` is the
        head of its leaf's run, and all heads are gathered with one
        index array. The ascending ids are those sorted (the same array
        when the leaves ascend: a merge of sorted runs otherwise). One
        take scans only its leaf's slice. ``takes`` are already checked
        against ``leaf_free``, so every run is long enough unless the
        mask drifted from the counters — then this raises instead of
        handing out a neighbouring leaf's nodes.
        """
        offsets = self.topology.leaf_node_offset
        single = takes.single
        if single is not None:
            leaf, count = single
            lo = offsets[leaf]
            free_ids = self.allocatable[lo : offsets[leaf + 1]].nonzero()[0]
            if free_ids.size < count:
                raise AssertionError(f"allocatable mask drifted from leaf_free on leaf {leaf}")
            ids = free_ids[:count]
            ids += lo
            return ids, ids
        leaves, counts = takes.leaves, takes.counts
        leaf_list = leaves.tolist()
        span_lo = offsets[min(leaf_list)]
        free_ids = self.allocatable[span_lo : offsets[max(leaf_list) + 1]].nonzero()[0]
        free_ids += span_lo
        lefts = free_ids.searchsorted(offsets[leaves])
        short = free_ids.searchsorted(offsets[1:][leaves]) - lefts < counts
        if short.any():
            leaf = int(leaves[short.argmax()])
            raise AssertionError(f"allocatable mask drifted from leaf_free on leaf {leaf}")
        # take k is free_ids[lefts[k] : lefts[k] + counts[k]]; build all
        # slice indices at once instead of concatenating per leaf
        ends = counts.cumsum()
        idx = (lefts - (ends - counts)).repeat(counts)
        idx += np.arange(idx.size, dtype=np.int64)
        rank_nodes = free_ids[idx]
        if leaf_list == sorted(leaf_list):
            return rank_nodes, rank_nodes
        # each leaf's block is ascending: a merge of sorted runs
        nodes = rank_nodes.copy()
        nodes.sort(kind="stable")
        return rank_nodes, nodes

    def _check_node_ids(
        self, job_id: int, nodes: Iterable[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """An explicit node-id set as given and sorted, or ``ValueError``."""
        if isinstance(nodes, np.ndarray) and nodes.dtype == np.int64:
            raw = nodes
        else:
            raw = np.asarray([int(n) for n in nodes], dtype=np.int64)
        if raw.size == 0:
            raise ValueError("allocation must contain at least one node")
        node_arr = np.sort(raw)
        if np.any(node_arr[1:] == node_arr[:-1]):
            raise ValueError(
                f"duplicate node ids in allocation for job {job_id} "
                f"({raw.size - np.unique(raw).size} repeated)"
            )
        if node_arr[0] < 0 or node_arr[-1] >= self.topology.n_nodes:
            raise ValueError("node id out of range")
        if np.any(self.node_state[node_arr] != NODE_FREE):
            busy = node_arr[self.node_state[node_arr] != NODE_FREE]
            raise ValueError(f"nodes already busy: {busy[:8].tolist()}")
        if np.any(self.node_avail[node_arr] != AVAIL_UP):
            down = node_arr[self.node_avail[node_arr] != AVAIL_UP]
            raise ValueError(f"nodes unavailable (DOWN/DRAINING): {down[:8].tolist()}")
        return raw, node_arr

    def _apply(self, record: AllocationRecord) -> None:
        """Occupy a checked record's nodes; counters move by its takes."""
        nodes = record.nodes
        self.node_state[nodes] = _KIND_TO_NODE_STATE[record.kind]
        self.node_job[nodes] = record.job_id
        self.allocatable[nodes] = False
        takes = record.takes
        single = takes.single
        leaves, counts = single if single is not None else (takes.leaves, takes.counts)
        self.leaf_free[leaves] -= counts
        if record.kind is JobKind.COMM:
            self.leaf_comm[leaves] += counts
        elif record.kind is JobKind.IO:
            self.leaf_io[leaves] += counts
        self.running[record.job_id] = record
        self._invalidate()

    def _free(self, record: AllocationRecord) -> None:
        """Free a released record's nodes and move the counters back.

        With no DRAINING node anywhere (:attr:`n_draining` is 0) every
        node of the record is UP, so the availability gather is skipped.
        """
        nodes = record.nodes
        self.node_state[nodes] = NODE_FREE
        self.node_job[nodes] = -1
        takes = record.takes
        single = takes.single
        leaves, counts = single if single is not None else (takes.leaves, takes.counts)
        if self.n_draining:
            up = self.node_avail[nodes] == AVAIL_UP
            all_up = up.all()
        else:
            up = all_up = True
        self.allocatable[nodes] = up
        if all_up:
            self.leaf_free[leaves] += counts
        else:
            # nodes that went DRAINING while the job ran park offline
            n_leaves = self.topology.n_leaves
            job_leaves = self.topology.leaf_of_node[nodes]
            self.leaf_free += np.bincount(job_leaves[up], minlength=n_leaves)
            self.leaf_offline += np.bincount(job_leaves[~up], minlength=n_leaves)
        if record.kind is JobKind.COMM:
            self.leaf_comm[leaves] -= counts
        elif record.kind is JobKind.IO:
            self.leaf_io[leaves] -= counts

    def release(self, job_id: int) -> AllocationRecord:
        """Free the nodes of a finished job; raises ``KeyError`` if unknown.

        Nodes that went DRAINING while the job ran are freed into
        ``leaf_offline``, not ``leaf_free`` — they never become
        allocatable again until :meth:`mark_up`.
        """
        record = self.running.pop(job_id)
        self._free(record)
        self._invalidate()
        return record

    def release_many(self, job_ids: Iterable[int]) -> List[AllocationRecord]:
        """Free several finished jobs with one cache invalidation.

        Same-timestamp event batches release every job finishing at one
        clock tick. Release order cannot matter: every job's nodes are
        disjoint (allocation guarantees it) and the per-leaf updates are
        integer sums, so the resulting counters are bit-identical to
        sequential :meth:`release` calls; :attr:`version` is bumped once.

        Raises ``KeyError`` on the first unknown job id and
        ``ValueError`` on an id listed twice; both are checked before
        anything is mutated.
        """
        ids = list(job_ids)
        recs = [self.running[job_id] for job_id in ids]
        if len(set(ids)) != len(ids):
            repeated = next(job_id for k, job_id in enumerate(ids) if job_id in ids[:k])
            raise ValueError(f"job {repeated} is listed more than once")
        if not recs:
            return []
        for record in recs:
            del self.running[record.job_id]
            self._free(record)
        self._invalidate()
        return recs

    # ------------------------------------------------------------------
    # availability (fault subsystem, see repro.faults)
    # ------------------------------------------------------------------

    def _avail_nodes_arg(self, nodes: Iterable[int]) -> np.ndarray:
        node_arr = np.unique(np.asarray([int(n) for n in nodes], dtype=np.int64))
        if node_arr.size == 0:
            return node_arr
        if node_arr[0] < 0 or node_arr[-1] >= self.topology.n_nodes:
            raise ValueError("node id out of range")
        return node_arr

    def jobs_on(self, nodes: Iterable[int]) -> List[int]:
        """Ids of running jobs holding any of ``nodes`` (ascending)."""
        node_arr = self._avail_nodes_arg(nodes)
        if node_arr.size == 0:
            return []
        ids = np.unique(self.node_job[node_arr])
        return ids[ids >= 0].tolist()

    def mark_down(self, nodes: Iterable[int]) -> np.ndarray:
        """Transition ``nodes`` to DOWN; returns the ids actually changed.

        Nodes already DOWN are left alone (overlapping faults are legal
        in user-supplied traces). Occupied nodes are rejected — the
        caller must interrupt/release their jobs first, which is what
        keeps the "no running job on a DOWN node" invariant airtight.
        """
        node_arr = self._avail_nodes_arg(nodes)
        occupied = node_arr[self.node_state[node_arr] != NODE_FREE]
        if occupied.size:
            raise ValueError(
                f"cannot mark occupied nodes DOWN: {occupied[:8].tolist()} "
                "(interrupt their jobs first)"
            )
        take = node_arr[self.node_avail[node_arr] != AVAIL_DOWN]
        if take.size == 0:
            return take
        was_up = take[self.node_avail[take] == AVAIL_UP]
        self.n_draining -= take.size - was_up.size
        self.node_avail[take] = AVAIL_DOWN
        self.allocatable[take] = False
        topo = self.topology
        counts = np.bincount(topo.leaf_of_node[was_up], minlength=topo.n_leaves)
        self.leaf_free -= counts
        self.leaf_offline += counts
        # every DOWN transition (including DRAINING -> DOWN) goes into
        # the per-leaf availability history the fault-aware allocator reads
        self.leaf_faults += np.bincount(topo.leaf_of_node[take], minlength=topo.n_leaves)
        self._invalidate()
        return take

    def mark_drain(self, nodes: Iterable[int]) -> np.ndarray:
        """Transition UP nodes to DRAINING; returns the ids changed.

        A draining node may still be occupied — it finishes its current
        job (``release`` then parks it in ``leaf_offline``) but is never
        handed out again until :meth:`mark_up`. DOWN nodes stay DOWN.
        """
        node_arr = self._avail_nodes_arg(nodes)
        take = node_arr[self.node_avail[node_arr] == AVAIL_UP]
        if take.size == 0:
            return take
        free = take[self.node_state[take] == NODE_FREE]
        self.n_draining += take.size
        self.node_avail[take] = AVAIL_DRAINING
        self.allocatable[free] = False
        topo = self.topology
        counts = np.bincount(topo.leaf_of_node[free], minlength=topo.n_leaves)
        self.leaf_free -= counts
        self.leaf_offline += counts
        self._invalidate()
        return take

    def mark_up(self, nodes: Iterable[int]) -> np.ndarray:
        """Transition DOWN/DRAINING nodes back to UP; returns ids changed."""
        node_arr = self._avail_nodes_arg(nodes)
        take = node_arr[self.node_avail[node_arr] != AVAIL_UP]
        if take.size == 0:
            return take
        free = take[self.node_state[take] == NODE_FREE]
        self.n_draining -= int(np.count_nonzero(self.node_avail[take] == AVAIL_DRAINING))
        self.node_avail[take] = AVAIL_UP
        self.allocatable[free] = True
        topo = self.topology
        counts = np.bincount(topo.leaf_of_node[free], minlength=topo.n_leaves)
        self.leaf_offline -= counts
        self.leaf_free += counts
        self._invalidate()
        return take

    # ------------------------------------------------------------------
    # checkpoint support (engine snapshot/restore)
    # ------------------------------------------------------------------

    def snapshot_dict(self) -> Dict[str, object]:
        """Plain-JSON state for engine checkpoints.

        Only the node-granular arrays, the running set (in insertion
        order — scheduling iterates it), the version counter, and the
        :attr:`leaf_faults` availability history are stored; the other
        per-leaf counters are derived quantities and are rebuilt from
        the arrays on restore, so a checkpoint can never smuggle in a
        counter that violates the class invariants. ``leaf_faults`` is
        genuine history (not derivable from the current arrays), so it
        rides along verbatim; checkpoints written before it existed
        restore with an all-zero history.
        """
        return {
            "node_state": self.node_state.tolist(),
            "node_avail": self.node_avail.tolist(),
            "leaf_faults": self.leaf_faults.tolist(),
            "version": self.version,
            "running": [
                {
                    "job_id": rec.job_id,
                    "nodes": rec.nodes.tolist(),
                    "kind": rec.kind.value,
                }
                for rec in self.running.values()
            ],
        }

    @classmethod
    def from_snapshot_dict(
        cls, topology: TreeTopology, data: Dict[str, object]
    ) -> "ClusterState":
        """Inverse of :meth:`snapshot_dict`; validates every invariant."""
        state = cls(topology)
        node_state = np.asarray(data["node_state"], dtype=np.int8)
        node_avail = np.asarray(data["node_avail"], dtype=np.int8)
        if node_state.shape != (topology.n_nodes,) or node_avail.shape != (
            topology.n_nodes,
        ):
            raise ValueError(
                f"checkpoint state has {node_state.size} nodes; the "
                f"topology has {topology.n_nodes}"
            )
        state.node_state = node_state
        state.node_avail = node_avail
        state.n_draining = int(np.count_nonzero(node_avail == AVAIL_DRAINING))
        free_mask = (node_state == NODE_FREE) & (node_avail == AVAIL_UP)
        state.allocatable = free_mask
        offline_mask = (node_state == NODE_FREE) & (node_avail != AVAIL_UP)
        leaf_of = topology.leaf_of_node
        state.leaf_free = np.bincount(
            leaf_of[free_mask], minlength=topology.n_leaves
        ).astype(np.int64)
        state.leaf_offline = np.bincount(
            leaf_of[offline_mask], minlength=topology.n_leaves
        ).astype(np.int64)
        state.leaf_comm = np.bincount(
            leaf_of[node_state == NODE_COMM], minlength=topology.n_leaves
        ).astype(np.int64)
        state.leaf_io = np.bincount(
            leaf_of[node_state == NODE_IO], minlength=topology.n_leaves
        ).astype(np.int64)
        state.leaf_faults = np.asarray(
            data.get("leaf_faults", np.zeros(topology.n_leaves)), dtype=np.int64
        )
        if state.leaf_faults.shape != (topology.n_leaves,):
            raise ValueError(
                f"checkpoint leaf_faults has {state.leaf_faults.size} leaves; "
                f"the topology has {topology.n_leaves}"
            )
        for rec in data["running"]:
            nodes = np.sort(np.asarray(rec["nodes"], dtype=np.int64))
            record = AllocationRecord(
                job_id=int(rec["job_id"]),
                nodes=nodes,
                kind=JobKind(rec["kind"]),
                takes=_runs_of_sorted(topology, nodes),
            )
            state.running[record.job_id] = record
            state.node_job[record.nodes] = record.job_id
        state.version = int(data["version"])
        state.validate()
        return state

    def copy(self) -> "ClusterState":
        """Independent snapshot sharing the (immutable) topology."""
        clone = ClusterState.__new__(ClusterState)
        clone.topology = self.topology
        clone.node_state = self.node_state.copy()
        clone.node_avail = self.node_avail.copy()
        clone.node_job = self.node_job.copy()
        clone.allocatable = self.allocatable.copy()
        clone.n_draining = self.n_draining
        clone.leaf_offline = self.leaf_offline.copy()
        clone.leaf_free = self.leaf_free.copy()
        clone.leaf_comm = self.leaf_comm.copy()
        clone.leaf_io = self.leaf_io.copy()
        clone.leaf_faults = self.leaf_faults.copy()
        clone.running = dict(self.running)  # records are frozen, share them
        # Caches are never shared: a snapshot starts cold so stale entries
        # cannot leak between a state and its copies (the counterfactual
        # pricing path depends on this).
        clone.version = self.version
        clone._derived_cache = {}
        clone._cost_cache = {}
        return clone

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Assert all counter invariants; raises ``AssertionError`` on drift."""
        topo = self.topology
        free_mask = (self.node_state == NODE_FREE) & (self.node_avail == AVAIL_UP)
        offline_mask = (self.node_state == NODE_FREE) & (self.node_avail != AVAIL_UP)
        free_from_nodes = np.bincount(
            topo.leaf_of_node[free_mask], minlength=topo.n_leaves
        )
        offline_from_nodes = np.bincount(
            topo.leaf_of_node[offline_mask], minlength=topo.n_leaves
        )
        comm_from_nodes = np.bincount(
            topo.leaf_of_node[self.node_state == NODE_COMM], minlength=topo.n_leaves
        )
        io_from_nodes = np.bincount(
            topo.leaf_of_node[self.node_state == NODE_IO], minlength=topo.n_leaves
        )
        assert np.array_equal(free_from_nodes, self.leaf_free), "leaf_free drifted"
        assert np.array_equal(
            offline_from_nodes, self.leaf_offline
        ), "leaf_offline drifted"
        assert np.array_equal(comm_from_nodes, self.leaf_comm), "leaf_comm drifted"
        assert np.array_equal(io_from_nodes, self.leaf_io), "leaf_io drifted"
        assert np.all(self.leaf_free >= 0) and np.all(self.leaf_free <= topo.leaf_sizes)
        assert np.all(self.leaf_offline >= 0)
        assert np.all(self.leaf_comm <= self.leaf_busy), "leaf_comm exceeds leaf_busy"
        assert np.all(self.leaf_io <= self.leaf_busy), "leaf_io exceeds leaf_busy"
        assert np.all(self.leaf_faults >= 0), "leaf_faults went negative"
        assert np.array_equal(self.allocatable, free_mask), "allocatable mask drifted"
        assert self.n_draining == np.count_nonzero(
            self.node_avail == AVAIL_DRAINING
        ), "drain count drifted"
        seen = np.zeros(topo.n_nodes, dtype=bool)
        for record in self.running.values():
            assert record_takes_match(topo, record), (
                f"takes of job {record.job_id} disagree with its nodes"
            )
            assert not seen[record.nodes].any(), "node held by two jobs"
            seen[record.nodes] = True
            assert np.all(
                self.node_job[record.nodes] == record.job_id
            ), f"node_job index drifted for job {record.job_id}"
            assert not np.any(
                self.node_avail[record.nodes] == AVAIL_DOWN
            ), f"running job {record.job_id} occupies a DOWN node"
        assert np.array_equal(seen, self.node_state != NODE_FREE), "running set drifted"
        assert np.array_equal(seen, self.node_job >= 0), "node_job index drifted"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        down = self.total_down + self.total_draining
        offline = f", offline={down}" if down else ""
        return (
            f"ClusterState(free={self.total_free}/{self.topology.n_nodes}, "
            f"jobs={len(self.running)}{offline})"
        )


class CommOverlay:
    """Read-only pricing view: a base state plus one hypothetical job.

    Exposes exactly the surface the Eq. 2-6 kernel reads from a
    :class:`ClusterState` — ``topology``, ``leaf_comm``,
    :meth:`leaf_comm_share`, and the cost cache — without copying any
    node-granular state. Built via :meth:`ClusterState.comm_overlay`,
    which checked :attr:`takes` against the base's allocatable counts,
    so Eq. 6 prices those takes on this view without checking them
    again.

    Cost-cache entries are shared with the base state (keyed by the
    overlay's own allocation) while the base is unmutated, so e.g. the
    default-allocator counterfactual of one job is priced once and
    reused across every allocator of an individual run. If the base
    state has mutated since capture, the view falls back to a private
    cache — its copied counters stay correct, but nothing is written
    into the base's now-unrelated epoch.
    """

    __slots__ = (
        "topology",
        "leaf_comm",
        "takes",
        "_base",
        "_base_version",
        "_okey",
        "_share",
        "_local_cache",
    )

    def __init__(
        self, base: ClusterState, leaf_comm: np.ndarray, takes: Takes, kind: JobKind
    ) -> None:
        self.topology = base.topology
        self.leaf_comm = leaf_comm
        self.leaf_comm.setflags(write=False)
        #: the hypothetical allocation, checked against ``leaf_free`` at capture
        self.takes = takes
        self._base = base
        self._base_version = base.version
        self._okey = (kind.name, takes.key)
        self._share: Optional[np.ndarray] = None
        self._local_cache: Dict[object, float] = {}

    def leaf_comm_share(self) -> np.ndarray:
        """Per-leaf communication share with the overlay job included (Eq. 1)."""
        if self._share is None:
            share = self.leaf_comm / self.topology.leaf_sizes
            share.setflags(write=False)
            self._share = share
        return self._share

    def cost_cache_get(self, key: object) -> Optional[float]:
        """Read through to the base state's Eq. 6 cache unless it went stale."""
        if self._base.version == self._base_version:
            return self._base.cost_cache_get((self._okey, key))
        return self._local_cache.get(key)

    def cost_cache_put(self, key: object, value: float) -> None:
        """Write to the base state's Eq. 6 cache unless it went stale."""
        if self._base.version == self._base_version:
            self._base.cost_cache_put((self._okey, key), value)
        else:
            self._local_cache[key] = value
