"""Tree / fat-tree network topology substrate (paper §3.2, §5.2)."""

from .entities import NodeSpec, SwitchSpec
from .tree import SwitchInfo, TopologyError, TreeTopology
from .config import load_topology_conf, parse_topology_conf, write_topology_conf
from .hostlist import HostlistError, compress_hostlist, expand_hostlist
from .describe import describe_topology, topology_summary
from .random import random_leaf_sizes, random_tree
from .builders import (
    TOPOLOGY_BUILDERS,
    cori_like,
    fat_tree,
    dept_cluster,
    iitk_hpc2010,
    intrepid_like,
    mira_like,
    theta_like,
    three_level_tree,
    tree_from_leaf_sizes,
    two_level_tree,
)

__all__ = [
    "NodeSpec",
    "SwitchSpec",
    "SwitchInfo",
    "TopologyError",
    "TreeTopology",
    "load_topology_conf",
    "parse_topology_conf",
    "write_topology_conf",
    "HostlistError",
    "compress_hostlist",
    "expand_hostlist",
    "describe_topology",
    "topology_summary",
    "random_leaf_sizes",
    "random_tree",
    "TOPOLOGY_BUILDERS",
    "cori_like",
    "fat_tree",
    "dept_cluster",
    "iitk_hpc2010",
    "intrepid_like",
    "mira_like",
    "theta_like",
    "three_level_tree",
    "tree_from_leaf_sizes",
    "two_level_tree",
]
