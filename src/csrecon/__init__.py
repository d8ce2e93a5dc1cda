"""Reconfiguration of c-colorable vertex sets.

Exact shortest addition/removal and swap reconfiguration on interval graphs,
fixed-budget reachability on split graphs, a brute-force BFS oracle, and
generators for three hardness constructions, all sharing the csr/1 file
format.
"""

from .core import (
    FormatError,
    Graph,
    IntervalModel,
    InvariantError,
    ResourceLimitError,
    SplitModel,
    check_sets,
    interval_clique_counts,
    is_colorable_exact,
    model_from_intervals,
    split_partition,
)
from .instances import (
    Instance,
    ReconSequence,
    VerifyResult,
    check_instance,
    parse_instance,
    parse_sequence,
    render_instance,
    render_sequence,
    tar_to_tj,
    verify_sequence,
)
from .interval_recon import (
    DistanceVerdict,
    shortest_tar_sequence,
    tar_distance,
    tj_distance,
    tj_sequence,
)
from .oracle import (
    ConnectivityReport,
    StateSpace,
    enumerate_colorable_sets,
    oracle_connectivity_report,
    oracle_distance,
)
from .reductions import (
    CocompReductionOutput,
    JoinOutput,
    SplitReductionOutput,
    check_cocomp_order,
    isr_to_split_csr,
    oct_to_colorable_set,
    spr_to_cocomp_csr,
)
from .split_recon import (
    MetaGraph,
    build_meta_graph,
    split_tar_reachable,
    split_tar_witness,
    t_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
