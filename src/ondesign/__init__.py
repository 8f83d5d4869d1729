"""Online network design algorithms with HST charging-scheme verification."""

from .errors import OndesignError
from .metric import (
    MetricSpace,
    MultiGraphSolution,
    RequestRecord,
    RequestSequence,
    RunTrace,
    build_metric,
    check_feasible,
    load_instance,
    solution_cost,
)
from .hst import (
    Forest,
    Hst,
    Terminals,
    extend_singleton_levels,
    sample_frt,
    tree_distance,
    validate_hst,
)
from .tree_opt import (
    opt_tree_pcst,
    opt_tree_rob_multi,
    opt_tree_rob_single,
    opt_tree_steiner_forest,
    opt_tree_steiner_network,
    opt_tree_steiner_tree,
)
from .steiner import (
    check_class_separation,
    check_metagraph_acyclic,
    run_bc_sf,
    run_greedy_st,
    run_sn,
)
from .rentorbuy import check_cut_capacity, check_mrob_witnesses, check_srob_witnesses, run_mrob, run_srob
from .cfl import check_cfl_invariants, run_cfl
from .prize import check_pcst_invariants, check_pcst_run_invariants, run_pcst
from .exact import (
    dreyfus_wagner_st,
    exact_cfl,
    exact_fl,
    exact_mrob,
    exact_pcst,
    exact_sf,
    exact_sn_tiny,
    exact_srob,
)
from .generators import gen_diamond_lb, gen_euclidean, gen_graph_metric, gen_requests
from .verify import embed_report, exact_optimum, run_problem, verify_run

__version__ = "0.1.0"
