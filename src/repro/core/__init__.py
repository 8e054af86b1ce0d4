"""The paper's analytical core: Problems P1, P2 and the feasibility conditions.

Public surface:

* Problem P1 — worst-case m-ary tree search cost ``xi(k, t)``:
  :func:`xi_exact` (ground-truth DP on Eq. 1), :func:`xi_divide_conquer`
  (Eq. 2-4), :func:`xi_closed_form` (Eq. 10), :func:`xi_linear_regime`
  (Eq. 15), and the asymptotic tight upper bound :func:`xi_tilde` (Eq. 11)
  with tightness measurements (Eq. 12-14).
* Problem P2 — multiple consecutive trees: :func:`multi_tree_bound`
  (Eq. 19) and the exhaustive :func:`multi_tree_exact_optimum` (Eq. 16).
* Feasibility conditions — :func:`check_feasibility` and
  :func:`latency_bound` (``B_DDCR``, section 4.3), plus the fast path:
  profile-deduplicated :func:`check_feasibility_batch` /
  :func:`feasibility_grid`, the incremental :class:`FeasibilityEngine`,
  and the persistent xi-table store in :mod:`repro.core.xi_store` — all
  value-identical to the scalar oracle.
"""

from repro.core.asymptotic import (
    GapReport,
    measure_gap,
    tightness_constant,
    touch_points,
    universal_tightness_constant,
    xi_tilde,
    xi_tilde_extended,
)
from repro.core.closed_form import (
    xi_closed_form,
    xi_even_closed_form,
    xi_linear_regime,
)
from repro.core.divide_conquer import (
    divide_conquer_table,
    xi_divide_conquer,
    xi_even_increment,
    xi_full,
    xi_knee,
    xi_two,
)
from repro.core import xi_store
from repro.core.composition import (
    HopBound,
    RouteBound,
    SegmentAnalysis,
    compose_route_bound,
)
from repro.core.feas_engine import FeasibilityEngine
from repro.core.feas_grid import (
    BatchEvaluator,
    FeasibilityGrid,
    check_feasibility_batch,
    feasibility_grid,
)
from repro.core.feasibility import (
    ClassFeasibility,
    FeasibilityReport,
    TreeParameters,
    check_feasibility,
    interference_bound,
    latency_bound,
    max_feasible_scale,
    queue_rank_bound,
    static_tree_count,
)
from repro.core.multi_tree import (
    MultiTreeOptimum,
    multi_tree_bound,
    multi_tree_bound_even_split,
    multi_tree_bound_extended,
    multi_tree_exact_optimum,
)
from repro.core.optimal_branching import (
    BranchingComparison,
    admissible_degrees,
    compare_degrees,
    dominates,
    optimal_degree,
)
from repro.core.search_cost import (
    SearchCostTable,
    SearchOutcome,
    enumerate_worst_placements,
    exact_cost_table,
    heavy_search_bound,
    nondestructive_cost_table,
    simulate_search,
    worst_case_placement,
    xi_bruteforce,
    xi_exact,
    xi_nondestructive,
)
from repro.core.trees import (
    BalancedTree,
    LeafInterval,
    TreeShapeError,
    ceil_log,
    floor_log,
    geometric_sum,
    integer_log,
    is_power_of,
)

__all__ = [
    # trees
    "BalancedTree",
    "LeafInterval",
    "TreeShapeError",
    "ceil_log",
    "floor_log",
    "geometric_sum",
    "integer_log",
    "is_power_of",
    # P1 exact
    "SearchCostTable",
    "SearchOutcome",
    "enumerate_worst_placements",
    "exact_cost_table",
    "simulate_search",
    "worst_case_placement",
    "xi_bruteforce",
    "xi_exact",
    "xi_nondestructive",
    "nondestructive_cost_table",
    "heavy_search_bound",
    "divide_conquer_table",
    "xi_divide_conquer",
    "xi_even_increment",
    "xi_full",
    "xi_knee",
    "xi_two",
    "xi_closed_form",
    "xi_even_closed_form",
    "xi_linear_regime",
    # P1 asymptotic
    "GapReport",
    "measure_gap",
    "tightness_constant",
    "touch_points",
    "universal_tightness_constant",
    "xi_tilde",
    "xi_tilde_extended",
    # P2
    "MultiTreeOptimum",
    "multi_tree_bound",
    "multi_tree_bound_even_split",
    "multi_tree_bound_extended",
    "multi_tree_exact_optimum",
    # branching selection
    "BranchingComparison",
    "admissible_degrees",
    "compare_degrees",
    "dominates",
    "optimal_degree",
    # feasibility
    "ClassFeasibility",
    "FeasibilityReport",
    "TreeParameters",
    "check_feasibility",
    "interference_bound",
    "latency_bound",
    "max_feasible_scale",
    "queue_rank_bound",
    "static_tree_count",
    # multi-hop composition
    "HopBound",
    "RouteBound",
    "SegmentAnalysis",
    "compose_route_bound",
    # feasibility fast path
    "BatchEvaluator",
    "FeasibilityEngine",
    "FeasibilityGrid",
    "check_feasibility_batch",
    "feasibility_grid",
    "xi_store",
]
