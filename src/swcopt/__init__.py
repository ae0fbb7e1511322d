"""Constraint sampling for multistage robust linear programs via the
scenario-with-certificates construction, with exact vertex-tree references,
a lower-bound hierarchy, and Monte Carlo violation validation."""

from .model import (
    AffineMap,
    BoxSupport,
    DiscreteSupport,
    IntegerBoxSupport,
    MultistageRobustLP,
    ScenarioPath,
    ScenarioPaths,
    StageBlock,
    StageDims,
    UncertaintySet,
    evaluate_coefficients,
    stage_vertices,
    validate,
)
from .sampling import ScenarioPrefixTree, build_prefix_tree, draw_paths
from .complexity import binomial_violation_bound, min_samples_exact, sample_complexity
from .lp import LPBuilder, LPInstance, SolveResult, SolverError, Status, get_solver, solve_highs
from .simplex import BuiltinSizeLimitError, solve_builtin
from .interchange import (
    parse_interchange,
    parse_solution,
    solve_external,
    write_interchange,
    write_solution,
)
from .builders import (
    VariableIndexMap,
    build_deterministic,
    build_swc,
    exact_value,
    scenario_costs,
    solve_swc_paths,
    sws_value,
    swct_value,
    vertex_paths,
)
from .validation import (
    ExperimentReport,
    InstanceResult,
    certificate_feasible,
    empirical_violation,
    optimality_gap,
    run_experiment,
    rvpi,
)
from .inventory import (
    InventoryData,
    build_coc,
    inventory_benchmark,
    nominal_demand,
    run_paper_grid,
    table_data,
)
from .problem_io import load_problem, save_problem

__version__ = "0.1.0"
