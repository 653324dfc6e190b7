"""Block-coordinate ADMM for nonconvex problems with multiaffine constraints."""

from .diagnostics import (AssumptionReport, StationarityEstimate,
                          assert_iteration, check_assumptions,
                          run_counterexample, stationarity)
from .errors import BuildError, ShapeMismatchError, SubproblemError
from .matio import load_matrix, save_matrix
from .operators import (BroadcastOnes, DenseOp, DiagExtract, LinearOp,
                        ScaledIdentity, TransposeOp)
from .prox import (L1, IndicatorBox, IndicatorNonneg, IndicatorUnitColumns,
                   ObjectiveTerm, Quadratic, SmoothCustom, project_box,
                   project_nonneg, project_unit_columns, prox_block_step,
                   quad_block_solve, soft_threshold)
from .solver import (STATUS_CONVERGED, STATUS_DIVERGED, STATUS_MAXITER,
                     IterTrace, Problem, SolverState, Violation,
                     add_prox_constraint, augmented_lagrangian,
                     lambda_min_pos, rho_lower_bound, solve, step)
from .system import (BlockId, Constant, Conv2D, FrozenLinearForm, HadamardPair,
                     LinearTerm, MatChain, MultiaffineSystem, circ_conv2,
                     evaluate, freeze, jacobian_image_basis, stack_residual)
from .zoo import (ZooInstance, cut_value, default_instance, dl3, gen_dl_data,
                  gen_nmf_data, gen_rp_data, gen_rpca_data, gen_sbd_data,
                  mc1, nmf3, rp2, rpca2, sbd0, sbd1, triangle_graph,
                  zoo_names)

__all__ = [
    "AssumptionReport", "BlockId", "BroadcastOnes", "BuildError", "Constant",
    "Conv2D", "DenseOp", "DiagExtract", "FrozenLinearForm",
    "HadamardPair", "IndicatorBox", "IndicatorNonneg", "IndicatorUnitColumns",
    "IterTrace", "L1", "LinearOp", "LinearTerm", "MatChain",
    "MultiaffineSystem", "ObjectiveTerm", "Problem", "Quadratic",
    "STATUS_CONVERGED", "STATUS_DIVERGED", "STATUS_MAXITER", "ScaledIdentity",
    "ShapeMismatchError", "SmoothCustom", "SolverState",
    "StationarityEstimate", "SubproblemError", "TransposeOp", "Violation",
    "ZooInstance", "add_prox_constraint", "assert_iteration",
    "augmented_lagrangian", "check_assumptions", "circ_conv2", "cut_value",
    "default_instance", "dl3", "evaluate", "freeze", "gen_dl_data",
    "gen_nmf_data", "gen_rp_data", "gen_rpca_data", "gen_sbd_data",
    "jacobian_image_basis", "lambda_min_pos", "load_matrix", "mc1", "nmf3",
    "project_box", "project_nonneg", "project_unit_columns",
    "prox_block_step", "quad_block_solve", "rho_lower_bound", "rp2", "rpca2", "run_counterexample",
    "save_matrix", "sbd0", "sbd1", "soft_threshold", "solve", "stack_residual",
    "stationarity", "step", "triangle_graph", "zoo_names",
]
