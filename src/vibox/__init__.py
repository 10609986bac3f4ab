"""Variational inequalities over box sets: normal-map solver, existence
certificates with brute-force oracles, and quadratic-game analysis."""

__version__ = "0.1.0"

from .model import (BoxSet, ConfigurationError, EvaluationError, Mapping, VIProblem,
                    affine_mapping, fd_jacobian, jacobian, make_game)
from .projection import box_midpoint, draw_samples, project, projection_jacobian_element
from .normal_map import NormalMapEval, coercivity_probe, normal_map, normal_map_jacobian_element
from .solver import SolveResult, classify, multistart, solve
from .certificates import (CONDITIONS, BudgetError, CertificateReport, block_pfunction_search,
                           boundary_sample_set, certify_problem, coercivity_check, growth_l0lp_fit,
                           hessian_block_convexity, maximal_rank_tsearch, p_upsilon_check,
                           pl_condition_check, pmatrix_minors, pmatrix_oracle, pmatrix_sampled,
                           uniform_pfunction_search, uniform_pmatrix_sampled, upsilon_build)
from .registry import REGISTRY, builtin_mapping, get_problem, problem_ids
from .problem_io import ProblemFileError, load_problem, problem_from_dict, problem_to_dict, \
    save_problem
