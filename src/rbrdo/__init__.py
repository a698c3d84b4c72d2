"""Reliability-based robust design multi-objective optimization.

Couples neighborhood-sampling robustness with inverse-reliability
(most-probable-point) constraint checks inside an evolutionary
multi-objective search, and ships four fully parameterized application
problems with published optima.
"""

from .core import (Bounds, Dominance, EvaluatedSolution, ParetoArchive, Sense,
                   dominates, non_dominated_filter)
from .errors import (DivisionHazardError, FitError, GradientVanishedError,
                     NumericError, RbrdoError, UsageError)
from .formulation import (Candidate, RbrdoProblem, build_mo_problem,
                          build_rbdo_evaluator, evaluate_rbrdo,
                          sweep_robustness)
from .optimize import (DeParams, ModeParams, crowding_distance, de_minimize,
                       fast_non_dominated_sort, mode_optimize,
                       penalized_fitness)
from .reliability import (AsoslParams, MppResult, PerformanceFunction,
                          RandomVariableSpec, asosl_mpp,
                          backtracking_line_search, failure_probability,
                          from_standard_normal, second_order_step_bound,
                          std_normal_cdf, to_standard_normal)
from .robustness import (RobustnessSpec, effective_mean, penalty_robust,
                         type2_feasible)
from .sampling import (NeighborhoodSpec, RngStream, latin_hypercube,
                       neighborhood_samples)
from .stats import FitReport, fit_front, goodness_of_fit, polyfit2

__version__ = "0.1.0"

__all__ = [
    "AsoslParams", "Bounds", "Candidate", "DeParams", "DivisionHazardError",
    "Dominance", "EvaluatedSolution", "FitError", "FitReport",
    "GradientVanishedError", "ModeParams", "MppResult", "NeighborhoodSpec",
    "NumericError", "ParetoArchive", "PerformanceFunction",
    "RandomVariableSpec", "RbrdoError", "RbrdoProblem", "RngStream",
    "RobustnessSpec", "Sense", "UsageError", "asosl_mpp",
    "backtracking_line_search", "build_mo_problem", "build_rbdo_evaluator",
    "crowding_distance", "de_minimize", "dominates", "effective_mean",
    "evaluate_rbrdo", "failure_probability", "fit_front",
    "fast_non_dominated_sort", "from_standard_normal", "goodness_of_fit",
    "latin_hypercube", "mode_optimize", "neighborhood_samples",
    "non_dominated_filter", "penalized_fitness", "penalty_robust",
    "polyfit2", "second_order_step_bound", "std_normal_cdf",
    "sweep_robustness", "to_standard_normal", "type2_feasible",
]
