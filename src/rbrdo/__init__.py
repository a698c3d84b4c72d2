"""Reliability-based robust design multi-objective optimization.

Couples neighborhood-sampling robustness with inverse-reliability
(most-probable-point) constraint checks inside an evolutionary
multi-objective search, and ships four fully parameterized application
problems with published optima.
"""

from .core import Bounds, EvaluatedSolution, ParetoArchive, Sense
from .errors import (FitError, GradientVanishedError, NumericError,
                     RbrdoError, UsageError)
from .formulation import (RbrdoProblem, build_mo_problem, build_rbdo_evaluator,
                          sweep_robustness, sweep_specs)
from .optimize import (DeParams, ModeParams, crowding_distance, de_minimize,
                       fast_non_dominated_sort, mode_optimize)
from .reliability import (AsoslParams, MppResult, PerformanceFunction,
                          asosl_mpp)
from .robustness import RobustnessSpec
from .sampling import RngStream, latin_hypercube, neighborhood_samples
from .stats import FitReport, fit_front, goodness_of_fit, polyfit2

__version__ = "0.1.0"

__all__ = [
    "AsoslParams", "Bounds", "DeParams", "EvaluatedSolution", "FitError",
    "FitReport", "GradientVanishedError", "ModeParams", "MppResult",
    "NumericError", "ParetoArchive",
    "PerformanceFunction", "RbrdoError", "RbrdoProblem", "RngStream",
    "RobustnessSpec", "Sense", "UsageError", "asosl_mpp", "build_mo_problem",
    "build_rbdo_evaluator", "crowding_distance", "de_minimize", "fit_front",
    "fast_non_dominated_sort", "goodness_of_fit", "latin_hypercube",
    "mode_optimize", "neighborhood_samples", "polyfit2", "sweep_robustness",
    "sweep_specs",
]
