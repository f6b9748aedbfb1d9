"""Goal-oriented adaptive FEM with iterative symmetrization.

Nonsymmetric second-order elliptic problems are solved adaptively for a
linear quantity of interest: per mesh the primal and dual problems are
symmetrized by a damped fixed-point iteration, each symmetric correction
problem is treated by a contractive local multigrid step, and combined
Doerfler marking with newest-vertex bisection drives the refinement.
"""

from .assemble import AssembledSystem, assemble, energy_norm, goal_value, solve_direct
from .benchmarks import (BENCHMARKS, BenchmarkSpec, characteristic_goal_data,
                         get_benchmark, manufacture_rhs_problem1)
from .driver import AdaptiveParams, HistoryRecord, RunResult, run, solve_estimate
from .estimator import EstimatorWorkspace, IndicatorField, indicators, subset_total
from .marking import combine_marks, doerfler_mark
from .mesh import (DIRICHLET, NEUMANN, MeshHierarchy, Triangulation, initial_mesh,
                   is_conforming, min_angle, refine, uniform_refine)
from .multigrid import MultilevelPreconditioner, build_preconditioner, psi_step
from .problem import ProblemData
from .space import DiscreteFunction, FeSpace, build_space, prolong, zero_function
from .zarantonello import exact_phi, zarantonello_rhs

__all__ = [
    "AdaptiveParams", "AssembledSystem", "BENCHMARKS", "BenchmarkSpec",
    "DIRICHLET", "DiscreteFunction", "EstimatorWorkspace", "FeSpace",
    "HistoryRecord", "IndicatorField", "MeshHierarchy",
    "MultilevelPreconditioner", "NEUMANN", "ProblemData", "RunResult",
    "Triangulation", "assemble", "build_preconditioner", "build_space",
    "characteristic_goal_data", "combine_marks", "doerfler_mark",
    "energy_norm", "exact_phi", "get_benchmark", "goal_value",
    "indicators", "initial_mesh", "is_conforming",
    "manufacture_rhs_problem1", "min_angle", "prolong", "psi_step", "refine",
    "run", "solve_direct", "solve_estimate", "subset_total", "uniform_refine",
    "zarantonello_rhs", "zero_function",
]

__version__ = "0.1.0"
