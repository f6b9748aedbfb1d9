"""The two benchmark problems driving the convergence experiments.

Problem ``goal-singularity``: unit square, A = I, b = x, c = 1, with the
right-hand side manufactured so that u*(x) = x1 x2 (1 - x1)(1 - x2), and
the goal functional G(v) = int_K dv/dx1 over the corner triangle
K = conv{(1/2, 1), (1, 1/2), (1, 1)}.  The goal data is the
characteristic function chi_K (1, 0), whose support boundary induces two
point singularities in the dual solution.  For this u* the exact goal
value is -11/960 (the magnitude 11/960 is usually quoted; the sign
follows from du*/dx1 <= 0 on K).

Problem ``zshape-convection``: square (-1,1)^2 minus the wedge
conv{(0,0), (-1,0), (-1,-1)}, A = I, strong convection b = (5,5)^T,
c = 0, f = 1, mixed Dirichlet/Neumann boundary, goal data
chi_S (1, 1) with S = (-1/2, 1/2)^2 intersected with the domain.  No
exact solution or goal value is available.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .problem import ProblemData

EXACT_GOAL_SINGULARITY = -11.0 / 960.0


def exact_solution_problem1(x):
    x1, x2 = x[..., 0], x[..., 1]
    return x1 * x2 * (1.0 - x1) * (1.0 - x2)


def exact_gradient_problem1(x):
    x1, x2 = x[..., 0], x[..., 1]
    p = x1 * (1.0 - x1)
    q = x2 * (1.0 - x2)
    return np.stack([(1.0 - 2.0 * x1) * q, p * (1.0 - 2.0 * x2)], axis=-1)


def manufacture_rhs_problem1():
    """f = -Lap(u*) + x . grad(u*) + u* for the manufactured solution."""

    def f(x):
        x1, x2 = x[..., 0], x[..., 1]
        p = x1 * (1.0 - x1)
        q = x2 * (1.0 - x2)
        return (2.0 * (p + q)
                + x1 * (1.0 - 2.0 * x1) * q
                + x2 * (1.0 - 2.0 * x2) * p
                + p * q)

    return f


def characteristic_goal_data(problem_id):
    """Goal data (g, g_vec) of a benchmark; points on the support
    boundary count as inside (closed-set convention)."""
    if problem_id == "goal-singularity":

        def g_vec(x):
            inside = (x[..., 0] + x[..., 1]) >= 1.5
            out = np.zeros(x.shape)
            out[..., 0] = inside
            return out

        return 0.0, g_vec
    if problem_id == "zshape-convection":

        def g_vec(x):
            inside = (np.abs(x[..., 0]) <= 0.5) & (np.abs(x[..., 1]) <= 0.5)
            out = np.zeros(x.shape)
            out[..., 0] = inside
            out[..., 1] = inside
            return out

        return 0.0, g_vec
    raise ValueError(f"unknown benchmark {problem_id!r}")


@dataclass
class BenchmarkSpec:
    problem_id: str
    problem: ProblemData
    exact_goal: Optional[float] = None
    exact_grad_u: Optional[Callable] = None


def get_benchmark(problem_id):
    if problem_id == "goal-singularity":
        g, g_vec = characteristic_goal_data(problem_id)
        problem = ProblemData(
            domain="unit-square",
            A=np.eye(2),
            b_conv=lambda x: x,
            c=1.0,
            div_b=2.0,
            f=manufacture_rhs_problem1(),
            f_vec=(0.0, 0.0),
            g=g,
            g_vec=g_vec,
            initial_refinements=1,
        )
        return BenchmarkSpec(
            problem_id=problem_id,
            problem=problem,
            exact_goal=EXACT_GOAL_SINGULARITY,
            exact_grad_u=exact_gradient_problem1,
        )
    if problem_id == "zshape-convection":
        g, g_vec = characteristic_goal_data(problem_id)
        problem = ProblemData(
            domain="zshape",
            A=np.eye(2),
            b_conv=(5.0, 5.0),
            c=0.0,
            div_b=0.0,
            f=1.0,
            f_vec=(0.0, 0.0),
            g=g,
            g_vec=g_vec,
        )
        return BenchmarkSpec(problem_id=problem_id, problem=problem)
    raise ValueError(f"unknown benchmark {problem_id!r}")


BENCHMARKS = ("goal-singularity", "zshape-convection")
