"""Problem data for the nonsymmetric second-order model problem.

The strong form is

    -div(A grad u) + b . grad u + c u = f - div(f_vec)   in Omega,
    u = 0 on the Dirichlet boundary,

with the goal functional G(v) = int(g v + g_vec . grad v).  Coefficient
fields are either constants (scalar, length-2 vector, 2x2 matrix) or
callables mapping an (..., 2) point array to values of the matching
shape.  ``div_b`` must be supplied analytically whenever the dual
residual needs it; it is never obtained by numerical differentiation.
"""

import numbers
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

Scalar = Union[float, Callable]
Vector = Union[np.ndarray, tuple, list, Callable]
Matrix = Union[np.ndarray, Callable]


def eval_scalar(f, x):
    """Evaluate a scalar field at points x of shape (..., 2)."""
    if callable(f):
        return np.broadcast_to(np.asarray(f(x), dtype=float), x.shape[:-1]).copy()
    return np.full(x.shape[:-1], float(f))


def eval_vector(f, x):
    """Evaluate a vector field at points x of shape (..., 2)."""
    if callable(f):
        out = np.asarray(f(x), dtype=float)
        return np.broadcast_to(out, x.shape).copy()
    arr = np.asarray(f, dtype=float).reshape(2)
    return np.broadcast_to(arr, x.shape).copy()


def eval_matrix(f, x):
    """Evaluate a matrix field at points x of shape (..., 2)."""
    if callable(f):
        out = np.asarray(f(x), dtype=float)
        return np.broadcast_to(out, x.shape[:-1] + (2, 2)).copy()
    arr = np.asarray(f, dtype=float).reshape(2, 2)
    return np.broadcast_to(arr, x.shape[:-1] + (2, 2)).copy()


def is_zero(f):
    if callable(f):
        return False
    return not np.any(np.asarray(f, dtype=float))


@dataclass(frozen=True)
class ProblemData:
    """Coefficients and data of the primal/dual problem pair."""

    domain: str = "unit-square"
    A: Matrix = field(default_factory=lambda: np.eye(2))
    b_conv: Vector = (0.0, 0.0)
    c: Scalar = 0.0
    div_b: Scalar = 0.0
    f: Scalar = 0.0
    f_vec: Vector = (0.0, 0.0)
    g: Scalar = 0.0
    g_vec: Vector = (0.0, 0.0)
    # optional analytic divergences of the flux data; pointwise zero is
    # assumed when omitted (exact for the piecewise-constant benchmarks)
    div_f_vec: Scalar = 0.0
    div_g_vec: Scalar = 0.0
    # uniform refinements applied to the coarse domain mesh to form T_0;
    # a T_0 without free dofs is refined like any other level
    initial_refinements: int = 0

    def __post_init__(self):
        n = self.initial_refinements
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 0:
            raise ValueError("initial_refinements must be a non-negative integer")

    def spd_spot_check(self, points):
        """Verify symmetry and positive definiteness of A at sample points."""
        a = eval_matrix(self.A, np.asarray(points, dtype=float))
        sym = np.allclose(a, np.swapaxes(a, -1, -2), rtol=0.0, atol=1e-12)
        tr = a[..., 0, 0] + a[..., 1, 1]
        det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
        return bool(sym and np.all(tr > 0.0) and np.all(det > 0.0))
