"""Zarantonello symmetrization: the fixed-point map onto SPD systems.

One outer step replaces the nonsymmetric problem by the symmetric
correction problem

    a(Phi(w), v) = a(w, v) + delta [F(v) - b(w, v)],

whose right-hand side is affine in the current iterate w.  The dual map
uses b(v, .) and G, i.e. the transposed matrix.  The inexact step used
by the adaptive driver is the composition of this right-hand side with
the contractive algebraic solver; ``exact_phi`` is the direct-solve
oracle used in tests.
"""

import numpy as np

from .assemble import _matvec
from .space import DiscreteFunction


def zarantonello_rhs(system, which, w, delta):
    """Load vector of the symmetric correction problem."""
    if not 0.0 <= delta < np.inf:
        raise ValueError("damping parameter delta must be finite and nonnegative")
    x = w.values if isinstance(w, DiscreteFunction) else np.asarray(w, dtype=float)
    if x.shape != (system.n,):
        raise ValueError("iterate does not match system size")
    if which == "primal":
        return _matvec(system.A_sym, x) + delta * (system.F_vec - _matvec(system.B, x))
    if which == "dual":
        return _matvec(system.A_sym, x) + delta * (system.G_vec - _matvec(system.B.T, x))
    raise ValueError("which must be 'primal' or 'dual'")


def exact_phi(system, which, w, delta):
    """Direct solve of the correction problem (test oracle)."""
    rhs = zarantonello_rhs(system, which, w, delta)
    return DiscreteFunction(system.space, system.solve_spd(rhs))
