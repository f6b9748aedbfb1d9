"""Quadrature rules on the reference triangle and the unit interval.

The rules are cached and shared by every caller, so their arrays are
read-only.
"""

from functools import lru_cache

import numpy as np


def _read_only(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def triangle_rule(degree):
    """Rule on the reference triangle, exact for polynomials of ``degree``.

    Built from a tensor Gauss rule through the Duffy transform
    x = (xi, eta (1 - xi)) with Jacobian (1 - xi); the extra factor
    raises the xi-degree by one, hence n = ceil((degree + 2) / 2) points
    per direction suffice.  Returns barycentric points (nq, 3) and
    weights summing to the reference area 1/2.
    """
    n = max(1, -(-(degree + 2) // 2))
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    xi = np.repeat(x, n)
    eta = np.tile(x, n) * (1.0 - xi)
    weights = (np.repeat(w, n) * np.tile(w, n)) * (1.0 - xi)
    bary = np.stack([1.0 - xi - eta, xi, eta], axis=1)
    return _read_only(bary), _read_only(weights)


@lru_cache(maxsize=None)
def interval_rule(degree):
    """Gauss rule on [0, 1], exact for polynomials of ``degree``."""
    n = max(1, -(-(degree + 1) // 2))
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only(0.5 * (x + 1.0)), _read_only(0.5 * w)
