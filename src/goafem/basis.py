"""Lagrange basis functions on the reference triangle in barycentric form.

Each basis function is a short sum of monomials in the barycentric
coordinates (l0, l1, l2), so values and derivatives with respect to the
barycentric coordinates follow from exponent manipulation alone.  The
chain rule with the (constant) physical gradients of the barycentric
coordinates then gives physical gradients and Hessians.

The tables at quadrature points are the same on every mesh, so
:func:`triangle_tables` and :func:`edge_grad_tables` build them once
per (degree, rule) and hand out read-only arrays.
"""

from functools import lru_cache

import numpy as np

from .quadrature import _read_only, interval_rule, triangle_rule


class LagrangeBasis:
    """Nodal basis of total degree p on the reference triangle.

    Local node order: the three vertices, then per local edge
    (1,2), (2,0), (0,1) its p-1 interior nodes ordered from the first
    vertex of the pair, then the interior node (p = 3).
    """

    def __init__(self, p):
        if p not in (1, 2, 3):
            raise ValueError("polynomial degree must be 1, 2 or 3")
        self.p = p
        self.nodes, self._monomials = _build(p)
        self.n = len(self._monomials)

    def eval(self, bary):
        """Values at barycentric points; shape (..., n)."""
        return _values(self._monomials, np.asarray(bary))

    def grad_bary(self, bary):
        """Derivatives w.r.t. (l0, l1, l2); shape (..., n, 3)."""
        bary = np.asarray(bary)
        return np.stack([_values([_diff(m, d) for m in self._monomials], bary)
                         for d in range(3)], axis=-1)

    def hess_bary(self, bary):
        """Second derivatives w.r.t. barycentric pairs; shape (..., n, 3, 3)."""
        bary = np.asarray(bary)
        return np.stack([np.stack([_values([_diff(_diff(m, d1), d2) for m in self._monomials],
                                           bary) for d2 in range(3)], axis=-1)
                         for d1 in range(3)], axis=-2)


def _diff(mono, d):
    """Derivative of a sum of monomials (coefficient, exponents) w.r.t. l_d."""
    return [(c * e[d], tuple(k - (i == d) for i, k in enumerate(e))) for c, e in mono if e[d]]


def _values(monos, bary):
    out = np.zeros(bary.shape[:-1] + (len(monos),))
    for k, mono in enumerate(monos):
        for c, e in mono:
            out[..., k] += c * _power(bary, e)
    return out


def _power(bary, e):
    res = np.ones(bary.shape[:-1])
    for d in range(3):
        if e[d]:
            res = res * bary[..., d] ** e[d]
    return res


def _exp(*factors):
    """Exponents of the product of the l_i with i in ``factors``."""
    return tuple(factors.count(d) for d in range(3))


def _build(p):
    nodes = [list(row) for row in np.eye(3)]
    if p == 1:
        return np.array(nodes), [[(1.0, _exp(i))] for i in range(3)]

    edges = [(1, 2), (2, 0), (0, 1)]
    if p == 2:
        # l_i (2 l_i - 1) at the vertices, 4 l_a l_b at the edge midpoints
        monos = [[(2.0, _exp(i, i)), (-1.0, _exp(i))] for i in range(3)]
        for a, b in edges:
            n = [0.0, 0.0, 0.0]
            n[a] = n[b] = 0.5
            nodes.append(n)
            monos.append([(4.0, _exp(a, b))])
        return np.array(nodes), monos

    # p == 3: l_i (3 l_i - 1)(3 l_i - 2) / 2 = (9 l_i^3 - 9 l_i^2 + 2 l_i) / 2
    monos = [[(4.5, _exp(i, i, i)), (-4.5, _exp(i, i)), (1.0, _exp(i))] for i in range(3)]
    for a, b in edges:
        for first, second in ((a, b), (b, a)):
            n = [0.0, 0.0, 0.0]
            n[first] = 2.0 / 3.0
            n[second] = 1.0 / 3.0
            nodes.append(n)
            # (9/2) l_a l_b (3 l_first - 1)
            monos.append([(13.5, _exp(a, b, first)), (-4.5, _exp(a, b))])
    nodes.append([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])
    monos.append([(27.0, (1, 1, 1))])
    return np.array(nodes), monos


@lru_cache(maxsize=None)
def lagrange_basis(p):
    return LagrangeBasis(p)


@lru_cache(maxsize=None)
def triangle_tables(p, degree):
    """Values (nq, n), barycentric gradients (nq, n, 3) and Hessians
    (nq, n, 3, 3) of the degree-p basis at ``triangle_rule(degree)``."""
    basis = lagrange_basis(p)
    bary = triangle_rule(degree)[0]
    return tuple(_read_only(t(bary)) for t in (basis.eval, basis.grad_bary, basis.hess_bary))


@lru_cache(maxsize=None)
def edge_grad_tables(p, degree):
    """Barycentric gradients of the degree-p basis at ``interval_rule(degree)``
    along each local edge: entry 3 a + b, (nq, n, 3), runs from local
    vertex a to local vertex b (zeros for a = b)."""
    basis = lagrange_basis(p)
    t = interval_rule(degree)[0]
    tabs = np.zeros((9, t.shape[0], basis.n, 3))
    for a in range(3):
        for b in range(3):
            if a != b:
                bpts = np.zeros((t.shape[0], 3))
                bpts[:, a] = 1.0 - t
                bpts[:, b] = t
                tabs[3 * a + b] = basis.grad_bary(bpts)
    return _read_only(tabs)
