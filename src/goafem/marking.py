"""Dörfler marking with minimal cardinality, up to a sort that rounding
cannot flip, and the combined primal/dual selection rule.

The sort costs O(#T log #T) per level, which is negligible at the
scales treated here; a bin-based quasi-minimal selection would bring
this to O(#T) and is the drop-in alternative at extreme scale.
"""

import numpy as np

from .mesh import _element_ids


def _sort_key(eta_sq):
    """``eta_sq`` rounded to 40 mantissa bits: an order last-bit changes do not flip."""
    mantissa, exponent = np.frexp(eta_sq)
    return np.ldexp(np.round(np.ldexp(mantissa, 40)), exponent - 40)


def doerfler_mark(field, theta):
    """Element set U with theta * total^2 <= eta(U)^2, of minimal
    cardinality for the marking parameter theta / (1 - 2^-39).

    Elements are taken by descending :func:`_sort_key`, ties by id, and
    the prefix sums add the exact values; the k-th element taken is at
    least 1 - 2^-39 times the k-th largest.  The ids are returned in that
    order; zero indicators are never marked.  A NaN would sort first and
    make the sum NaN, marking every element, so the squared indicators
    must be finite and non-negative."""
    if not 0.0 < theta <= 1.0:
        raise ValueError("marking parameter theta must be in (0, 1]")
    eta_sq = field.eta_sq
    if not np.all(np.isfinite(eta_sq)) or np.any(eta_sq < 0.0):
        raise ValueError("squared indicators must be finite and non-negative")
    order = np.lexsort((np.arange(eta_sq.shape[0]), -_sort_key(eta_sq)))
    csum = np.cumsum(eta_sq[order])
    total_sq = csum[-1] if csum.size else 0.0
    if total_sq <= 0.0:
        return np.zeros(0, dtype=np.int64)
    k = int(np.searchsorted(csum, theta * total_sq, side="left")) + 1
    return order[:k].astype(np.int64)


def combine_marks(marks_u, marks_z, field_u, field_z):
    """Union of equally sized largest-indicator subsets of both sets.

    With s = min(#Mu, #Mz), the s elements of Mu with the largest primal
    indicator and the s of Mz with the largest dual one, in the order of
    :func:`doerfler_mark`, make up the refinement set (size <= 2s).  Both
    fields must cover the same elements, and both mark sets must hold ids of them.
    """
    if len(field_u) != len(field_z):
        raise ValueError(f"primal and dual fields cover {len(field_u)} and {len(field_z)} "
                         "elements")
    marks_u = _element_ids(marks_u, len(field_u), "primal marks")
    marks_z = _element_ids(marks_z, len(field_z), "dual marks")
    s = min(marks_u.size, marks_z.size)
    if s == 0:
        # one empty Doerfler set means its estimator vanished; the driver
        # terminates before marking in that case, but stay well-defined
        return np.zeros(0, dtype=np.int64)

    def top(marks, eta_sq):
        order = np.lexsort((marks, -_sort_key(eta_sq[marks])))
        return marks[order[:s]]

    # the union, sorted, as a mask over the elements
    union = np.zeros(len(field_u), dtype=bool)
    union[top(marks_u, field_u.eta_sq)] = True
    union[top(marks_z, field_z.eta_sq)] = True
    return np.flatnonzero(union)
