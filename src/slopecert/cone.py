"""Closed-form minimum of dominant integral weights in a gap cone.

Write a weight table in gap coordinates d[sigma][i] = k[sigma][i] -
k[sigma][i+1] for i < rank and d[sigma][rank] = k[sigma][rank]; dominance is
d >= 0, and the total coordinate sum is sum_sigma sum_i i * d[sigma][i].  A
gap cone has three kinds of strict rational lower bound:

* one bound on every gap d[sigma][i];
* a bound on each column-gap sum sum_sigma d[sigma][i];
* a bound on the total coordinate sum.

``cone_find`` returns the first point of such a cone in the order: total
coordinate sum ascending, then coordinates in reading order (row 1 left to
right, then row 2, ...) lexicographically ascending.  Among dominant points
of equal sum this prefers the most balanced tail (largest trailing
coordinates), and it makes every certificate that embeds a cone witness
reproducible.  The first point has a closed form:

1. with g the smallest allowed gap and D_i the smallest column-gap sum
   allowed by both its own bound and m * g, the smallest total is
   sum_i i * D_i, or the smallest integer above the total bound if larger;
2. rows 1..m-1 sit at gap g everywhere: moving any excess at gap index i to
   row m keeps every column-gap sum and the total and lowers an earlier
   row;
3. row m takes the rest of the total, and its entries are fixed left to
   right, each the smallest value from which the remaining entries can
   still reach the row sum (one ceiling division per coordinate).

The cone has no ceiling: however deep the bounds push the first point,
finding it takes O(rank^2) integer operations.  The only bound on the size
of the weights is the exact int64 range of the candidate kernel that later
reads them (``kernels._exact_rows``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .lattice import WeightTable


def _int_above(b) -> int:
    """Smallest integer strictly greater than b, an int or a Fraction."""
    return b.numerator // b.denominator + 1


def cone_find(
    rank: int,
    embeddings: int = 1,
    *,
    gap: Optional[Fraction] = None,
    column_gaps: Sequence = (),
    total: Optional[Fraction] = None,
) -> WeightTable:
    """First dominant integral weight table of a gap cone, in the module's order.

    ``gap`` bounds every d[sigma][i] strictly from below; ``column_gaps[i-1]``
    bounds sum_sigma d[sigma][i] for i = 1..len(column_gaps); ``total``
    bounds the total coordinate sum.  A bound left out is only dominance.
    Such a cone is never empty, so there is always a first point.
    """
    if rank < 1 or embeddings < 1:
        raise ValueError("rank and embeddings must be >= 1")
    if len(column_gaps) > rank:
        raise ValueError("at most one column-gap bound per column")
    m = embeddings
    g = 0 if gap is None else max(0, _int_above(gap))
    cols = [max(m * g, _int_above(c)) for c in column_gaps]
    cols += [m * g] * (rank - len(cols))
    s = sum(i * c for i, c in enumerate(cols, 1))
    if total is not None:
        s = max(s, _int_above(total))

    low_row = [g * (rank - i) for i in range(rank)]
    lo = [c - (m - 1) * g for c in cols]  # gap bounds of the last row
    remaining = s - (m - 1) * sum(low_row)
    last = []
    for i in range(rank):
        # with k_i = x, entries i.. of the row sum to at most
        # (rank - i) * x - slack, reached with every later gap at its bound
        slack = sum((rank - 1 - t) * lo[t] for t in range(i, rank - 1))
        x = max(sum(lo[i:]), -(-(remaining + slack) // (rank - i)))
        last.append(x)
        remaining -= x
    return WeightTable([low_row] * (m - 1) + [last])
