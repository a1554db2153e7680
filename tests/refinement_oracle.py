"""The two refinement changes the one formula replaced, and the Frobenius
valuations they act on: the test oracle for ``satake.change_refinement`` and
``satake.frobenius_slopes``.

``frobenius_multiset`` lists the extended Frobenius valuations entry by
entry.  ``solve_back`` permutes that list, val'(i) = val(w(i)), and solves
each entry for phi'; it preserves the slope multiset by construction.
``transcribed`` applies the exponent i - w(i) + q (1 - sign w(i)) as it was
transcribed.  All three read the slopes and weights through their own sign
extension, work on Fractions throughout and share no code with the package
formulas.
"""

from fractions import Fraction


def _slope(values, i):
    if i == 0:
        return Fraction(0)
    return Fraction(values[i - 1]) if i > 0 else -Fraction(values[-i - 1])


def _column_mean(local, rows, i):
    total = sum(row[abs(i) - 1] for row in rows) if i else 0
    return Fraction(total if i >= 0 else -total, local.e)


def _q(schema, r):
    return r + {"C": 1, "D": 0}[schema]


def _valuation(local, rows, values, schema, i):
    """v_p of the i-th Satake torus entry, i != 0 in the extended range."""
    r, j = len(values), abs(i)
    base = (_q(schema, r) - j) * local.f + _slope(values, r + 1 - j) + _column_mean(local, rows, j)
    return base if i > 0 else -base


def solve_back(w, local, weights, phi) -> tuple:
    """phi' with val'(i) = val(w(i)) for i = 1..r."""
    rows, values, r = weights.rows, phi.values, len(phi.values)
    q = _q(w.family, r)
    new = [None] * r
    for i in range(1, r + 1):
        target = _valuation(local, rows, values, w.family, w(i))
        new[r - i] = target - (q - i) * local.f - _column_mean(local, rows, i)
    return tuple(new)


def transcribed(w, local, weights, phi) -> tuple:
    """phi' under the transcribed (sign(i) - sign(w(i))) exponent convention."""
    rows, values, r = weights.rows, phi.values, len(phi.values)
    q = _q(w.family, r)
    new = [None] * r
    for i in range(1, r + 1):
        wi = w(i)
        sgn = 1 if wi > 0 else -1
        exponent = i - wi + q * (1 - sgn)
        kdiff = _column_mean(local, rows, wi) - _column_mean(local, rows, i)
        new[r - i] = _slope(values, (r + 1) * sgn - wi) + exponent * local.f + kdiff
    return tuple(new)


def frobenius_multiset(local, weights, phi, schema) -> tuple:
    """Sorted val(i) over the extended index range: 0 for schema C, then +-val(j)."""
    r = len(phi.values)
    zero = [Fraction(0)] if schema == "C" else []
    signed = [_valuation(local, weights.rows, phi.values, schema, s * j) for j in range(1, r + 1) for s in (1, -1)]
    return tuple(sorted(zero + signed))
