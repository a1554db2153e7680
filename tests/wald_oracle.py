"""The transfer-factor quantities on plain Fraction pairs: the test oracle
for ``slopecert.symbols.waldspurger_sign_product`` and
``wald_structure_report``.

An element u0 + u1 sqrt(d) of Q(sqrt(d)) is the pair (u0, u1) of Fractions.
The oracle forms y = -x / tau(x), the characteristic polynomials with
Fraction coefficients, and C_i and C_{i,0} literally as

    C_i = x^{-1} P'(y) P(-1) y^{1-m} (1 + y),

with no cancellation, then the predicted norm (-1)^(m-m_0) N(w_i) with
w_i = prod over split j of (y_i + x_j)(x_j^{-1} - 1).  The norm-character
sign (d, ratio)_p comes from the double-loop Hensel search, and a local
square is found by testing every residue, so nothing here is shared with the
package.  It is slow (every power is a product of pairs), so tests keep m
small.
"""

from fractions import Fraction

from hensel_oracle import solvable_by_double_loop


def _mul(u, v, d):
    return u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _inverse(u, d):
    norm = u[0] * u[0] - d * u[1] * u[1]
    return u[0] / norm, -u[1] / norm


def _power(u, k, d):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = _mul(out, u, d)
    return out if k >= 0 else _inverse(out, d)


def _poly_times(poly, factor):
    out = [Fraction(0)] * (len(poly) + len(factor) - 1)
    for i, a in enumerate(poly):
        for j, b in enumerate(factor):
            out[i + j] += a * b
    return out


def _char_poly(ys, splits):
    """Coefficients, constant first, of prod (T - y)(T - tau y) over the
    field y's and prod (T + x)(T + 1/x) over the split x's."""
    poly = [Fraction(1)]
    for d, y in ys:
        poly = _poly_times(poly, [y[0] * y[0] - d * y[1] * y[1], -2 * y[0], Fraction(1)])
    for x in splits:
        poly = _poly_times(poly, [Fraction(1), x + 1 / x, Fraction(1)])
    return poly


def _evaluate(poly, u, d):
    out = (Fraction(0), Fraction(0))
    for c in reversed(poly):
        out = _mul(out, u, d)
        out = (out[0] + c, out[1])
    return out


def _derivative(poly):
    return [i * c for i, c in enumerate(poly)][1:]


def _is_local_square(d, p):
    return d % p != 0 and any((r * r - d) % p == 0 for r in range(p))


def wald_by_pairs(p, m, splits, fields):
    """("Degenerate", None), ("SplitExtension", None) or ("ok", (sign,
    [(ratio, predicted), ...])) for the instance with odd prime p, split
    values ``splits`` and field elements ``fields`` as (d, a, b) triples."""
    splits = [Fraction(x) for x in splits]
    ys = []
    for d, a, b in fields:
        x = (Fraction(a), Fraction(b))
        ys.append((d, _mul((-x[0], -x[1]), _inverse((x[0], -x[1]), d), d)))
    # every embedding value: a rational as (0, value, 0), a field value tagged by d
    values = [(0, v, 0) for x in splits for v in (-x, -1 / x)]
    for d, y in ys:
        tag = d if y[1] != 0 else 0
        values += [(tag, y[0], y[1]), (tag, y[0], -y[1])]
    if len(set(values)) != len(values) or any(tag == 0 and b == 0 and a in (1, -1) for tag, a, b in values):
        return "Degenerate", None
    full = _char_poly(ys, splits)
    zero = _char_poly(ys, [])
    minus_one = (Fraction(-1), Fraction(0))
    if _evaluate(full, minus_one, 0)[0] == 0 or _evaluate(zero, minus_one, 0)[0] == 0:
        return "Degenerate", None
    m_zero = len(fields)
    sign_of_split = (-1) ** (m - m_zero)
    sign, entries = 1, []
    for (d, a, b), (_, y) in zip(fields, ys):
        if _is_local_square(d, p):
            return "SplitExtension", None
        x_inverse = _inverse((Fraction(a), Fraction(b)), d)
        one_plus_y = (1 + y[0], y[1])
        quantities = []
        for poly, count in ((full, m), (zero, m_zero)):
            derivative = _evaluate(_derivative(poly), y, d)
            if derivative == (0, 0):
                return "Degenerate", None
            c = _mul(x_inverse, derivative, d)
            c = _mul(c, _evaluate(poly, minus_one, d), d)
            c = _mul(c, _power(y, 1 - count, d), d)
            quantities.append(_mul(c, one_plus_y, d))
        ratio = _mul(quantities[0], _inverse(quantities[1], d), d)
        if ratio[1] != 0:
            return "Degenerate", None
        w = (Fraction(1), Fraction(0))
        for x in splits:
            w = _mul(w, (y[0] + x, y[1]), d)
            w = _mul(w, (1 / x - 1, Fraction(0)), d)
        predicted = sign_of_split * (w[0] * w[0] - d * w[1] * w[1])
        sign *= 1 if solvable_by_double_loop(d, ratio[0], p) else -1
        entries.append((ratio[0], predicted))
    return "ok", (sign, entries)
