"""The double-loop Hensel search that the table lookup replaced: the test
oracle for ``slopecert.symbols.hilbert_solvable`` at finite primes.

It decides whether z^2 = a x^2 + b y^2 has a primitive solution over Q_p
with the same charts, depth cap and certification rule as the package, but
finds a point's children by testing all p^2 digit pairs, and it reduces the
coefficients to square classes through Fractions.  It shares no code with
the package and never evaluates a Legendre symbol.  Its cost grows like p^4
when both valuations are odd (about 0.8 s at p = 89), so tests run it only
at small primes.
"""

from fractions import Fraction


def _valuation(x: Fraction, p: int) -> int:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _square_class(x: Fraction, p: int) -> int:
    """Integer representative of x modulo squares with v_p in {0, 1}."""
    v = _valuation(x, p)
    y = x / Fraction(p) ** (v - v % 2)
    return y.numerator * y.denominator


def solvable_by_double_loop(a, b, p: int) -> bool:
    """Whether z^2 = a x^2 + b y^2 is solvable over Q_p, for nonzero rationals a, b."""
    coeffs = (_square_class(Fraction(a), p), _square_class(Fraction(b), p), -1)
    vmax = max(_valuation(Fraction(c), p) for c in coeffs)
    depth_cap = 2 * (_valuation(Fraction(2), p) + vmax) + 1

    def chart_solvable(c) -> bool:
        i, j = (k for k in range(3) if k != c)
        fixed, ci, cj = coeffs[c], coeffs[i], coeffs[j]

        def expand(xi, xj, level) -> bool:
            # invariant: f = fixed + ci xi^2 + cj xj^2 = 0 mod p^level
            gradient = (2 * fixed, 2 * ci * xi, 2 * cj * xj)
            if any(g and level > 2 * _valuation(Fraction(g), p) for g in gradient):
                return True
            if level >= depth_cap:
                return False
            step = p**level
            target = p ** (level + 1)
            for di in range(p):
                yi = xi + di * step
                partial = fixed + ci * yi * yi
                for dj in range(p):
                    yj = xj + dj * step
                    if (partial + cj * yj * yj) % target == 0 and expand(yi, yj, level + 1):
                        return True
            return False

        # a lifted coordinate before the chart's 1 is = 0 mod p
        return any(
            (fixed + ci * xi * xi + cj * xj * xj) % p == 0 and expand(xi, xj, 1)
            for xi in range(1 if i < c else p)
            for xj in range(1 if j < c else p)
        )

    return any(chart_solvable(c) for c in range(3))
