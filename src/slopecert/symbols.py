"""Hilbert symbols over Q and its completions, quadratic-extension norms, and
the transfer-factor sign product over Q_p.

The Hilbert symbol (a, b)_v is +1 exactly when z^2 = a x^2 + b y^2 has a
nonzero solution over the completion at v.  The closed form used here is the
classical one: at the real place the symbol is -1 iff both arguments are
negative; at an odd prime p, writing a = p^alpha u and b = p^beta w with
p-units u, w,

    (a, b)_p = (-1|p)^(alpha beta) (u|p)^beta (w|p)^alpha,

and at p = 2, with eps(u) = (u-1)/2 and omega(u) = (u^2-1)/8 mod 2,

    (a, b)_2 = (-1)^(eps(u) eps(w) + alpha omega(w) + beta omega(u)).

An independent Hensel-lifting solvability search doubles as ground truth in
the test suite.

An element of a quadratic extension Q_p(sqrt(d)) is read as a + b sqrt(d)
with rational a, b, and computed on as an int triple: (ya + yb sqrt(d)) / yd.
The norm character of the extension is u -> (d, u)_p.  The transfer-factor
sign product evaluates Waldspurger's quantities C_i exactly on such triples
and multiplies their norm-character signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Optional

from .errors import Degenerate, SlopecertError, SplitExtension, ZeroArgument
from .lattice import is_prime, over_common_denominator, vp

# ---------------------------------------------------------------------------
# places
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Place:
    """A place of Q: a finite prime, or the archimedean place (p = None)."""

    p: Optional[int] = None

    def __post_init__(self):
        if self.p is not None and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_infinite(self) -> bool:
        return self.p is None

    def __repr__(self):
        return "Place(oo)" if self.is_infinite else f"Place({self.p})"


INFINITE_PLACE = Place(None)


def _as_place(place) -> Place:
    """``place`` itself, or the place of the int prime ``place``."""
    return place if isinstance(place, Place) else Place(int(place))


# ---------------------------------------------------------------------------
# Hilbert symbol: closed form
# ---------------------------------------------------------------------------


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd p and a prime to p."""
    r = pow(a % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _unit_class(x: Fraction, p: int) -> tuple:
    """(v_p(x), w) for a nonzero rational x, with w the integer p-unit
    n' * d' of x = p^v n' / d'.  w is in the square class of the unit part
    n' / d', since the two differ by the square d'^2; it is also n' / d'
    modulo 8 when p = 2, as every odd square is 1 mod 8."""
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num * den


def hilbert(a, b, place) -> int:
    """Hilbert symbol (a, b) at a place of Q; arguments nonzero rationals."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ZeroArgument("Hilbert symbol arguments must be nonzero")
    place = _as_place(place)
    if place.is_infinite:
        return -1 if (a < 0 and b < 0) else 1
    p = place.p
    alpha, u = _unit_class(a, p)
    beta, w = _unit_class(b, p)
    if p != 2:
        sign = 1
        if alpha * beta % 2:
            sign *= legendre(-1, p)
        if beta % 2:
            sign *= legendre(u, p)
        if alpha % 2:
            sign *= legendre(w, p)
        return sign
    u8, w8 = u % 8, w % 8
    eps_u, eps_w = (u8 - 1) // 2 % 2, (w8 - 1) // 2 % 2
    om_u, om_w = (u8 * u8 - 1) // 8 % 2, (w8 * w8 - 1) // 8 % 2
    expo = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if expo % 2 else 1


# ---------------------------------------------------------------------------
# Hilbert symbol: Hensel-lifting solvability search (independent ground truth)
# ---------------------------------------------------------------------------


def _reduce_square_class(x: Fraction, p: int) -> int:
    """Integer representative of x modulo squares with v_p in {0, 1}: the
    numerator times the denominator once the even part of p^v_p(x) is gone."""
    v = vp(x, p)
    num, den = x.numerator, x.denominator
    if v >= 0:
        return num // p ** (v - v % 2) * den
    return num * p ** (v % 2) * (den // p**-v)


# the largest prime at which ``hilbert_solvable`` searches; see its docstring
ORACLE_MAX_PRIME = 101


def hilbert_solvable(a, b, place) -> bool:
    """Decide solvability of z^2 = a x^2 + b y^2 by searching, not by formula.

    Finite places run a depth-first Hensel lift on the quadric
    f = a x^2 + b y^2 - z^2 over projective charts.  Every primitive
    solution is a unit multiple of one whose first p-unit coordinate is
    exactly 1, so chart c in (x, y, z) fixes coordinate c to 1, keeps the
    earlier coordinates = 0 mod p and lifts only the other two, xi and xj.
    A point is certified once its level k exceeds twice the valuation of
    some gradient component, and expanded one p-digit at a time otherwise.
    Depth is capped by 2 * (v_p(2) + max coefficient valuation) + 1, beyond
    which every live branch would have been certified, so an empty frontier
    decides unsolvability.  Only f mod p^k is ever evaluated: no Legendre
    symbol, so the search shares nothing with ``hilbert``.

    Past the top level one residue test decides all p^2 children of a
    point (Hensel's lemma).  A child of (xi, xj) at level k >= 1 is
    (xi + p^k a, xj + p^k b), and f there is f(xi, xj)
    + p^k (2 ci xi a + 2 cj xj b) + p^(2k) (ci a^2 + cj b^2).  The square
    terms carry p^(2k), which vanishes mod p^(k+1).  At odd p every nonzero
    gradient component of an uncertified point has valuation >= k/2 > 0, so
    the linear term vanishes mod p^(k+1) too; at p = 2 it carries 2^(k+1)
    anyway.  So an uncertified point passes to all of its children when
    f = 0 mod p^(k+1), and to none otherwise.  Only the top points are
    looked up: the residues cj xj^2 mod p of the p digits of xj are
    tabulated once, and each digit of xi looks up -(fixed + ci xi^2).
    Children are visited with the digit of xi ascending, then that of xj.
    Primes above ``ORACLE_MAX_PRIME`` = 101 are refused with a
    ``SlopecertError`` before any search.  All 9,216 pairs (97 u, 97 w) with
    0 < u, w < 97 took 1.0 s together and the slowest 4.4 ms; all 10,000
    pairs at p = 101 took 1.1 s (Python 3.11, one core).  At p = 89 and 97,
    over all four parities of the two valuations, no search visited more
    than 675 points.  Beyond the cap, over every seventh u and w, the
    slowest pair took 1.4 ms at p = 131 and 3.2 ms at p = 251.
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ZeroArgument("Hilbert symbol arguments must be nonzero")
    place = _as_place(place)
    if place.is_infinite:
        return a > 0 or b > 0
    p = place.p
    if p > ORACLE_MAX_PRIME:
        raise SlopecertError(f"the Hilbert oracle is capped at p <= {ORACLE_MAX_PRIME}, got p = {p}")
    coeffs = (_reduce_square_class(a, p), _reduce_square_class(b, p), -1)
    vmax = max(vp(c, p) for c in coeffs)
    depth_cap = 2 * (vp(2, p) + vmax) + 1

    def chart_solvable(c) -> bool:
        i, j = (k for k in range(3) if k != c)
        fixed, ci, cj = coeffs[c], coeffs[i], coeffs[j]
        # the gradient is (2 fixed, 2 ci xi, 2 cj xj); fixed, ci, cj are nonzero
        v_fixed, v_i, v_j = vp(2 * fixed, p), vp(2 * ci, p), vp(2 * cj, p)

        def expand(xi, xj, level) -> bool:
            # invariant: f = fixed + ci xi^2 + cj xj^2 = 0 mod p^level
            if (
                level > 2 * v_fixed
                or xi and level > 2 * (v_i + vp(xi, p))
                or xj and level > 2 * (v_j + vp(xj, p))
            ):
                return True
            step = p**level
            target = step * p
            # an uncertified point's children agree with it mod p^(level + 1)
            if level >= depth_cap or (fixed + ci * xi * xi + cj * xj * xj) % target:
                return False
            return any(
                expand(yi, yj, level + 1)
                for yi in range(xi, xi + target, step)
                for yj in range(xj, xj + target, step)
            )

        # a lifted coordinate before the chart's 1 is = 0 mod p; the p
        # residues cj xj^2 mod p are tabulated once
        by_residue = {}
        for xj in range(1 if j < c else p):
            by_residue.setdefault(cj * xj * xj % p, []).append(xj)
        return any(
            expand(xi, xj, 1)
            for xi in range(1 if i < c else p)
            for xj in by_residue.get(-(fixed + ci * xi * xi) % p, ())
        )

    return any(chart_solvable(c) for c in range(3))


def product_formula(a, b) -> bool:
    """Check prod_v (a, b)_v = 1 over the infinite place and all relevant primes.

    The symbol is +1 at any odd place where both arguments are units, so the
    product runs over oo, 2, and the primes dividing a numerator or
    denominator.  A False return signals an implementation fault, never a
    property of (a, b).
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ZeroArgument("product formula needs nonzero arguments")
    primes = {2}
    for value in (a, b):
        for n in (abs(value.numerator), value.denominator):
            d = 2
            while d * d <= n:
                if n % d == 0:
                    primes.add(d)
                    while n % d == 0:
                        n //= d
                d += 1
            if n > 1:
                primes.add(n)
    prod = hilbert(a, b, INFINITE_PLACE)
    for p in sorted(primes):
        prod *= hilbert(a, b, Place(p))
    return prod == 1


def is_local_square(d, p: int) -> bool:
    """Whether d is a square in Q_p."""
    d = Fraction(d)
    if d == 0:
        raise ZeroArgument("square test needs a nonzero argument")
    v, u = _unit_class(d, p)
    if v % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre(u, p) == 1


def sign_char(d: int, u, p: int) -> int:
    """Norm-residue character of Q_p(sqrt(d))/Q_p evaluated at u.

    Equals (d, u)_p: +1 exactly when u is a local norm from the extension.
    Raises SplitExtension when d is a p-adic square (no quadratic field).
    """
    if Fraction(u) == 0:
        raise ZeroArgument("norm character needs a nonzero argument")
    if is_local_square(d, p):
        raise SplitExtension(f"{d} is a square in Q_{p}")
    return hilbert(d, u, Place(p))


# ---------------------------------------------------------------------------
# quadratic extension elements
# ---------------------------------------------------------------------------


# the largest |d| that ``QuadExtElem`` accepts: its squarefree test trial-
# divides only up to |d|^(1/3), about 1.5 ms at 10**12
MAX_DISCRIMINANT = 10**12


@lru_cache(maxsize=256)
def _squarefree(n: int) -> bool:
    """Trial division while q^3 <= the cofactor, cached: each d is tested
    once, not once per product.  The cofactor left then has no prime factor
    below q and is below q^3, so it is 1, a prime, a product of two distinct
    primes or the square of a prime, and only the last is not squarefree."""
    n = abs(n)
    q = 2
    while q * q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return False
        q += 1
    root = isqrt(n)
    return n < 2 or root * root != n


@dataclass(frozen=True)
class QuadExtElem:
    """a + b sqrt(d) with rational a, b over a squarefree discriminant class
    d: a checked input.  The transfer-factor arithmetic reads a, b once and
    works on int triples (see ``_y_triple``)."""

    d: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        if abs(self.d) > MAX_DISCRIMINANT:
            raise ValueError(f"discriminant class {self.d} is beyond symbols.MAX_DISCRIMINANT = {MAX_DISCRIMINANT}")
        if self.d in (0, 1) or not _squarefree(self.d):
            raise ValueError(f"discriminant class {self.d} must be squarefree and != 0, 1")


# ---------------------------------------------------------------------------
# transfer-factor sign product
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WaldInstance:
    """Parametrized twisted conjugacy datum over base field Q_p.

    ``split_values`` lists the x-parameters at split indices (the two-line
    algebra Q_p x Q_p); ``field_elements`` lists x in the quadratic field
    Q_p(sqrt(d)) at the non-split indices.  Each index has degree 2, so the
    total size is 2m with m = number of indices.
    """

    p: int
    m: int
    split_values: tuple
    field_elements: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "split_values", tuple(Fraction(x) for x in self.split_values)
        )
        object.__setattr__(self, "field_elements", tuple(self.field_elements))
        if not is_prime(self.p) or self.p == 2:
            raise ValueError(f"base p = {self.p} must be an odd prime")
        if len(self.split_values) + len(self.field_elements) != self.m:
            raise ValueError("index degrees must sum to 2m")
        if any(x == 0 for x in self.split_values):
            raise ValueError("split parameters must be nonzero")
        if any(x.a == 0 and x.b == 0 for x in self.field_elements):
            raise ValueError("field parameters must be nonzero")


def _y_triple(x: QuadExtElem) -> tuple:
    """y = -x / tau(x) as the reduced int triple (ya, yb, yd), yd > 0, of
    y = (ya + yb sqrt(d)) / yd.  With x = (A + B sqrt(d)) / D,

        y = -((A^2 + d B^2) + 2 A B sqrt(d)) / (A^2 - d B^2),

    and A^2 - d B^2 != 0 as d is not a square.  Equal elements of one field
    have equal triples, so triples compare as values."""
    (a, b), _ = over_common_denominator((x.a, x.b))
    ya, yb, yd = -(a * a + x.d * b * b), -2 * a * b, a * a - x.d * b * b
    g = gcd(ya, yb, yd) if yd > 0 else -gcd(ya, yb, yd)
    return ya // g, yb // g, yd // g


def _poly_mul(p1, p2):
    out = [0] * (len(p1) + len(p2) - 1)
    for i, c1 in enumerate(p1):
        for j, c2 in enumerate(p2):
            out[i + j] += c1 * c2
    return out


def _quad_mul(u, v, d: int) -> tuple:
    """(u0 + u1 sqrt(d)) (v0 + v1 sqrt(d)) on pairs of ints."""
    return u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _poly_eval(coeffs, y, d: int) -> tuple:
    """yd^n P(y) as a pair of ints, for P the int polynomial of degree
    n = len(coeffs) - 1 at y = (ya + yb sqrt(d)) / yd: Horner's rule with
    the denominator carried as a power, so no value is ever reduced."""
    ya, yb, yd = y
    qa, qb, power = coeffs[-1], 0, 1
    for c in reversed(coeffs[:-1]):
        power *= yd
        qa, qb = qa * ya + d * qb * yb + c * power, qa * yb + qb * ya
    return qa, qb


def _poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _char_poly_factors(ys, split_values):
    """prod over indices of (T - y)(T - y^{tau}) as (int coefficients, D):
    the exact rational polynomial is the coefficients over the int D.  A
    field index's y = Y / yd has norm one, so its factor is
    T^2 - 2 (ya / yd) T + 1; a split x = n / e has the roots -x and -1/x."""
    poly, denom = [1], 1
    for ya, _, yd in ys:
        poly = _poly_mul(poly, (yd, -2 * ya, yd))
        denom *= yd
    for x in split_values:
        n, e = x.numerator, x.denominator
        poly = _poly_mul(poly, (n * e, n * n + e * e, n * e))
        denom *= n * e
    return poly, denom


def _check_regular(inst: WaldInstance, ys):
    """Every embedding value of every y, keyed (tag, ya, yb, yd) with tag the
    field's d where yb != 0, must be distinct and differ from 1 and -1.

    The values come in pairs, y and its conjugate or -x and -1/x, and a
    value of 1 or -1 is its own partner, so distinctness refuses it too.
    The values are the roots of P, so P(-1) != 0, and each is a simple root:
    P'(y) != 0 and P_0'(y) != 0."""
    keys = []
    for x in inst.split_values:
        # -x and -1/x, each reduced with a positive denominator
        n, e = x.numerator, x.denominator
        keys += [(0, -n, 0, e), (0, -e if n > 0 else e, 0, abs(n))]
    for x, (ya, yb, yd) in zip(inst.field_elements, ys):
        tag = x.d if yb != 0 else 0
        keys.append((tag, ya, yb, yd))
        keys.append((tag, ya, -yb, yd))
    if len(set(keys)) != len(keys):
        raise Degenerate("y-values collide across embeddings")


@lru_cache(maxsize=1)
def _wald_ratios(inst: WaldInstance) -> tuple:
    """Per field index i, in order: (d_i, y_i as ``_y_triple``, C_i / C_{i,0}).

    C_i = x^{-1} P'(y) P(-1) y^{1-m} (1+y) with P the full characteristic
    polynomial of the y-parameters; C_{i,0} uses the polynomial over the
    field indices only and the exponent 1 - m_0.  Both lie in Q_p by
    tau-invariance.  Raises Degenerate or SplitExtension, index by index,
    where the ratio is not defined.  The last instance's ratios are kept,
    so the sign product and the structure report of one job share them.

    The ratio is evaluated on ints.  x^{-1} (1+y) cancels, and y^{m_0-m}
    is conj(y)^k with k = m - m_0, as y has norm one.  With y = Y / yd,
    P = (int polynomial) / D of degree n and P_0 likewise over D_0, write
    q = yd^(n-1) D P'(y), an integral pair, and e = D P(-1), an int; then
    n - n_0 = 2k and

        C_i / C_{i,0} = q conj(Y)^k e D_0^2 / (q_0 e_0 D^2 yd^(3k)),

    so a Fraction is built only for the ratio.
    """
    ys = [_y_triple(x) for x in inst.field_elements]
    _check_regular(inst, ys)
    k = inst.m - len(inst.field_elements)
    p_full, den_full = _char_poly_factors(ys, inst.split_values)
    p_zero, den_zero = _char_poly_factors(ys, ())
    dp_full = _poly_derivative(p_full)
    dp_zero = _poly_derivative(p_zero)
    # D P(-1) and D_0 P_0(-1): -1 is (-1 + 0 sqrt(d)) / 1 for any d
    p_full_at_m1 = _poly_eval(p_full, (-1, 0, 1), 0)[0]
    p_zero_at_m1 = _poly_eval(p_zero, (-1, 0, 1), 0)[0]
    out = []
    for i, (x, y) in enumerate(zip(inst.field_elements, ys)):
        if is_local_square(x.d, inst.p):
            raise SplitExtension(f"sqrt({x.d}) splits over Q_{inst.p}")
        ya, yb, yd = y
        q_full = _poly_eval(dp_full, y, x.d)
        q_zero = _poly_eval(dp_zero, y, x.d)
        num = q_full
        for _ in range(k):
            num = _quad_mul(num, (ya, -yb), x.d)
        # divide by q_zero: multiply by its conjugate over its norm
        num_a, num_b = _quad_mul(num, (q_zero[0], -q_zero[1]), x.d)
        if num_b != 0:
            raise Degenerate(f"C_{i} / C_{i},0 is not rational")
        norm_zero = q_zero[0] * q_zero[0] - x.d * q_zero[1] * q_zero[1]
        ratio = Fraction(
            num_a * p_full_at_m1 * den_zero * den_zero,
            norm_zero * p_zero_at_m1 * den_full * den_full * yd ** (3 * k),
        )
        out.append((x.d, y, ratio))
    return tuple(out)


def waldspurger_sign_product(inst: WaldInstance) -> int:
    """Product over field indices of the norm-character sign of C_i / C_{i,0}.

    The ratio (see ``_wald_ratios``) is (-1)^(m - m_0) times an explicit
    norm, so the product collapses to a Hilbert symbol of the discriminant
    product.
    """
    sign = 1
    for d, _, ratio in _wald_ratios(inst):
        sign *= sign_char(d, ratio, inst.p)
    return sign


def wald_structure_report(inst: WaldInstance) -> list:
    """Per field index: the exact ratio C_i/C_{i,0} and its norm decomposition.

    Each entry is (ratio, predicted) with predicted = (-1)^(m-m0) * N(w_i),
    w_i = prod over split j of (y_i + x_j)(x_j^{-1} - 1); the two must agree.
    On ints, with y = (ya + yb sqrt(d)) / yd and x_j = n / e,
    N(y + x_j) = ((ya e + n yd)^2 - d (yb e)^2) / (yd e)^2 and
    (x_j^{-1} - 1)^2 = (e - n)^2 / n^2.
    Raises where ``waldspurger_sign_product`` does.
    """
    sign = (-1) ** (inst.m - len(inst.field_elements))
    out = []
    for d, (ya, yb, yd), ratio in _wald_ratios(inst):
        num, den = sign, 1
        for xj in inst.split_values:
            n, e = xj.numerator, xj.denominator
            u, v = ya * e + n * yd, yb * e
            num *= (u * u - d * v * v) * (e - n) ** 2
            den *= (yd * e * n) ** 2
        out.append((ratio, Fraction(num, den)))
    return out
