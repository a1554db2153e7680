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

Quadratic extensions Q_p(sqrt(d)) are handled symbolically as a + b sqrt(d)
with rational a, b; the norm character of the extension is u -> (d, u)_p.
The transfer-factor sign product evaluates Waldspurger's quantities C_i
exactly in these extensions and multiplies their norm-character signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

from .errors import Degenerate, SlopecertError, SplitExtension, ZeroArgument
from .lattice import is_prime, unit_part, vp

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
    if isinstance(place, Place):
        return place
    if place in (None, "inf", "oo", "infinity"):
        return INFINITE_PLACE
    return Place(int(place))


# ---------------------------------------------------------------------------
# Hilbert symbol: closed form
# ---------------------------------------------------------------------------


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd p and a prime to p."""
    r = pow(a % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _unit_mod(u: Fraction, modulus: int) -> int:
    """A p-unit rational reduced modulo p^k (num * den^{-1})."""
    num = u.numerator % modulus
    den = u.denominator % modulus
    return num * pow(den, -1, modulus) % modulus


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
    alpha = vp(a, p)
    beta = vp(b, p)
    u = unit_part(a, p)
    w = unit_part(b, p)
    if p != 2:
        sign = 1
        if alpha * beta % 2:
            sign *= legendre(-1, p)
        if beta % 2:
            sign *= legendre(_unit_mod(u, p), p)
        if alpha % 2:
            sign *= legendre(_unit_mod(w, p), p)
        return sign
    u8 = _unit_mod(u, 8)
    w8 = _unit_mod(w, 8)
    eps_u, eps_w = (u8 - 1) // 2 % 2, (w8 - 1) // 2 % 2
    om_u, om_w = (u8 * u8 - 1) // 8 % 2, (w8 * w8 - 1) // 8 % 2
    expo = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if expo % 2 else 1


# ---------------------------------------------------------------------------
# Hilbert symbol: Hensel-lifting solvability search (independent ground truth)
# ---------------------------------------------------------------------------


def _reduce_square_class(x: Fraction, p: int) -> int:
    """Integer representative of x modulo squares with v_p in {0, 1}."""
    v = vp(x, p)
    y = x / Fraction(p) ** (v - v % 2)
    n = y.numerator * y.denominator  # same square class, now an integer
    return n


# the largest prime at which ``hilbert_solvable`` searches; see its docstring
ORACLE_MAX_PRIME = 101


def hilbert_solvable(a, b, place) -> bool:
    """Decide solvability of z^2 = a x^2 + b y^2 by searching, not by formula.

    Finite places run a depth-first Hensel lift on the quadric
    f = a x^2 + b y^2 - z^2 over projective charts.  Every primitive
    solution is a unit multiple of one whose first p-unit coordinate is
    exactly 1, so chart c in (x, y, z) fixes coordinate c to 1, keeps the
    earlier coordinates = 0 mod p and lifts only the other two: each
    expansion has p^2 children, and the top level at most 3 p^2 points.  A
    point is certified once its level k exceeds twice the valuation of some
    gradient component, and expanded one p-digit at a time otherwise.
    Depth is capped by 2 * (v_p(2) + max coefficient valuation) + 1, beyond
    which every live branch would have been certified, so an empty frontier
    decides unsolvability.  Only f mod p^k is ever evaluated: no Legendre
    symbol, so the search shares nothing with ``hilbert``.

    Primes above ``ORACLE_MAX_PRIME`` = 101 are refused with a
    ``SlopecertError`` before any search.  At odd p an uncertified point
    has its gradient = 0 mod p, so all or none of its p^2 children pass:
    at most p + 1 top points are expanded, p^3 steps, and only when both
    valuations are odd up to 2 p^2 second-level points, 2 p^4 steps.  Over
    120 sampled pairs per prime at p <= 101 the slowest took 1.3 s (p = 97;
    Python 3.11, one core).  Beyond the cap the cost runs away: one pair
    took 4 s at p = 131 and 19 s at p = 251.
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

        def expand(xi, xj, level) -> bool:
            # invariant: f = fixed + ci xi^2 + cj xj^2 = 0 mod p^level
            if any(g and level > 2 * vp(g, p) for g in (2 * fixed, 2 * ci * xi, 2 * cj * xj)):
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
    if vp(d, p) % 2:
        return False
    u = unit_part(d, p)
    if p == 2:
        return _unit_mod(u, 8) == 1
    return legendre(_unit_mod(u, p), p) == 1


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
# quadratic extension arithmetic
# ---------------------------------------------------------------------------


# the largest |d| that ``QuadExtElem`` accepts: its squarefree test is trial
# division to sqrt|d|, about 0.26 s at 10**12
MAX_DISCRIMINANT = 10**12


@lru_cache(maxsize=256)
def _squarefree(n: int) -> bool:
    """Trial division, cached: each d is tested once, not once per product."""
    n = abs(n)
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class QuadExtElem:
    """a + b sqrt(d) with rational a, b over a squarefree discriminant class d."""

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

    def _lift(self, other) -> "QuadExtElem":
        if isinstance(other, QuadExtElem):
            if other.d != self.d:
                raise ValueError("elements live in different quadratic extensions")
            return other
        return QuadExtElem(self.d, Fraction(other), Fraction(0))

    def __add__(self, other):
        o = self._lift(other)
        return QuadExtElem(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return QuadExtElem(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return QuadExtElem(
            self.d, self.a * o.a + self.d * self.b * o.b, self.a * o.b + self.b * o.a
        )

    __rmul__ = __mul__

    def __neg__(self):
        return QuadExtElem(self.d, -self.a, -self.b)

    def conj(self) -> "QuadExtElem":
        return QuadExtElem(self.d, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def inverse(self) -> "QuadExtElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("not invertible")
        return QuadExtElem(self.d, self.a / n, -self.b / n)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __rtruediv__(self, other):
        return self._lift(other) * self.inverse()

    def pow(self, k: int) -> "QuadExtElem":
        if k < 0:
            return self.inverse().pow(-k)
        out = QuadExtElem(self.d, Fraction(1), Fraction(0))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def rational(self) -> Fraction:
        if self.b != 0:
            raise Degenerate(f"{self} is not rational")
        return self.a

    def __repr__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


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
            raise ValueError("base prime must be odd")
        if len(self.split_values) + len(self.field_elements) != self.m:
            raise ValueError("index degrees must sum to 2m")
        if any(x == 0 for x in self.split_values):
            raise ValueError("split parameters must be nonzero")
        if any(x.is_zero() for x in self.field_elements):
            raise ValueError("field parameters must be nonzero")

    def y_split(self, j: int) -> Tuple[Fraction, Fraction]:
        """The two embedding values of y_j = -x_j / tau(x_j) at a split index."""
        x = self.split_values[j]
        return (-x, -1 / x)

    def y_field(self, i: int) -> QuadExtElem:
        """y_i = -x_i / tau(x_i), a norm-one element of the quadratic field."""
        x = self.field_elements[i]
        return -x / x.conj()


def _poly_mul(p1, p2):
    out = [Fraction(0)] * (len(p1) + len(p2) - 1)
    for i, c1 in enumerate(p1):
        for j, c2 in enumerate(p2):
            out[i + j] += c1 * c2
    return out


def _poly_eval(coeffs, x):
    """Horner's rule at a Fraction or a QuadExtElem, whose reflected
    operators take the Fraction start."""
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _poly_derivative(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _char_poly_factors(inst: WaldInstance, with_splits: bool):
    """[prod over indices of (T - y)(T - y^{tau})] as an exact rational polynomial."""
    poly = [Fraction(1)]
    for y in map(inst.y_field, range(len(inst.field_elements))):
        # (T - y)(T - conj y) = T^2 - trace(y) T + 1: y has norm one.
        poly = _poly_mul(poly, [Fraction(1), -y.trace(), Fraction(1)])
    if with_splits:
        for j in range(len(inst.split_values)):
            y1, y2 = inst.y_split(j)
            poly = _poly_mul(poly, [y1 * y2, -(y1 + y2), Fraction(1)])
    return poly


def _all_y_values(inst: WaldInstance):
    """Every embedding value of every y, tagged for cross-field comparison."""
    out = []
    for j in range(len(inst.split_values)):
        y1, y2 = inst.y_split(j)
        out.append((0, y1, Fraction(0)))
        out.append((0, y2, Fraction(0)))
    for i, x in enumerate(inst.field_elements):
        y = inst.y_field(i)
        out.append((x.d if y.b != 0 else 0, y.a, y.b))
        out.append((x.d if y.b != 0 else 0, y.a, -y.b))
    return out


def _check_regular(inst: WaldInstance):
    ys = _all_y_values(inst)
    if len(set(ys)) != len(ys):
        raise Degenerate("y-values collide across embeddings")
    for tag, a, b in ys:
        if tag == 0 and b == 0 and a == -1:
            raise Degenerate("some y equals -1")
        if tag == 0 and b == 0 and a == 1:
            raise Degenerate("some y equals 1")


@lru_cache(maxsize=1)
def _wald_ratios(inst: WaldInstance) -> tuple:
    """Per field index i, in order: (x_i, y_i, C_i / C_{i,0}).

    C_i = x^{-1} P'(y) P(-1) y^{1-m} (1+y) with P the full characteristic
    polynomial of the y-parameters; C_{i,0} uses the polynomial over the
    field indices only and the exponent 1 - m_0.  Both lie in Q_p by
    tau-invariance.  Raises Degenerate or SplitExtension, index by index,
    where the ratio is not defined.  The last instance's ratios are kept,
    so the sign product and the structure report of one job share them.
    """
    _check_regular(inst)
    m = inst.m
    m0 = len(inst.field_elements)
    p_full = _char_poly_factors(inst, with_splits=True)
    p_zero = _char_poly_factors(inst, with_splits=False)
    dp_full = _poly_derivative(p_full)
    dp_zero = _poly_derivative(p_zero)
    p_full_at_m1 = _poly_eval(p_full, Fraction(-1))
    p_zero_at_m1 = _poly_eval(p_zero, Fraction(-1))
    if p_full_at_m1 == 0 or p_zero_at_m1 == 0:
        raise Degenerate("-1 is a root of the characteristic polynomial")
    out = []
    for i, x in enumerate(inst.field_elements):
        if is_local_square(x.d, inst.p):
            raise SplitExtension(f"sqrt({x.d}) splits over Q_{inst.p}")
        y = inst.y_field(i)
        xinv = x.inverse()
        one_plus_y = y + 1
        if one_plus_y.is_zero():
            raise Degenerate("1 + y vanishes")
        c_full = xinv * _poly_eval(dp_full, y) * p_full_at_m1 * y.pow(1 - m) * one_plus_y
        c_zero = xinv * _poly_eval(dp_zero, y) * p_zero_at_m1 * y.pow(1 - m0) * one_plus_y
        if c_full.is_zero() or c_zero.is_zero():
            raise Degenerate("a transfer-factor quantity vanished")
        out.append((x, y, (c_full / c_zero).rational()))
    return tuple(out)


def waldspurger_sign_product(inst: WaldInstance) -> int:
    """Product over field indices of the norm-character sign of C_i / C_{i,0}.

    The ratio (see ``_wald_ratios``) is (-1)^(m - m_0) times an explicit
    norm, so the product collapses to a Hilbert symbol of the discriminant
    product.
    """
    sign = 1
    for x, _, ratio in _wald_ratios(inst):
        sign *= sign_char(x.d, ratio, inst.p)
    return sign


def wald_structure_report(inst: WaldInstance) -> list:
    """Per field index: the exact ratio C_i/C_{i,0} and its norm decomposition.

    Each entry is (ratio, predicted) with predicted = (-1)^(m-m0) * N(w_i),
    w_i = prod over split j of (y_i + x_j)(x_j^{-1} - 1); the two must agree.
    Raises where ``waldspurger_sign_product`` does.
    """
    sign = (-1) ** (inst.m - len(inst.field_elements))
    out = []
    for x, y, ratio in _wald_ratios(inst):
        w = QuadExtElem(x.d, Fraction(1), Fraction(0))
        for xj in inst.split_values:
            w = w * (y + xj) * (1 / xj - 1)
        out.append((ratio, Fraction(sign) * w.norm()))
    return out
