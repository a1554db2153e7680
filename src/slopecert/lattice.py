"""Exact rational arithmetic, local-field shape data and dominant weight tables.

Everything downstream works with valuations normalized so that v_p(p) = 1.
A p-adic place only enters through three numbers: the prime p, the
ramification index e and the residue degree f.  The residue cardinality q
then has v_p(q) = f, and any uniformizer has v_p = 1/e.  No element of the
local field itself is ever represented.

Weights are stored as one integer matrix per place: row sigma (one row per
embedding of the field into its algebraic closure, so e*f rows) and column i
for the dominant coordinates k[sigma][1] >= ... >= k[sigma][n] >= 0.  The
accessor extends indices to -n..n by k[sigma][-i] = -k[sigma][i] and
k[sigma][0] = 0 (``sign_extended``); the extension is never stored.

Every scalar is an exact rational, a Fraction, and no floating point enters
the package.  Hot loops hold their values as int numerators over one common
denominator (``over_common_denominator``) and build a Fraction only for a
value they return or record.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

#: The job schema's rational grammar: an ASCII integer, optionally "/den".
_RAT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def rat_str(x) -> str:
    """Serialize an int or a Fraction canonically as ``"num/den"``; anything
    else, a float above all, is a TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"rat_str takes an int or a Fraction, not {type(x).__name__}")
    return f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    """Parse ``"num/den"`` or a plain integer string through int()s.

    Any other string is a ValueError and a non-string a TypeError, so no
    exponent such as ``"1e3000000"`` is ever expanded.
    """
    if not isinstance(s, str):
        raise TypeError(f"a rational is a string, not {type(s).__name__}")
    if not _RAT.fullmatch(s):
        raise ValueError(f"{s[:40]!r} is not an integer or num/den")
    num, _, den = s.partition("/")
    return Fraction(int(num), int(den or 1))


def over_common_denominator(values) -> tuple:
    """(numerators, D) with D the least common denominator of the ints and
    Fractions ``values`` and ``numerators[i] = values[i] * D`` as ints."""
    denom = 1
    for v in values:
        denom = denom * v.denominator // math.gcd(denom, v.denominator)
    return tuple(v.numerator * (denom // v.denominator) for v in values), denom


def sign_extended(values: Sequence, i: int):
    """x[i] for i in -n..n, with x[1..n] = ``values``, x[-i] = -x[i] and x[0] = 0."""
    return values[i - 1] if i > 0 else -values[-i - 1] if i else 0


def vp(x, p: int) -> int:
    """p-adic valuation of a nonzero int or Fraction, normalized by v_p(p) = 1."""
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ZeroDivisionError("v_p(0) is undefined")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


#: Miller-Rabin on these 13 bases is exact below PRIME_LIMIT.
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3_317_044_064_679_887_385_961_981


#: Digits of a refused n that is_prime's message quotes; a longer n is named by its digit count.
_QUOTED_DIGITS = 40


def _digit_count(n: int) -> int:
    """The number of decimal digits of n > 0, counted without str(n), which
    Python refuses past 4,300 digits."""
    k = (n.bit_length() - 1) * 30102 // 100000  # 0.30102 < log10(2), so 10**k <= n
    while 10 ** (k + 1) <= n:
        k += 1
    return k + 1


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin on the primes up to 41.

    n at or above PRIME_LIMIT is refused with ValueError.  Below 43^2 the
    trial division by the bases decides alone.
    """
    if n >= PRIME_LIMIT:
        shown = n if n < 10**_QUOTED_DIGITS else f"an integer of {_digit_count(n):,} digits"
        raise ValueError(f"primality is decided only below {PRIME_LIMIT}, got {shown}")
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    if n < 43 * 43:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class LocalDatum:
    """Arithmetic shape of a p-adic place: prime p, ramification e, residue degree f."""

    p: int
    e: int = 1
    f: int = 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.e < 1 or self.f < 1:
            raise ValueError("need e >= 1 and f >= 1")

    @property
    def embeddings(self) -> int:
        """Number of embeddings into the algebraic closure: e * f."""
        return self.e * self.f


class WeightTable:
    """Dominant integral weights at one place: rows[sigma][i-1] = k[sigma][i].

    Rows are weakly decreasing and nonnegative.  ``entry(sigma, i)`` accepts
    any i in -rank..rank, applying the sign extension and k[sigma][0] = 0.
    Indices are 1-based to match the usual k_{v,sigma,i} bookkeeping.
    """

    __slots__ = ("rows", "columns")

    def __init__(self, rows: Iterable[Sequence[int]]):
        rows = tuple(tuple(int(k) for k in row) for row in rows)
        if not rows:
            raise ValueError("a weight table needs at least one embedding row")
        n = len(rows[0])
        for row in rows:
            if len(row) != n:
                raise ValueError("all embedding rows must have the same rank")
            if any(row[j] < row[j + 1] for j in range(n - 1)):
                raise ValueError(f"row {row} is not weakly decreasing")
            if n and row[-1] < 0:
                raise ValueError(f"row {row} has a negative entry")
        self.rows = rows
        self.columns = tuple(map(sum, zip(*rows)))  # column_sum(1..rank)

    @property
    def rank(self) -> int:
        return len(self.rows[0])

    @property
    def embeddings(self) -> int:
        return len(self.rows)

    def entry(self, sigma: int, i: int) -> int:
        """k[sigma][i] for i in -rank..rank, with k[sigma][-i] = -k[sigma][i], k[sigma][0] = 0."""
        return sign_extended(self.rows[sigma - 1], i)

    def column_sum(self, i: int) -> int:
        """Sum over embeddings of k[sigma][i] (extended index allowed)."""
        return sign_extended(self.columns, i)

    def total(self) -> int:
        return sum(sum(row) for row in self.rows)

    def __eq__(self, other):
        return isinstance(other, WeightTable) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"WeightTable({list(map(list, self.rows))})"


def very_regular(weights: WeightTable, bound) -> bool:
    """Whether every consecutive gap and every trailing k[sigma][n] is >= bound.

    This is the weight-regularity lower bound that makes enough room for
    classicality and complete refinability at nearby points.
    """
    n = weights.rank
    for row in weights.rows:
        for j in range(n - 1):
            if row[j] - row[j + 1] < bound:
                return False
        if row[n - 1] < bound:
            return False
    return True
