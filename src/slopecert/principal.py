"""Irreducibility predicates for unramified principal series and refinement-orbit sizes.

Characters of the diagonal torus are pinned down by their values at a
uniformizer, kept as nonzero rationals; nu denotes the normalized absolute
value, nu(uniformizer) = 1/q.  The only rational value of order exactly two
is -1, which is all the order-2 test in scope needs.

For the rank-n split symplectic group, Tadic's criterion is an equivalence:
the induced representation is irreducible iff no chi_i has order 2, no chi_i
equals nu^{+-1}, and no product or ratio chi_i chi_j^{+-1} (i != j) equals
nu^{+-1}.  For split even orthogonal groups only a sufficient criterion is
in scope: chi_i(pi)^2 != 1 for all i and chi_i(pi) chi_j(pi)^{+-1} not in
{1, q, 1/q} for i < j; a False return therefore means "not guaranteed
irreducible", never "reducible".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence

from .errors import MixedResidue


@dataclass(frozen=True)
class UnramChar:
    """An unramified character by its value at a uniformizer, with residue size q."""

    value: Fraction
    q: int

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value == 0:
            raise ValueError("character values are nonzero")
        if self.q < 2:
            raise ValueError("residue cardinality must be >= 2")


def _common_q(chars: Sequence[UnramChar]) -> int:
    qs = {c.q for c in chars}
    if len(qs) != 1:
        raise MixedResidue(f"characters carry different residue cardinalities: {sorted(qs)}")
    return qs.pop()


def _has_partner(counts: Counter, v: Fraction, partners) -> bool:
    """Whether a value in ``partners`` is held at a position other than one holding v."""
    return any(counts[b] > (b == v) for b in partners)


def sp_irreducible(chars: Sequence[UnramChar]) -> bool:
    """Tadic's three conditions for Sp(2n); an equivalence.

    Order-2 means order exactly two: the trivial character passes the first
    condition.  A pair {a, b} with a = b q is found from b, and one with
    a b = q^{+-1} from either member, so one lookup per value and partner
    replaces the walk over pairs.
    """
    q = _common_q(chars)
    vals = [c.value for c in chars]
    counts = Counter(vals)
    for v in vals:
        if v == -1 or v == q or v * q == 1:
            return False
        if _has_partner(counts, v, (v * q, q / v, 1 / (q * v))):
            return False
    return True


def so_irreducible_sufficient(chars: Sequence[UnramChar]) -> bool:
    """Sufficient irreducibility test for split SO(4n); not an equivalence.

    The pair conditions are looked up per value as in ``sp_irreducible``;
    a/b = 1 is a repeated value.
    """
    q = _common_q(chars)
    vals = [c.value for c in chars]
    counts = Counter(vals)
    for v in vals:
        if v * v == 1:
            return False
        if _has_partner(counts, v, (v, v * q, 1 / v, q / v, 1 / (q * v))):
            return False
    return True


def orbit_size(chars: Sequence[UnramChar], group: str) -> int:
    """Size of the refinement orbit: the value tuple's orbit under the Weyl group.

    A signed permutation places the classes {v, 1/v} of the values on the
    n positions and picks one member of each placed class.  So the type C
    orbit has n! / prod m_c! arrangements of classes, m_c counting the
    values in class c, times 2 for each value other than +-1.  Type D
    allows only an even number of inversions: with a value +-1 present its
    inversion is free and the orbit is the type C one; without one, the
    type C stabilizer flips an even number of signs (a position sent from v
    to 1/v is matched by one sent back), so the orbit splits in two halves.
    """
    if group not in ("C", "D"):
        raise ValueError("group must be 'C' or 'D'")
    vals = [c.value for c in chars]
    classes = Counter(min(v, 1 / v) for v in vals)
    size = factorial(len(vals))
    for m in classes.values():
        size //= factorial(m)
    signed = sum(1 for v in vals if v * v != 1)
    size <<= signed
    if group == "D" and signed == len(vals):
        size //= 2
    return size


def completely_refinable(chars: Sequence[UnramChar], group: str) -> bool:
    """Whether every Weyl translate of the character gives a refinement.

    This holds exactly when the full unramified induction is irreducible, so
    the test delegates to the group's irreducibility predicate; for type D
    that predicate is sufficient-only and so is this one.
    """
    if group == "C":
        return sp_irreducible(chars)
    if group == "D":
        return so_irreducible_sufficient(chars)
    raise ValueError("group must be 'C' or 'D'")
