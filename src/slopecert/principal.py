"""Irreducibility predicates for unramified principal series and refinement orbits.

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

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import MixedResidue
from .weyl import weyl_elements


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


def sp_irreducible(chars: Sequence[UnramChar]) -> bool:
    """Tadic's three conditions for Sp(2n); an equivalence.

    Order-2 means order exactly two: the trivial character passes the first
    condition.
    """
    q = _common_q(chars)
    nu = Fraction(1, q)
    vals = [c.value for c in chars]
    for v in vals:
        if v == -1:
            return False
        if v == nu or v == 1 / nu:
            return False
    for a, b in combinations(vals, 2):
        if a / b in (nu, 1 / nu) or a * b in (nu, 1 / nu):
            return False
    return True


def so_irreducible_sufficient(chars: Sequence[UnramChar]) -> bool:
    """Sufficient irreducibility test for split SO(4n); not an equivalence."""
    q = _common_q(chars)
    qf = Fraction(q)
    vals = [c.value for c in chars]
    for v in vals:
        if v * v == 1:
            return False
    for a, b in combinations(vals, 2):
        if a * b in (1, qf, 1 / qf) or a / b in (1, qf, 1 / qf):
            return False
    return True


def refinement_orbit(chars: Sequence[UnramChar], group: str) -> set:
    """Orbit of the value tuple under the signed-permutation action.

    w sends the tuple (v_1..v_n) to (v_{w^{-1}(1)}, ...) with negative
    indices acting by inversion.  The orbit has the full group order exactly
    when the 2n quantities {v_i, 1/v_i} are pairwise distinct.
    """
    vals = tuple(c.value for c in chars)
    n = len(vals)

    def act(w, tup):
        out = []
        winv = w.inverse()
        for i in range(1, n + 1):
            j = winv(i)
            out.append(tup[j - 1] if j > 0 else 1 / tup[-j - 1])
        return tuple(out)

    return {act(w, vals) for w in weyl_elements(group, n)}


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
