"""Dictionary between Hecke-Iwahori slopes, refinements and crystalline data.

At an unramified classical point with dominant weight table k and refinement
slope vector phi = (v_p(phi_1), ..., v_p(phi_r)), the linearized Frobenius
eigenvalues have valuations

    schema C (split symplectic group of rank n, selfdual module of rank 2n+1):
        val(i) = (n+1-i) * f + phi[n+1-i] + (1/e) * sum_sigma k[sigma][i]
        for i = 1..n, together with 0 and the negatives;

    schema D (split even orthogonal group of torus rank r, module rank 2r):
        val(i) = (r-i) * f + phi[r+1-i] + (1/e) * sum_sigma k[sigma][i]
        for i = 1..r, together with the negatives (no zero entry).

The exponents are the rho-shifts of the dual groups.  A Weyl element w moves
one refinement of the same unramified representation to another; since both
refinements see the same Frobenius multiset, the slope vector at the new
refinement is obtained by permuting the extended valuation list,

    val'(i) = val(w(i)),      val(-i) = -val(i),  val(0) = 0,

and solving back for phi'.  This action is forced by multiset invariance and
agrees with the classical instance formulas for sign-free w exactly.  For
sign-flipping w an alternative transcription with the opposite
(sign(i) - sign(w(i))) convention circulates; it breaks multiset invariance
but is kept behind ``paper_sign=True`` for side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import LocalDatum, WeightTable
from .weyl import SignedPerm


@dataclass(frozen=True)
class RefinedSlopes:
    """Refinement slope vector phi[1..r] at one place, with sign extension."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))

    @property
    def rank(self) -> int:
        return len(self.values)

    def slope(self, i: int) -> Fraction:
        """phi[i] for i in -rank..rank with phi[-i] = -phi[i], phi[0] = 0."""
        if i == 0:
            return Fraction(0)
        if i > 0:
            return self.values[i - 1]
        return -self.values[-i - 1]

    def total(self) -> Fraction:
        return sum(self.values, Fraction(0))


def _weight_column_mean(local: LocalDatum, weights: WeightTable, i: int) -> Fraction:
    """(1/e) * sum over embeddings of k[sigma][i]; extended index allowed."""
    return Fraction(weights.column_sum(i), local.e)


def satake_valuation(
    local: LocalDatum, weights: WeightTable, phi: RefinedSlopes, schema: str, i: int
) -> Fraction:
    """v_p of the i-th Satake torus entry, for i in the full extended index range."""
    r = phi.rank
    if i == 0:
        if schema == "D":
            raise ValueError("schema D has no index 0")
        return Fraction(0)
    sign = 1 if i > 0 else -1
    j = abs(i)
    if schema == "C":
        base = (r + 1 - j) * local.f + phi.slope(r + 1 - j) + _weight_column_mean(local, weights, j)
    elif schema == "D":
        base = (r - j) * local.f + phi.slope(r + 1 - j) + _weight_column_mean(local, weights, j)
    else:
        raise ValueError("schema must be 'C' or 'D'")
    return sign * base


def frobenius_slopes(
    local: LocalDatum,
    rank: int,
    weights: WeightTable,
    phi: RefinedSlopes,
    schema: str = "C",
) -> tuple:
    """Sorted multiset of crystalline Frobenius slopes at an unramified point.

    Schema C returns 2*rank+1 values including 0; schema D returns 2*rank
    values.  The multiset is closed under negation.
    """
    if phi.rank != rank or weights.rank != rank:
        raise ValueError("rank mismatch between weights and slopes")
    vals = [satake_valuation(local, weights, phi, schema, i) for i in range(1, rank + 1)]
    out = vals + [-v for v in vals]
    if schema == "C":
        out.append(Fraction(0))
    return tuple(sorted(out))


def hodge_tate_weights(
    local: LocalDatum, rank: int, weights: WeightTable, schema: str = "C"
) -> tuple:
    """Per-embedding sorted Hodge-Tate weights of the attached crystalline module.

    Schema C: {0} and +-(k[sigma][i] + n + 1 - i); schema D: +-(k[sigma][i] + r - i),
    the rho-shifts of SO(2n+1) resp. SO(2r).
    """
    if weights.rank != rank:
        raise ValueError("rank mismatch")
    out = []
    for sigma in range(1, weights.embeddings + 1):
        if schema == "C":
            pos = [weights.entry(sigma, i) + (rank + 1 - i) for i in range(1, rank + 1)]
            row = sorted([-w for w in pos] + [0] + pos)
        elif schema == "D":
            pos = [weights.entry(sigma, i) + (rank - i) for i in range(1, rank + 1)]
            row = sorted([-w for w in pos] + pos)
        else:
            raise ValueError("schema must be 'C' or 'D'")
        out.append(tuple(row))
    return tuple(out)


def change_refinement(
    w: SignedPerm,
    local: LocalDatum,
    weights: WeightTable,
    phi: RefinedSlopes,
    paper_sign: bool = False,
) -> RefinedSlopes:
    """Slope vector of the refinement obtained by acting with w.

    The representation and its weight are fixed; only the ordering data moves.
    Default mode solves val'(i) = val(w(i)) for phi', which preserves the
    Frobenius slope multiset by construction.  ``paper_sign`` instead applies
    the transcribed exponent with the (sign(i) - sign(w(i))) convention; the
    two agree for sign-free w and differ (by design) for sign-flipping w.
    """
    r = phi.rank
    if w.n != r or weights.rank != r:
        raise ValueError("rank mismatch")
    schema = w.family
    q_shift = (r + 1) if schema == "C" else r  # rho-shift in the q-exponent
    phi_shift = r + 1  # the phi functions are indexed by r+1-i in both schemas

    new = [Fraction(0)] * r
    if not paper_sign:
        for i in range(1, r + 1):
            target = satake_valuation(local, weights, phi, schema, w(i))
            # val'(i) = (q_shift-i) f + phi'[r+1-i] + weight mean; solve for phi'.
            base = (q_shift - i) * local.f + _weight_column_mean(local, weights, i)
            new[r - i] = target - base  # slot r+1-i, 0-based index r-i
        return RefinedSlopes(tuple(new))

    for i in range(1, r + 1):
        wi = w(i)
        sgn_w = 1 if wi > 0 else -1
        src_index = phi_shift * sgn_w - wi  # extended phi index of the source slot
        exponent = i - wi + q_shift * (1 - sgn_w)  # (sign(i) - sign(w(i))) convention
        kdiff = _weight_column_mean(local, weights, wi) - _weight_column_mean(local, weights, i)
        new[r - i] = phi.slope(src_index) + exponent * local.f + kdiff
    return RefinedSlopes(tuple(new))


def classicality_general(delta_groups: Sequence[Sequence[tuple]], mu_slopes: Sequence) -> bool:
    """Small-slope criterion in root-datum form.

    ``delta_groups[i]`` lists pairs (n_alpha, v_p(alpha(eta_i))) over the
    simple roots restricting to the i-th simple coweight direction;
    classicality holds when v_p(mu_i) < -(1 + n_alpha) * v_p(alpha(eta_i))
    strictly for every root of every group.
    """
    if len(delta_groups) != len(mu_slopes):
        raise ValueError("need one eigenvalue slope per simple-root group")
    for group, mu in zip(delta_groups, mu_slopes):
        mu = Fraction(mu)
        for n_alpha, v_alpha in group:
            if not mu < -(1 + Fraction(n_alpha)) * Fraction(v_alpha):
                return False
    return True


def classicality_sp(
    local: LocalDatum, n: int, weights: WeightTable, mu_slopes: Sequence
) -> bool:
    """Small-slope criterion for the rank-n split symplectic group at one place.

    v_p(mu_i) < (1/e) inf_sigma (1 + k[sigma][i] - k[sigma][i+1])   for i < n,
    v_p(mu_n) < (1/e) inf_sigma (2 + 2 k[sigma][n]).
    """
    if weights.rank != n or len(mu_slopes) != n:
        raise ValueError("rank mismatch")
    e = local.e
    for i in range(1, n + 1):
        mu = Fraction(mu_slopes[i - 1])
        for sigma in range(1, weights.embeddings + 1):
            if i < n:
                bound = Fraction(1 + weights.entry(sigma, i) - weights.entry(sigma, i + 1), e)
            else:
                bound = Fraction(2 + 2 * weights.entry(sigma, n), e)
            if not mu < bound:
                return False
    return True


def sp_delta_groups(local: LocalDatum, n: int, weights: WeightTable) -> list:
    """The C_n root data feeding `classicality_general`, matching `classicality_sp`.

    The i-th Atkin-Lehner generator eta_i scales the first i torus entries by
    an inverse uniformizer, so v_p(alpha(eta_i)) = -1/e on the short simple
    roots and -2/e on the long one; n_alpha is the weight pairing.
    """
    groups = []
    for i in range(1, n + 1):
        group = []
        for sigma in range(1, weights.embeddings + 1):
            if i < n:
                group.append(
                    (weights.entry(sigma, i) - weights.entry(sigma, i + 1), Fraction(-1, local.e))
                )
            else:
                group.append((weights.entry(sigma, n), Fraction(-2, local.e)))
        groups.append(group)
    return groups
