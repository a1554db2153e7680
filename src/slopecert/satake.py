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

The exponents are the rho-shifts of the dual groups; the schemas differ only
in whether the index range holds 0 (``zero_index``).  A Weyl element w moves
one refinement of the same unramified representation to another; since both
refinements see the same Frobenius multiset, the slope vector at the new
refinement is obtained by permuting the extended valuation list,

    val'(i) = val(w(i)),      val(-i) = -val(i),  val(0) = 0,

and solving back for phi' (the closed form is ``change_refinement``'s).  This
action is forced by multiset invariance and agrees with the classical
instance formulas for sign-free w exactly.  An alternative transcription
circulates that differs in the sign of q(1 - sign w(i)) in the exponent of
f, q = r + zero_index; it breaks multiset invariance on sign-flipping w but
is kept behind ``paper_sign=True`` for side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .lattice import LocalDatum, WeightTable, over_common_denominator, sign_extended
from .weyl import SignedPerm


@dataclass(frozen=True)
class RefinedSlopes:
    """Refinement slope vector phi[1..r] at one place, with sign extension."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "values", tuple(v if isinstance(v, Fraction) else Fraction(v) for v in self.values)
        )

    @property
    def rank(self) -> int:
        return len(self.values)

    def slope(self, i: int) -> Fraction:
        """phi[i] for i in -rank..rank with phi[-i] = -phi[i], phi[0] = 0."""
        return sign_extended(self.values, i)

    @cached_property
    def scaled(self) -> tuple:
        """(values times D as ints, D) with D the values' least common denominator."""
        return over_common_denominator(self.values)


def zero_index(schema: str) -> int:
    """1 if the schema's extended index range holds 0 (C), 0 if not (D); the
    module rank is then 2r + zero_index and the rho-shift of index i is r + zero_index - i."""
    if schema not in ("C", "D"):
        raise ValueError("schema must be 'C' or 'D'")
    return int(schema == "C")


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
    z = zero_index(schema)
    e = local.e
    nums, d = phi.scaled  # every value over the denominator e * d
    vals = [
        ((rank + z - i) * local.f * e + weights.column_sum(i)) * d + nums[rank - i] * e
        for i in range(1, rank + 1)
    ]
    return tuple(Fraction(v, e * d) for v in sorted(vals + [-v for v in vals] + [0] * z))


def hodge_tate_weights(
    local: LocalDatum, rank: int, weights: WeightTable, schema: str = "C"
) -> tuple:
    """Per-embedding sorted Hodge-Tate weights of the attached crystalline module.

    Schema C: {0} and +-(k[sigma][i] + n + 1 - i); schema D: +-(k[sigma][i] + r - i),
    the rho-shifts of SO(2n+1) resp. SO(2r).
    """
    if weights.rank != rank:
        raise ValueError("rank mismatch")
    z = zero_index(schema)
    out = []
    for sigma in range(1, weights.embeddings + 1):
        pos = [weights.entry(sigma, i) + (rank + z - i) for i in range(1, rank + 1)]
        out.append(tuple(sorted([-w for w in pos] + [0] * z + pos)))
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
    For i = 1..r, with s = sign(w(i)), q = r + zero_index and c = -1,

        phi'[r+1-i] = phi[s(r+1) - w(i)] + (i - w(i) + c q (1-s)) f + (K(w(i)) - K(i)) / e,

    K the sign-extended column sum of the weights: this solves
    val'(i) = val(w(i)) and so preserves the Frobenius slope multiset.
    ``paper_sign`` takes c = +1, the transcribed exponent; the two
    conventions differ in the sign of q(1 - sign w(i)), so they agree for
    sign-free w and differ (by design) for sign-flipping w.
    """
    r = phi.rank
    if w.n != r or weights.rank != r:
        raise ValueError("rank mismatch")
    q = r + zero_index(w.family)  # rho-shift in the q-exponent
    c = 1 if paper_sign else -1
    e = local.e
    nums, d = phi.scaled  # phi[j] = nums[j-1] / d; the result is over e * d
    new = [None] * r
    for i in range(1, r + 1):
        wi = w(i)
        s = 1 if wi > 0 else -1
        term = (i - wi + c * q * (1 - s)) * local.f * e + weights.column_sum(wi) - weights.column_sum(i)
        new[r - i] = Fraction(sign_extended(nums, s * (r + 1) - wi) * e + term * d, e * d)
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
