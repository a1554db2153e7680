"""Desk-scale filtered Frobenius-module model and the slope/weight alignment lemma.

A datum is a rank-N list of Frobenius slopes v_p(phi_i) together with one
ascending list of Hodge-Tate weights kappa[sigma][1..N] per embedding, over
a place of ramification e and residue degree f.  Sub-objects spanned by
eigenlines are indexed by subsets I of {1..N}; weak admissibility of such a
sub-object and of its quotient relaxes to the ascending-prefix system

    sum_{y<=x} slopes[i_y]  >=  (1/e) sum_sigma sum_{y<=x} kappa[sigma][theta_sigma(i_y)]

for every prefix of I (elements ascending) and of its complement, with both
totals holding exactly, where theta_sigma is increasing on I and on the
complement.  The alignment lemma says: when every slope sits within
min-gap(kappa[tau]) / (e N) of its weight mean, every candidate that passes
the system induces the identity weight assignment on row tau.  This module
certifies exactly that combinatorial statement, every candidate list and
search running on the integer kernel in ``kernels``; ``candidate_passes``
states the system on Fractions, as its definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import NotDistinct
from .lattice import over_common_denominator


@dataclass(frozen=True)
class PhiModuleDatum:
    """Slopes, per-embedding ascending weights, and the local shape (e, f)."""

    e: int
    f: int
    slopes: tuple
    weights: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "slopes", tuple(s if isinstance(s, Fraction) else Fraction(s) for s in self.slopes)
        )
        object.__setattr__(
            self, "weights", tuple(tuple(int(k) for k in row) for row in self.weights)
        )
        if self.e < 1 or self.f < 1:
            raise ValueError("need e >= 1 and f >= 1")
        n = len(self.slopes)
        for row in self.weights:
            if len(row) != n:
                raise ValueError("weight rows must have length N")
            if any(row[j] > row[j + 1] for j in range(n - 1)):
                raise ValueError(f"weight row {row} is not ascending")

    @property
    def rank(self) -> int:
        return len(self.slopes)

    @cached_property
    def distinct_flag(self) -> bool:
        """Whether the slopes are pairwise distinct (sub-objects are then spanned by eigenlines)."""
        return len(set(self.slopes)) == self.rank

    @property
    def embeddings(self) -> int:
        return len(self.weights)

    def weight_mean(self, i: int) -> Fraction:
        """(1/e) sum_sigma kappa[sigma][i], the center the i-th slope tracks."""
        return Fraction(sum(row[i - 1] for row in self.weights), self.e)

    # The cached properties depend on no tau; a frozen instance computes
    # each once for all of its alignment checks.
    @cached_property
    def max_deviation(self) -> Fraction:
        """max |deviation|, 0 at rank 0."""
        # deviation i is (scaled[i] e - D sum_sigma kappa[sigma][i]) / (D e)
        scaled, denom = self.scaled_slopes
        worst = max(
            (abs(v * self.e - denom * sum(row[i] for row in self.weights)) for i, v in enumerate(scaled)),
            default=0,
        )
        return Fraction(worst, denom * self.e)

    @cached_property
    def scaled_slopes(self) -> tuple:
        """(slopes times D as ints, D) with D the slopes' least common denominator."""
        return over_common_denominator(self.slopes)

    def min_gap(self, tau: int) -> Optional[int]:
        """Minimal consecutive gap of the tau-th weight row; None when N = 1."""
        row = self.weights[tau - 1]
        if len(row) < 2:
            return None
        return min(row[j + 1] - row[j] for j in range(len(row) - 1))


@dataclass(frozen=True)
class SubmoduleCandidate:
    """A subset I (ascending, 1-based) with per-embedding glued bijections.

    ``theta[sigma-1][i-1]`` is the image of index i; each bijection is
    increasing on I and increasing on the complement.
    """

    subset: tuple
    theta: tuple

    def theta_row(self, sigma: int) -> tuple:
        return self.theta[sigma - 1]


def newton_above_hodge(datum: PhiModuleDatum) -> bool:
    """Newton-above-Hodge with endpoint equality, on sorted prefixes.

    Sorting the slopes ascending, every prefix sum must dominate the matching
    prefix of the per-index weight means, with equality at full rank.
    """
    n = datum.rank
    slopes = sorted(datum.slopes)
    newt = Fraction(0)
    hodge = Fraction(0)
    for i in range(1, n + 1):
        newt += slopes[i - 1]
        hodge += datum.weight_mean(i)
        if i < n:
            if newt < hodge:
                return False
        elif newt != hodge:
            return False
    return True


def _theta_from_images(n: int, subset, images) -> tuple:
    """Glue the increasing maps subset->images and complement->complement."""
    comp = [i for i in range(1, n + 1) if i not in subset]
    comp_img = [j for j in range(1, n + 1) if j not in images]
    out = [0] * n
    for pos, i in enumerate(subset):
        out[i - 1] = images[pos]
    for pos, i in enumerate(comp):
        out[i - 1] = comp_img[pos]
    return tuple(out)


def candidate_passes(datum: PhiModuleDatum, subset, theta) -> bool:
    """Ascending-prefix system for the subset and its complement, totals exact."""
    n = datum.rank
    comp = tuple(i for i in range(1, n + 1) if i not in subset)
    for part in (tuple(subset), comp):
        newt = Fraction(0)
        hodge = Fraction(0)
        for x, i in enumerate(part):
            newt += datum.slopes[i - 1]
            hodge += Fraction(
                sum(datum.weights[s][theta[s][i - 1] - 1] for s in range(datum.embeddings)),
                datum.e,
            )
            if x + 1 < len(part):
                if newt < hodge:
                    return False
            elif newt != hodge:
                return False
    return True


def hypothesis_margin(datum: PhiModuleDatum, tau: int) -> Optional[Fraction]:
    """Signed slack of the alignment hypothesis at row tau.

    bound - max |deviation| with bound = min-gap(tau) / (e N); nonnegative
    means the hypothesis holds.  None for rank 1, where the gap minimum is
    over an empty range and the hypothesis is vacuous.
    """
    gap = datum.min_gap(tau)
    if gap is None:
        return None
    dev, scale = datum.max_deviation, datum.e * datum.rank
    return Fraction(gap * dev.denominator - dev.numerator * scale, scale * dev.denominator)


CERTIFIED = "certified"
HYPOTHESIS_FAILED = "hypothesis_failed"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class AlignmentResult:
    status: str
    margin: Optional[Fraction] = None

    def __bool__(self):
        return self.status == CERTIFIED


def _witness_from_masks(datum: PhiModuleDatum, mask: int, img_masks) -> SubmoduleCandidate:
    n = datum.rank
    subset = tuple(b + 1 for b in range(n) if mask >> b & 1)
    theta = tuple(
        _theta_from_images(n, subset, tuple(b + 1 for b in range(n) if im >> b & 1))
        for im in img_masks
    )
    return SubmoduleCandidate(subset, theta)


def admissible_candidates(datum: PhiModuleDatum) -> list:
    """Every passing candidate, subsets by size then lexicographic.

    Image sets are enumerated lexicographically per embedding, the last
    embedding varying fastest: the kernel's order.
    """
    if not datum.distinct_flag:
        raise NotDistinct("candidate enumeration needs pairwise distinct slopes")
    from . import kernels  # loads numpy: only a job that runs the kernel pays for it

    scaled, denom = datum.scaled_slopes
    found = kernels.tables_for(datum.weights).candidates(scaled, datum.e, denom)
    return [_witness_from_masks(datum, mask, img) for mask, img in found]


def find_misaligned_candidate(datum: PhiModuleDatum, tau: int) -> Optional[SubmoduleCandidate]:
    """First passing candidate whose tau-assignment moves a weight value.

    A candidate with theta_tau permuting equal weights is aligned: the lemma
    constrains the induced weight multiset, not index bookkeeping.
    """
    from . import kernels

    scaled, denom = datum.scaled_slopes
    found, mask, img = kernels.find_candidate(datum.weights, scaled, datum.e, denom, tau - 1)
    if not found:
        return None
    return _witness_from_masks(datum, mask, img)


def alignment_check(datum: PhiModuleDatum, tau: int) -> AlignmentResult:
    """Certify the alignment lemma for one datum and distinguished embedding.

    Order of business: the deviation hypothesis is tested first and a failure
    reported with its signed slack; then distinctness is required; then the
    candidate space is searched.  A CounterExample outcome under a satisfied
    hypothesis would falsify the lemma and must never occur.
    """
    margin = hypothesis_margin(datum, tau)
    if margin is not None and margin < 0:
        return AlignmentResult(HYPOTHESIS_FAILED, margin=margin)
    if not datum.distinct_flag:
        raise NotDistinct("alignment check needs pairwise distinct slopes")
    misaligned = find_misaligned_candidate(datum, tau) is not None
    return AlignmentResult(COUNTEREXAMPLE if misaligned else CERTIFIED, margin=margin)
