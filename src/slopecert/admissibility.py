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
from typing import Optional

from . import kernels
from .errors import NotDistinct


@dataclass(frozen=True)
class PhiModuleDatum:
    """Slopes, per-embedding ascending weights, and the local shape (e, f).

    ``distinct_flag`` records whether the slopes are treated as pairwise
    distinct (sub-objects are then spanned by eigenlines).  It defaults to
    the actual pairwise distinctness but may be forced by callers modelling
    an infinitesimally perturbed datum.
    """

    e: int
    f: int
    slopes: tuple
    weights: tuple
    distinct_flag: Optional[bool] = None

    def __post_init__(self):
        object.__setattr__(self, "slopes", tuple(Fraction(s) for s in self.slopes))
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
        if self.distinct_flag is None:
            object.__setattr__(self, "distinct_flag", len(set(self.slopes)) == n)

    @property
    def rank(self) -> int:
        return len(self.slopes)

    @property
    def embeddings(self) -> int:
        return len(self.weights)

    def weight_mean(self, i: int) -> Fraction:
        """(1/e) sum_sigma kappa[sigma][i], the center the i-th slope tracks."""
        return Fraction(sum(row[i - 1] for row in self.weights), self.e)

    def deviations(self) -> tuple:
        return tuple(self.slopes[i] - self.weight_mean(i + 1) for i in range(self.rank))

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


def newton_number(datum: PhiModuleDatum, subset) -> Fraction:
    """Sum of the slopes indexed by the subset (1-based indices)."""
    return sum((datum.slopes[i - 1] for i in subset), Fraction(0))


def hodge_number(datum: PhiModuleDatum, subset, theta) -> Fraction:
    """(1/e) sum_sigma sum_{i in subset} kappa[sigma][theta_sigma(i)]."""
    total = 0
    for sigma in range(datum.embeddings):
        row = datum.weights[sigma]
        th = theta[sigma]
        total += sum(row[th[i - 1] - 1] for i in subset)
    return Fraction(total, datum.e)


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
    bound = Fraction(gap, datum.e * datum.rank)
    worst = max((abs(d) for d in datum.deviations()), default=Fraction(0))
    return bound - worst


CERTIFIED = "certified"
HYPOTHESIS_FAILED = "hypothesis_failed"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class AlignmentResult:
    status: str
    margin: Optional[Fraction] = None
    witness: Optional[SubmoduleCandidate] = None

    def __bool__(self):
        return self.status == CERTIFIED


def _scaled_ints(datum: PhiModuleDatum):
    import math

    denom = 1
    for s in datum.slopes:
        denom = denom * s.denominator // math.gcd(denom, s.denominator)
    scaled = [int(s * denom) for s in datum.slopes]
    return scaled, denom


def _witness_from_masks(datum: PhiModuleDatum, mask: int, img_masks) -> SubmoduleCandidate:
    n = datum.rank
    subset = tuple(b + 1 for b in range(n) if mask >> b & 1)
    theta = tuple(
        _theta_from_images(n, subset, tuple(b + 1 for b in range(n) if im >> b & 1))
        for im in img_masks
    )
    return SubmoduleCandidate(subset, theta)


def admissible_candidates(
    datum: PhiModuleDatum, tables: Optional[kernels.CandidateTables] = None
) -> list:
    """Every passing candidate, subsets by size then lexicographic.

    Image sets are enumerated lexicographically per embedding, the last
    embedding varying fastest: the kernel's order.  ``tables``, built for
    ``datum.weights``, lets this share the kernel's reachable sets with
    ``alignment_check``.
    """
    if not datum.distinct_flag:
        raise NotDistinct("candidate enumeration needs pairwise distinct slopes")
    scaled, denom = _scaled_ints(datum)
    found = kernels.tables_for(datum.weights, tables).candidates(scaled, datum.e, denom, 0, False)
    return [_witness_from_masks(datum, mask, img) for mask, img in found]


def find_misaligned_candidate(
    datum: PhiModuleDatum, tau: int, tables: Optional[kernels.CandidateTables] = None
) -> Optional[SubmoduleCandidate]:
    """First passing candidate whose tau-assignment moves a weight value.

    A candidate with theta_tau permuting equal weights is aligned: the lemma
    constrains the induced weight multiset, not index bookkeeping.
    ``tables``, built for ``datum.weights``, lets calls for several tau
    share the kernel's reachable sets.
    """
    scaled, denom = _scaled_ints(datum)
    found, mask, img = kernels.find_candidate(
        datum.weights, scaled, datum.e, denom, tau - 1, require_misaligned=True, tables=tables
    )
    if not found:
        return None
    return _witness_from_masks(datum, mask, img)


def alignment_check(
    datum: PhiModuleDatum, tau: int, tables: Optional[kernels.CandidateTables] = None
) -> AlignmentResult:
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
    witness = find_misaligned_candidate(datum, tau, tables=tables)
    if witness is not None:
        return AlignmentResult(COUNTEREXAMPLE, margin=margin, witness=witness)
    return AlignmentResult(CERTIFIED, margin=margin)
