"""Three-step deformation replay forcing (quasi-)irreducible slope configurations.

Starting from an arbitrary refinement slope vector at each place, the replay
walks the deformation used to break unwanted splittings:

1. pick weights k1 deep enough in the cone  2/e sum k > -v_p(prod phi) + 3*S*f
   (S = n(n+1) for the symplectic schema, r(r-1) for the orthogonal one, the
   rho-sum margin covering either sign convention), then flip the refinement
   by the -Id Weyl element;
2. at a nearby point with the same slopes, pick weights k2 whose column-sum
   gaps dominate  -v_p(phi_{-j+1}) - f  for j = -(rank-1)..-1, then rotate
   the refinement by the sign-free shift cycle;
3. at a nearby point with the same slopes, pick weights k3 with
   (1/(e N)) min{gaps, k_rank} strictly above max(0, |nu(i)|), N the rank of
   the ambient module, so the alignment lemma pins every admissible
   splitting to a slope-index subset.

Steps 1 and 2 also require every gap k[sigma][i] - k[sigma][i+1] and every
k[sigma][rank] to be positive.  Each step's weights are the first point of
its gap cone in the order total coordinate sum ascending, then reading-order
lexicographic; ``cone.cone_find`` gives that point in closed form, from
structured bounds (gap, column gaps, total) rather than linear forms.

The surviving subsets are then enumerated exactly: a proper subset of the
extended index range survives when its ascending prefix sums of nu and those
of its complement stay nonnegative with both totals zero.  The symplectic
schema must end with the zero index as the only survivor (an Artin line plus
an irreducible complement); the orthogonal schema with no survivor at all.

Every inequality, margin and survivor is recorded in a certificate that a
standalone verifier can replay from the seed and weight tables alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .admissibility import PhiModuleDatum, alignment_check, CERTIFIED
from .cone import DEFAULT_MAX_SUM, LinearForm, cone_find, gap_form
from .errors import EmptyCone, StepFailed, VerdictFailed
from .kernels import CandidateTables
from .lattice import LocalDatum, WeightTable, rat_str, parse_rat, very_regular
from .satake import RefinedSlopes, change_refinement, frobenius_slopes, hodge_tate_weights
from .weyl import minus_identity, shift_cycle

ARTIN_PLUS_IRREDUCIBLE = "ArtinPlusIrreducible"
IRREDUCIBLE = "Irreducible"
FAILED = "Failed"


@dataclass(frozen=True)
class NormalizedSlopes:
    """Deviations nu(i) = v_p(phi_i) on the extended index range of one place.

    Schema C uses indices -rank..rank including 0 (nu(0) = 0); schema D uses
    -rank..-1, 1..rank.  Only the positive half is stored; nu(-i) = -nu(i).
    """

    schema: str
    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        if self.schema not in ("C", "D"):
            raise ValueError("schema must be 'C' or 'D'")

    @property
    def rank(self) -> int:
        return len(self.values)

    def indices(self) -> tuple:
        r = self.rank
        if self.schema == "C":
            return tuple(range(-r, r + 1))
        return tuple(i for i in range(-r, r + 1) if i != 0)

    def value(self, i: int) -> Fraction:
        if i == 0:
            if self.schema == "D":
                raise ValueError("schema D has no zero index")
            return Fraction(0)
        return self.values[i - 1] if i > 0 else -self.values[-i - 1]


def certify_splittings(nu: NormalizedSlopes) -> Tuple[list, str]:
    """Enumerate surviving proper subsets (up to complement) and the verdict.

    A subset survives when, walking it and its complement in ascending index
    order, every prefix sum of nu is >= 0 and both totals vanish.  Verdict:
    ArtinPlusIrreducible when the zero singleton is the only survivor
    (schema C), Irreducible when nothing survives, Failed otherwise.
    """
    idx = nu.indices()
    n = len(idx)
    vals = [nu.value(i) for i in idx]

    def walk_ok(positions) -> bool:
        total = Fraction(0)
        for p in positions:
            total += vals[p]
            if total < 0:
                return False
        return total == 0

    survivors = []
    seen = set()
    for mask in range(1, (1 << n) - 1):
        if mask in seen:
            continue
        comp = ((1 << n) - 1) ^ mask
        seen.add(comp)
        inside = [p for p in range(n) if mask >> p & 1]
        outside = [p for p in range(n) if comp >> p & 1]
        if walk_ok(inside) and walk_ok(outside):
            a = tuple(idx[p] for p in inside)
            b = tuple(idx[p] for p in outside)
            survivors.append(min((a, b), key=lambda t: (len(t), t)))
    survivors.sort(key=lambda t: (len(t), t))
    if nu.schema == "C" and survivors == [(0,)]:
        return survivors, ARTIN_PLUS_IRREDUCIBLE
    if not survivors:
        return survivors, IRREDUCIBLE
    return survivors, FAILED


@dataclass
class PlaceRecord:
    """Everything the replay produced at one place."""

    local: LocalDatum
    seed: RefinedSlopes
    k1: Optional[WeightTable] = None
    x1p: Optional[RefinedSlopes] = None
    k2: Optional[WeightTable] = None
    x2p: Optional[RefinedSlopes] = None
    k3: Optional[WeightTable] = None
    step_checks: List[dict] = field(default_factory=list)
    hypothesis_margins: List[Fraction] = field(default_factory=list)
    survivors: List[tuple] = field(default_factory=list)
    structural_ok: bool = True
    failure: Optional[str] = None


@dataclass
class Certificate:
    """Full record of a deformation replay; serializable and re-checkable."""

    schema: str
    rank: int
    module_rank: int
    paper_sign: bool
    places: List[PlaceRecord]
    verdict: str
    failure_reason: Optional[str] = None

    def to_dict(self) -> dict:
        def slopes_out(s):
            return [rat_str(v) for v in s.values] if s is not None else None

        def table_out(t):
            return [list(r) for r in t.rows] if t is not None else None

        return {
            "schema": self.schema,
            "rank": self.rank,
            "module_rank": self.module_rank,
            "paper_sign": self.paper_sign,
            "verdict": self.verdict,
            "failure_reason": self.failure_reason,
            "places": [
                {
                    "local": {"p": pr.local.p, "e": pr.local.e, "f": pr.local.f},
                    "seed": slopes_out(pr.seed),
                    "k1": table_out(pr.k1),
                    "x1_prime": slopes_out(pr.x1p),
                    "k2": table_out(pr.k2),
                    "x2_prime": slopes_out(pr.x2p),
                    "k3": table_out(pr.k3),
                    "step_checks": pr.step_checks,
                    "hypothesis_margins": [rat_str(mg) for mg in pr.hypothesis_margins],
                    "survivors": [list(s) for s in pr.survivors],
                    "structural_ok": pr.structural_ok,
                    "failure": pr.failure,
                }
                for pr in self.places
            ],
        }


def _ceil_to_int_if_fractional(b: Fraction) -> Fraction:
    """Margin policy: strict bounds are ceiled so integer forms clear them by >= 1."""
    b = Fraction(b)
    if b.denominator == 1:
        return b
    return Fraction(-((-b.numerator) // b.denominator))


def _column_gap_form(m: int, rank: int, i: int) -> LinearForm:
    """sum_sigma (k[sigma][i] - k[sigma][i+1])."""
    entries = {}
    for s in range(1, m + 1):
        entries[(s, i)] = 1
        entries[(s, i + 1)] = -1
    return LinearForm.from_entries(m, rank, entries)


def _run_place(
    schema: str,
    rank: int,
    local: LocalDatum,
    seed: RefinedSlopes,
    paper_sign: bool,
    max_sum: int,
    skip_step1: bool,
    place_index: int,
) -> PlaceRecord:
    e, f, m = local.e, local.f, local.embeddings
    module_rank = 2 * rank + 1 if schema == "C" else 2 * rank
    rho_margin = 3 * rank * (rank + 1) if schema == "C" else 3 * rank * (rank - 1)
    rec = PlaceRecord(local=local, seed=seed)

    # -- step 1: push the total weight past the product valuation, flip by -Id
    bound1 = _ceil_to_int_if_fractional(e * (-seed.total() + rho_margin * f))
    if skip_step1:
        rec.k1 = WeightTable([[0] * rank for _ in range(m)])
        rec.x1p = seed
    else:
        try:
            rec.k1 = cone_find(rank, m, gap=0, total=bound1 / 2, max_sum=max_sum)
        except EmptyCone as exc:
            raise StepFailed(1, place_index, f"step-1 cone empty at place {place_index}: {exc}")
        flip = minus_identity(schema, rank)
        rec.x1p = change_refinement(flip, local, rec.k1, seed, paper_sign=paper_sign)
    rec.step_checks.append(
        {
            "step": 1,
            "form": "2*sum(k1)",
            "value": rat_str(2 * rec.k1.total()),
            "strict_bound": rat_str(bound1),
            "ok": Fraction(2 * rec.k1.total()) > bound1,
        }
    )

    # -- step 2: nearby point keeps the slopes; open the column gaps, rotate
    x2 = rec.x1p
    # column gap i = rank + j for j = -(rank-1)..-1, i.e. columns 1..rank-1
    bounds = [
        _ceil_to_int_if_fractional(e * (-x2.slope(rank - i + 1) - f)) for i in range(1, rank)
    ]
    try:
        rec.k2 = cone_find(rank, m, gap=0, column_gaps=bounds, max_sum=max_sum)
    except EmptyCone as exc:
        raise StepFailed(2, place_index, f"step-2 cone empty at place {place_index}: {exc}")
    for i, b in enumerate(bounds, 1):
        form = _column_gap_form(m, rank, i)
        rec.step_checks.append(
            {
                "step": 2,
                "form": f"sum_sigma(k2[{i}] - k2[{i + 1}])",
                "value": rat_str(form.value(rec.k2.rows)),
                "strict_bound": rat_str(b),
                "ok": Fraction(form.value(rec.k2.rows)) > b,
            }
        )
    rotate = shift_cycle(rank, schema)
    rec.x2p = change_refinement(rotate, local, rec.k2, x2, paper_sign=paper_sign)

    # -- step 3: weights regular enough for the alignment lemma at x3 = x2'
    nu = rec.x2p
    worst = max([Fraction(0)] + [abs(v) for v in nu.values])
    bound3 = _ceil_to_int_if_fractional(e * module_rank * worst)
    try:
        rec.k3 = cone_find(rank, m, gap=bound3, max_sum=max_sum)
    except EmptyCone as exc:
        raise StepFailed(3, place_index, f"step-3 cone empty at place {place_index}: {exc}")
    for form in (gap_form(m, rank, s, i) for s in range(1, m + 1) for i in range(1, rank + 1)):
        rec.step_checks.append(
            {
                "step": 3,
                "form": "k3 gap",
                "value": rat_str(form.value(rec.k3.rows)),
                "strict_bound": rat_str(bound3),
                "ok": Fraction(form.value(rec.k3.rows)) > bound3,
            }
        )

    # -- alignment hypothesis of the induced Frobenius-module datum
    datum = induced_datum(schema, rank, local, rec.k3, nu)
    tables = CandidateTables(datum.weights)
    for tau in range(1, m + 1):
        result = alignment_check(datum, tau, tables)
        if result.status != CERTIFIED:
            rec.structural_ok = False
            rec.failure = f"alignment {result.status} at embedding {tau}"
        if result.margin is not None:
            rec.hypothesis_margins.append(result.margin)

    # -- splitting certification on the extended index range
    norm = NormalizedSlopes(schema, nu.values)
    rec.survivors, _ = certify_splittings(norm)

    # -- structural facts the argument extracts at x2'
    positives_ok = all(norm.value(i) > 0 for i in range(1, rank))
    top_ok = norm.value(rank) < 0
    total_ok = sum(nu.values, Fraction(0)) < 0
    if not (positives_ok and top_ok and total_ok):
        rec.structural_ok = False
        rec.failure = rec.failure or "structural slope facts violated at x2'"
    return rec


def induced_datum(
    schema: str, rank: int, local: LocalDatum, k3: WeightTable, nu: RefinedSlopes
) -> PhiModuleDatum:
    """The Frobenius-module datum certified at the third point."""
    slopes = frobenius_slopes(local, rank, k3, nu, schema)
    weights = hodge_tate_weights(local, rank, k3, schema)
    return PhiModuleDatum(local.e, local.f, slopes, weights)


def _replay(
    schema: str,
    rank: int,
    locals_: Sequence[LocalDatum],
    seeds: Sequence[RefinedSlopes],
    paper_sign: bool,
    max_sum: int,
    skip_step1: bool,
) -> Certificate:
    if len(locals_) != len(seeds):
        raise ValueError("need one seed slope vector per place")
    for s in seeds:
        if s.rank != rank:
            raise ValueError("seed rank mismatch")
    module_rank = 2 * rank + 1 if schema == "C" else 2 * rank
    places = [
        _run_place(schema, rank, loc, seed, paper_sign, max_sum, skip_step1, i)
        for i, (loc, seed) in enumerate(zip(locals_, seeds))
    ]
    expected = ARTIN_PLUS_IRREDUCIBLE if schema == "C" else IRREDUCIBLE
    expected_survivors = [(0,)] if schema == "C" else []
    verdict = expected
    reason = None
    for i, pr in enumerate(places):
        if pr.survivors != expected_survivors or not pr.structural_ok:
            verdict = FAILED
            reason = pr.failure or f"place {i}: survivors {pr.survivors}"
            break
    cert = Certificate(
        schema=schema,
        rank=rank,
        module_rank=module_rank,
        paper_sign=paper_sign,
        places=places,
        verdict=verdict,
        failure_reason=reason,
    )
    if verdict != expected:
        raise VerdictFailed(
            [pr.survivors for pr in places], certificate=cert,
            message=f"expected {expected}, got {verdict}: {reason}",
        )
    return cert


def replay_symplectic(
    n: int,
    locals_: Sequence[LocalDatum],
    seeds: Sequence[RefinedSlopes],
    paper_sign: bool = False,
    max_sum: int = DEFAULT_MAX_SUM,
    skip_step1: bool = False,
) -> Certificate:
    """Deformation replay for the rank-n symplectic schema (module rank 2n+1).

    Expected verdict: ArtinPlusIrreducible with the zero index as the only
    surviving splitting.  ``skip_step1`` is a fault-injection hook for
    negative controls; it omits the first weight choice and refinement flip.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    return _replay("C", n, locals_, seeds, paper_sign, max_sum, skip_step1)


def replay_orthogonal(
    n: int,
    locals_: Sequence[LocalDatum],
    seeds: Sequence[RefinedSlopes],
    paper_sign: bool = False,
    max_sum: int = DEFAULT_MAX_SUM,
    skip_step1: bool = False,
) -> Certificate:
    """Deformation replay for the even orthogonal schema (torus rank 2n).

    Both Weyl elements exist unconditionally here: 2n sign flips are even,
    and the shift cycle is sign-free.  Expected verdict: Irreducible.
    """
    if n < 1:
        raise ValueError("need n >= 1 (torus rank 2n)")
    return _replay("D", 2 * n, locals_, seeds, paper_sign, max_sum, skip_step1)


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------


def verify_certificate(doc: dict) -> Tuple[bool, list]:
    """Re-derive a certificate from its seed data and compare every field.

    Returns (ok, mismatches).  The verifier re-runs the refinement changes
    from the recorded weight tables, re-checks each step inequality and the
    regularity of k1 and k2, the alignment margins, the survivor enumeration
    and the verdict, all in exact arithmetic.  No step is waived: a
    certificate without places, or one whose step 1 was skipped, is
    rejected.
    """
    mismatches = []

    def check(cond, label):
        if not cond:
            mismatches.append(label)

    schema = doc.get("schema")
    rank = int(doc.get("rank", 0))
    module_rank = int(doc.get("module_rank", 0))
    paper_sign = bool(doc.get("paper_sign", False))
    check(schema in ("C", "D"), "schema")
    check(module_rank == (2 * rank + 1 if schema == "C" else 2 * rank), "module_rank")
    rho_margin = 3 * rank * (rank + 1) if schema == "C" else 3 * rank * (rank - 1)

    expected = ARTIN_PLUS_IRREDUCIBLE if schema == "C" else IRREDUCIBLE
    expected_survivors = [[0]] if schema == "C" else []

    places = doc.get("places") or []
    check(len(places) > 0, "places")
    for pi, pdoc in enumerate(places):
        loc = LocalDatum(**pdoc["local"])
        e, f = loc.e, loc.f
        seed = RefinedSlopes(tuple(parse_rat(v) for v in pdoc["seed"]))
        k1 = WeightTable(pdoc["k1"])
        k2 = WeightTable(pdoc["k2"])
        k3 = WeightTable(pdoc["k3"])
        for name, k in (("k1", k1), ("k2", k2), ("k3", k3)):
            if (k.embeddings, k.rank) != (loc.embeddings, rank):
                raise ValueError(f"place {pi}: {name} is not {loc.embeddings} x {rank}")

        # steps 1 and 2 pick weights with every gap > 0; a zero k1 (a
        # skipped step) is rejected like any other table outside the cone
        check(very_regular(k1, 1), f"place {pi}: k1 regular")
        check(very_regular(k2, 1), f"place {pi}: k2 regular")
        bound1 = _ceil_to_int_if_fractional(e * (-seed.total() + rho_margin * f))
        check(Fraction(2 * k1.total()) > bound1, f"place {pi}: step-1 inequality")
        x1p = change_refinement(minus_identity(schema, rank), loc, k1, seed, paper_sign)
        check(
            [rat_str(v) for v in x1p.values] == pdoc["x1_prime"],
            f"place {pi}: x1' slopes",
        )
        for j in range(-(rank - 1), 0):
            b = _ceil_to_int_if_fractional(e * (-x1p.slope(-j + 1) - f))
            form = _column_gap_form(loc.embeddings, rank, rank + j)
            check(Fraction(form.value(k2.rows)) > b, f"place {pi}: step-2 inequality j={j}")
        x2p = change_refinement(shift_cycle(rank, schema), loc, k2, x1p, paper_sign)
        check(
            [rat_str(v) for v in x2p.values] == pdoc["x2_prime"],
            f"place {pi}: x2' slopes",
        )
        worst = max([Fraction(0)] + [abs(v) for v in x2p.values])
        bound3 = _ceil_to_int_if_fractional(e * module_rank * worst)
        for s in range(1, loc.embeddings + 1):
            for i in range(1, rank + 1):
                form = gap_form(loc.embeddings, rank, s, i)
                check(
                    Fraction(form.value(k3.rows)) > bound3,
                    f"place {pi}: step-3 inequality sigma={s} i={i}",
                )
        datum = induced_datum(schema, rank, loc, k3, x2p)
        margins = []
        tables = CandidateTables(datum.weights)
        for tau in range(1, loc.embeddings + 1):
            result = alignment_check(datum, tau, tables)
            check(result.status == CERTIFIED, f"place {pi}: alignment at tau={tau}")
            if result.margin is not None:
                margins.append(rat_str(result.margin))
        check(margins == pdoc["hypothesis_margins"], f"place {pi}: hypothesis margins")
        survivors, _ = certify_splittings(NormalizedSlopes(schema, x2p.values))
        check(
            [list(s) for s in survivors] == pdoc["survivors"],
            f"place {pi}: survivors",
        )
        check(survivors == [tuple(s) for s in expected_survivors], f"place {pi}: survivor pattern")

    check(doc.get("verdict") == expected, "verdict")
    return (not mismatches, mismatches)
