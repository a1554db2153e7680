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
lexicographic; ``cone.cone_find`` gives that point in closed form from the
cone's gap, column-gap and total bounds, however deep it lies.  The one
bound on weight size, for the replay and the verifier alike, is the exact
int64 range of the candidate kernel, which refuses larger weights with a
ValueError.

The surviving subsets are then found exactly by one pruned walk: a proper
subset of the extended index range survives when its ascending prefix sums
of nu and those of its complement stay nonnegative with both totals zero.
The symplectic schema must end with the zero index as the only survivor (an
Artin line plus an irreducible complement); the orthogonal schema with none.

Every inequality, margin and survivor is recorded in a certificate.  One
routine, ``_derive_place``, derives a place for both the replay and the
verifier: the replay picks each step's weights from its cone, the verifier
takes them from the certificate, re-derives everything else and requires
the rebuilt certificate to equal the document as canonical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

from .admissibility import PhiModuleDatum, alignment_check, CERTIFIED
from .cone import cone_find
from .errors import VerdictFailed
from .lattice import LocalDatum, WeightTable, rat_str, parse_rat, very_regular
from .satake import RefinedSlopes, change_refinement, frobenius_slopes, hodge_tate_weights, zero_index
from .weyl import minus_identity, shift_cycle

ARTIN_PLUS_IRREDUCIBLE = "ArtinPlusIrreducible"
IRREDUCIBLE = "Irreducible"
FAILED = "Failed"


def certify_splittings(schema: str, nu: RefinedSlopes) -> list:
    """Enumerate surviving proper subsets, up to complement.

    ``nu`` holds nu(1..rank) = v_p(phi_i) at one place, extended by
    nu(-i) = -nu(i) over the index range -rank..rank, which holds 0 with
    nu(0) = 0 for schema C and not for schema D.  A subset survives when,
    walking it and its complement in ascending index order, every prefix
    sum of nu is >= 0 and both totals vanish.  ``_verdict`` reads them
    against the schema's expected survivors.

    One depth-first walk puts each index, in ascending order, inside or
    outside while that side's prefix sum stays >= 0; the first goes inside,
    so each pair {I, complement} is met once.  nu sums to 0, so both totals
    at a leaf are 0 and only a non-empty outside is checked.  The walk reads
    nu times its common denominator: a positive scale keeps every sign.
    """
    z = zero_index(schema)
    nums, _ = nu.scaled
    idx = [i for i in range(-nu.rank, nu.rank + 1) if i or z]
    vals = [-v for v in reversed(nums)] + [0] * z + list(nums)
    survivors = []
    stack = [(0, 0, 0, (), ())]  # (next position, inside sum, outside sum, inside, outside)
    while stack:
        p, s_in, s_out, inside, outside = stack.pop()
        if p == len(idx):
            if outside:
                survivors.append(min((inside, outside), key=lambda t: (len(t), t)))
            continue
        v = vals[p]
        if p and s_out + v >= 0:
            stack.append((p + 1, s_in, s_out + v, inside, outside + (idx[p],)))
        if s_in + v >= 0:
            stack.append((p + 1, s_in + v, s_out, inside + (idx[p],), outside))
    survivors.sort(key=lambda t: (len(t), t))
    return survivors


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


def _ceil_to_int_if_fractional(num: int, den: int) -> int:
    """Margin policy: the strict bound num/den (den > 0) is ceiled, so integer
    forms clear it by >= 1."""
    return -(-num // den)


def _schema_numbers(schema: str, rank: int) -> Tuple[int, int]:
    """(module rank N, rho-sum margin 3*S): N = 2r+1, S = r(r+1) for C; N = 2r, S = r(r-1) for D."""
    z = zero_index(schema)
    return 2 * rank + z, 3 * rank * (rank - 1 + 2 * z)


# schema -> (expected verdict, expected survivors)
_EXPECTED = {"C": (ARTIN_PLUS_IRREDUCIBLE, [(0,)]), "D": (IRREDUCIBLE, [])}


def _step_check(step: int, form: str, value: int, bound: int) -> dict:
    return {
        "step": step,
        "form": form,
        "value": rat_str(value),
        "strict_bound": rat_str(bound),
        "ok": value > bound,
    }


def _derive_place(
    schema: str,
    rank: int,
    local: LocalDatum,
    seed: RefinedSlopes,
    paper_sign: bool,
    pick: Callable[..., WeightTable],
) -> PlaceRecord:
    """Run the three steps at one place and record everything they produce.

    ``pick(step, gap=..., column_gaps=..., total=...)`` returns the step's
    weight table given the strict bounds of its cone (see ``cone_find``): the
    replay picks the cone's first point, the verifier the certificate's
    table.  Each step inequality is recorded whether or not it holds.
    """
    e, f, m = local.e, local.f, local.embeddings
    module_rank, rho_margin = _schema_numbers(schema, rank)
    rec = PlaceRecord(local=local, seed=seed)

    # Each bound is a rational over the denominator d of the slopes it reads;
    # the slopes' numerators over d keep the arithmetic on ints.
    # -- step 1: push the total weight past the product valuation, flip by -Id
    nums, d = seed.scaled
    bound1 = _ceil_to_int_if_fractional(e * (rho_margin * f * d - sum(nums)), d)
    rec.k1 = pick(1, gap=0, total=Fraction(bound1, 2))
    rec.step_checks.append(_step_check(1, "2*sum(k1)", 2 * rec.k1.total(), bound1))
    flip = minus_identity(schema, rank)
    rec.x1p = change_refinement(flip, local, rec.k1, seed, paper_sign=paper_sign)

    # -- step 2: nearby point keeps the slopes; open the column gaps, rotate
    # column gap i = rank + j for j = -(rank-1)..-1, i.e. columns 1..rank-1
    nums, d = rec.x1p.scaled
    bounds = [_ceil_to_int_if_fractional(-e * (nums[rank - i] + f * d), d) for i in range(1, rank)]
    rec.k2 = pick(2, gap=0, column_gaps=bounds)
    for i, b in enumerate(bounds, 1):
        value = rec.k2.column_sum(i) - rec.k2.column_sum(i + 1)
        rec.step_checks.append(_step_check(2, f"sum_sigma(k2[{i}] - k2[{i + 1}])", value, b))
    rotate = shift_cycle(rank, schema)
    rec.x2p = change_refinement(rotate, local, rec.k2, rec.x1p, paper_sign=paper_sign)

    # -- step 3: weights regular enough for the alignment lemma at x3 = x2'
    nu = rec.x2p
    nums, d = nu.scaled
    bound3 = _ceil_to_int_if_fractional(e * module_rank * max(map(abs, nums)), d)
    rec.k3 = pick(3, gap=bound3)
    for row in rec.k3.rows:
        for gap in (a - b for a, b in zip(row, row[1:] + (0,))):  # k[i] - k[i+1], then k[rank]
            rec.step_checks.append(_step_check(3, "k3 gap", gap, bound3))

    # -- alignment hypothesis of the induced Frobenius-module datum, checked
    # once per distinct weight row.  Two equal rows tau and tau' get the same
    # result: swapping the image choices of embeddings tau and tau' keeps a
    # candidate passing, since the Hodge side sums the same values, and
    # carries "misaligned at tau" to "misaligned at tau'"; the margin reads
    # only the row's least gap.  The witness differs between the two, but a
    # place record does not keep it.
    datum = induced_datum(schema, rank, local, rec.k3, nu)
    checked = {}
    for tau in range(1, m + 1):
        row = datum.weights[tau - 1]
        if row not in checked:
            checked[row] = alignment_check(datum, tau)
        result = checked[row]
        if result.status != CERTIFIED:
            rec.structural_ok = False
            rec.failure = f"alignment {result.status} at embedding {tau}"
        if result.margin is not None:
            rec.hypothesis_margins.append(result.margin)

    # -- splitting certification on the extended index range
    rec.survivors = certify_splittings(schema, nu)

    # -- structural facts the argument extracts at x2'
    positives_ok = all(v > 0 for v in nums[:-1])
    top_ok = nums[-1] < 0
    total_ok = sum(nums) < 0
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


def _verdict(schema: str, places: Sequence[PlaceRecord]) -> Tuple[str, Optional[str]]:
    """The verdict and failure reason of a certificate with these places."""
    expected, expected_survivors = _EXPECTED[schema]
    for i, pr in enumerate(places):
        if pr.survivors != expected_survivors or not pr.structural_ok:
            return FAILED, pr.failure or f"place {i}: survivors {pr.survivors}"
    return expected, None


def _replay(
    schema: str,
    rank: int,
    locals_: Sequence[LocalDatum],
    seeds: Sequence[RefinedSlopes],
    paper_sign: bool,
) -> Certificate:
    if len(locals_) != len(seeds):
        raise ValueError("need one seed slope vector per place")
    for s in seeds:
        if s.rank != rank:
            raise ValueError("seed rank mismatch")
    places = []
    for loc, seed in zip(locals_, seeds):

        def pick(step, **bounds):  # reads the module global cone_find at each call
            return cone_find(rank, loc.embeddings, **bounds)

        places.append(_derive_place(schema, rank, loc, seed, paper_sign, pick))
    verdict, reason = _verdict(schema, places)
    module_rank = _schema_numbers(schema, rank)[0]
    cert = Certificate(schema, rank, module_rank, paper_sign, places, verdict, reason)
    expected = _EXPECTED[schema][0]
    if verdict != expected:
        raise VerdictFailed(cert, f"expected {expected}, got {verdict}: {reason}")
    return cert


def replay_symplectic(
    n: int,
    locals_: Sequence[LocalDatum],
    seeds: Sequence[RefinedSlopes],
    paper_sign: bool = False,
) -> Certificate:
    """Deformation replay for the rank-n symplectic schema (module rank 2n+1).

    Expected verdict: ArtinPlusIrreducible with the zero index as the only
    surviving splitting.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    return _replay("C", n, locals_, seeds, paper_sign)


def replay_orthogonal(
    n: int,
    locals_: Sequence[LocalDatum],
    seeds: Sequence[RefinedSlopes],
    paper_sign: bool = False,
) -> Certificate:
    """Deformation replay for the even orthogonal schema (torus rank 2n).

    Both Weyl elements exist unconditionally here: 2n sign flips are even,
    and the shift cycle is sign-free.  Expected verdict: Irreducible.
    """
    if n < 1:
        raise ValueError("need n >= 1 (torus rank 2n)")
    return _replay("D", 2 * n, locals_, seeds, paper_sign)


# ---------------------------------------------------------------------------
# certificate verification
# ---------------------------------------------------------------------------


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def _field_mismatches(derived: dict, doc: dict, prefix: str = "") -> list:
    """The fields, places aside, where ``doc`` differs from ``derived`` as canonical JSON."""
    return [
        prefix + key
        for key in sorted((set(derived) | set(doc)) - {"places"})
        if key not in derived or key not in doc or _canonical(derived[key]) != _canonical(doc[key])
    ]


def verify_certificate(doc: dict) -> Tuple[bool, list]:
    """Re-derive a certificate from its seeds and weight tables and compare.

    Returns (ok, mismatches).  Each place is re-derived by the replay's own
    routine, with the recorded k1, k2 and k3 in place of the cone choices.
    The certificate is accepted when it has places; k1 and k2 are regular;
    every step inequality and structural fact holds; every place has the
    expected survivors; and the certificate rebuilt from the re-derivation
    equals the document field by field as canonical JSON (so ``1`` is not
    ``true`` and ``6.0`` is not ``6``).  No step is waived: a certificate
    whose step 1 was skipped is rejected.

    A certificate covers the shape (e, f) of each place for every prime:
    valuations are normalised to v_p(p) = 1, so no field depends on p, which
    is only checked to be prime.
    """
    schema, places = doc.get("schema"), doc.get("places")
    early = [label for label, bad in (("schema", schema not in _EXPECTED), ("places", not places)) if bad]
    if early:
        return False, early
    rank = int(doc["rank"])
    if minus_identity(schema, rank) is None:  # step 1's -Id flip
        raise ValueError(f"schema {schema} has no -Id at odd rank {rank}")
    paper_sign = doc.get("paper_sign") is True
    mismatches, records = [], []
    for pi, pdoc in enumerate(places):
        loc = LocalDatum(**{key: int(v) for key, v in pdoc["local"].items()})
        seed = RefinedSlopes(tuple(parse_rat(v) for v in pdoc["seed"]))
        tables = [WeightTable(pdoc[name]) for name in ("k1", "k2", "k3")]
        for name, k in zip(("k1", "k2", "k3"), tables):
            if (k.embeddings, k.rank) != (loc.embeddings, rank):
                raise ValueError(f"place {pi}: {name} is not {loc.embeddings} x {rank}")
        rec = _derive_place(schema, rank, loc, seed, paper_sign, lambda step, **_: tables[step - 1])
        # steps 1 and 2 pick weights with every gap > 0; a zero k1 (a
        # skipped step) is rejected like any other table outside the cone
        failed = [f"k{j} regular" for j in (1, 2) if not very_regular(tables[j - 1], 1)]
        failed += [
            f"step-{s} inequality"
            for s in (1, 2, 3)
            if not all(c["ok"] for c in rec.step_checks if c["step"] == s)
        ]
        if not rec.structural_ok:
            failed.append("structural facts")
        if rec.survivors != _EXPECTED[schema][1]:
            failed.append("survivor pattern")
        mismatches += [f"place {pi}: {label}" for label in failed]
        records.append(rec)

    verdict, reason = _verdict(schema, records)
    module_rank = _schema_numbers(schema, rank)[0]
    derived = Certificate(schema, rank, module_rank, paper_sign, records, verdict, reason).to_dict()
    if _canonical(derived) != _canonical(doc):  # name the fields that differ
        mismatches += _field_mismatches(derived, doc)
        for pi, (want, got) in enumerate(zip(derived["places"], places)):
            mismatches += _field_mismatches(want, got, f"place {pi}: ")
    return (not mismatches, mismatches)
