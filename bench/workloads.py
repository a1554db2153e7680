"""Seeded job lists for the four benchmark workloads.

Every builder takes an integer seed and returns the same list of ``Op``
records for the same seed.  An ``Op`` holds one job document for
``slopecert.cli.run_job`` and what the checker needs to know about it.  The
``replay`` and ``deep`` workloads also follow each replay job with a
``verify-cert`` job on its certificate; that job is built at run time from
the replay report (see ``run.py``).

Nothing here imports the program: the job lists are made from the seed and
from closed-form arithmetic written in this file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

PRIMES = (2, 3, 5, 7, 11, 13)  # the prime of a place does not enter the replay's work


@dataclass
class Op:
    kind: str  # which checker reads the report: replay, scan, hilbert, ps, wald
    job: dict
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# replay and deep
# ---------------------------------------------------------------------------

# (command, n, (e, f)); the torus rank is n for replay-sp and 2n for replay-so.
# Rank-3 sp at (2, 2) and the wide shapes belong to ``deep``; replay-so n=2
# at (2, 2) and n=3 beyond (1, 1) are out of reach of the product-walk kernel.
REPLAY_SHAPES = (
    [("replay-sp", n, ef) for n in (1, 2) for ef in ((1, 1), (1, 2), (2, 1), (2, 2))]
    + [("replay-sp", 3, ef) for ef in ((1, 1), (1, 2), (2, 1))]
    + [("replay-so", 1, ef) for ef in ((1, 1), (1, 2), (2, 1), (2, 2))]
    + [("replay-so", 2, ef) for ef in ((1, 1), (1, 2), (2, 1))]
)
JOBS_PER_SHAPE = 6
SEED_HALF_UNITS = 24  # seed slopes k/2 with |k| <= 24, i.e. |slope| <= 12
TALL_SHAPE = ("replay-so", 3, (1, 1))  # m=1, N=12: one per round, ~0.8 s
# Seeds whose step-2 cone has a non-positive top column-gap bound; there the
# cone search grows roughly with the cube of the other bound, so that bound
# is held in a window that keeps each job near 0.2-0.4 s.
NEG_SHAPE = ("replay-sp", 3, (2, 1))
NEG_JOBS = 2
NEG_HALF_UNITS = 60
NEG_WINDOW = (16, 22)

# Wide shapes, zero seeds, jobs of 0.05-0.25 s.  The widest (sp n=2 at
# (2,3), so n=2 at (1,3): 4-5 s per job) are left out: a job longer than the
# host's slow and fast spells cannot be set against the reference samples
# taken between jobs.
DEEP_SHAPES = (
    ("replay-sp", 3, (1, 3)),
    ("replay-sp", 3, (3, 1)),
    ("replay-so", 1, (2, 3)),
    ("replay-so", 1, (3, 2)),
)


def schema_rank(command: str, n: int):
    return ("C", n) if command == "replay-sp" else ("D", 2 * n)


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _min_regular_row(rank: int, total: int) -> list:
    """Lexicographically first strictly decreasing positive row with this sum."""
    row = []
    for r in range(rank, 0, -1):
        # smallest a with a + (a-1) + ... + (a-r+1) >= total
        a = max(r, ceil_frac(Fraction(total + r * (r - 1) // 2, r)))
        row.append(a)
        total -= a
    return row


def step1_table(schema: str, rank: int, e: int, f: int, seed) -> list:
    """The step-1 weight table: the first regular point with 2*sum(k) > b1.

    The cone order is total sum ascending, then reading order ascending, so
    every row but the last is (rank, ..., 1) and the last row takes the rest.
    """
    m = e * f
    rho = 3 * rank * (rank + 1) if schema == "C" else 3 * rank * (rank - 1)
    b1 = ceil_frac(e * (-sum(seed, Fraction(0)) + rho * f))
    base = rank * (rank + 1) // 2
    total = max(m * base, b1 // 2 + 1)
    rows = [list(range(rank, 0, -1)) for _ in range(m - 1)]
    rows.append(_min_regular_row(rank, total - (m - 1) * base))
    return rows


def step2_bounds(schema: str, rank: int, e: int, f: int, seed) -> list:
    """Strict step-2 bounds, top column gap first, from the -Id move of step 1.

    After -Id the slope in slot j is  -2 (j + c) f - phi[j] - (2/e) colsum[rank+1-j]
    with c = 0 for schema C and c = -1 for schema D; the bound on the gap
    between columns rank-s+1 and rank-s+2 is ceil(e (-phi'[s] - f)).
    """
    rows = step1_table(schema, rank, e, f, seed)
    shift = 0 if schema == "C" else -1
    out = []
    for s in range(rank, 1, -1):
        colsum = sum(row[rank - s] for row in rows)
        moved = -2 * (s + shift) * f - Fraction(seed[s - 1]) - Fraction(2 * colsum, e)
        out.append(ceil_frac(e * (-moved - f)))
    return out


def _half_grid(rng: random.Random, rank: int, half_units: int) -> list:
    return [Fraction(rng.randint(-half_units, half_units), 2) for _ in range(rank)]


def _replay_op(rng, command, n, ef, seed) -> Op:
    e, f = ef
    schema, rank = schema_rank(command, n)
    job = {
        "command": command,
        "params": {
            "n": n,
            "locals": [{"p": rng.choice(PRIMES), "e": e, "f": f}],
            "seeds": "zero" if seed is None else [[f"{v.numerator}/{v.denominator}" for v in seed]],
        },
    }
    bounds = step2_bounds(schema, rank, e, f, seed or [Fraction(0)] * rank)
    return Op("replay", job, {"schema": schema, "rank": rank, "step2_bounds": bounds})


def _bounded_seed(rng, command, n, ef) -> list:
    """A seed whose step-2 cone stays cheap: with two or more embeddings and
    two or more gap bounds, every bound is positive."""
    schema, rank = schema_rank(command, n)
    e, f = ef
    while True:
        seed = _half_grid(rng, rank, SEED_HALF_UNITS)
        if e * f == 1 or rank < 3 or min(step2_bounds(schema, rank, e, f, seed)) > 0:
            return seed


def _negative_seed(rng) -> list:
    command, n, (e, f) = NEG_SHAPE
    schema, rank = schema_rank(command, n)
    lo, hi = NEG_WINDOW
    while True:
        seed = _half_grid(rng, rank, NEG_HALF_UNITS)
        top, *rest = step2_bounds(schema, rank, e, f, seed)
        if top <= 0 and all(lo <= b <= hi for b in rest):
            return seed


def replay_ops(seed: int) -> list:
    rng = random.Random(f"replay:{seed}")
    ops = []
    for command, n, ef in REPLAY_SHAPES:
        for _ in range(JOBS_PER_SHAPE):
            ops.append(_replay_op(rng, command, n, ef, _bounded_seed(rng, command, n, ef)))
    for _ in range(NEG_JOBS):
        command, n, ef = NEG_SHAPE
        ops.append(_replay_op(rng, command, n, ef, _negative_seed(rng)))
    command, n, ef = TALL_SHAPE
    ops.append(_replay_op(rng, command, n, ef, _bounded_seed(rng, command, n, ef)))
    return ops


def deep_ops(seed: int) -> list:
    rng = random.Random(f"deep:{seed}")
    return [_replay_op(rng, command, n, ef, None) for command, n, ef in DEEP_SHAPES]


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

SCAN_EF = ((1, 1), (1, 2), (2, 1), (2, 2))
SCAN_N_MAX = 4
SCAN_HALF_WIDTH = 3  # kappa in [c-3, c+3]


def scan_ops(seed: int) -> list:
    """One grid at band 1 and band 2, one job per (band, (e, f)).

    The seed translates the weight window; the admissibility system is
    invariant under a common shift of weights and slopes, so the work per
    job does not depend on the seed while every witness does.
    """
    rng = random.Random(f"scan:{seed}")
    c = rng.randint(-6, 6)
    ops = []
    for band in (1, 2):
        for ef in SCAN_EF:
            params = {
                "n_max": SCAN_N_MAX,
                "kappa_min": c - SCAN_HALF_WIDTH,
                "kappa_max": c + SCAN_HALF_WIDTH,
                "band_scale": band,
                "ef": [list(ef)],
                "max_witnesses": 5,
            }
            ops.append(Op("scan", {"command": "keylemma-scan", "params": params}))
    return ops


# ---------------------------------------------------------------------------
# local: Hilbert symbols, principal-series orbits, transfer-factor signs
# ---------------------------------------------------------------------------


def vp(x: Fraction, p: int) -> int:
    def ival(k: int) -> int:
        k, v = abs(k), 0
        while k % p == 0:
            k, v = k // p, v + 1
        return v

    x = Fraction(x)
    return ival(x.numerator) - ival(x.denominator)


def legendre(a: int, p: int) -> int:
    """(a|p) for an odd prime p and a prime to p, from the list of squares."""
    return 1 if a % p in {x * x % p for x in range(1, p)} else -1


def hilbert_symbol(a, b, p) -> int:
    """(a, b)_v at v = p or v = "inf", by the classical formulas."""
    a, b = Fraction(a), Fraction(b)
    if p == "inf":
        return -1 if a < 0 and b < 0 else 1
    alpha, beta = vp(a, p), vp(b, p)
    u, w = a / Fraction(p) ** alpha, b / Fraction(p) ** beta
    modulus = 8 if p == 2 else p
    u = u.numerator * pow(u.denominator, -1, modulus) % modulus
    w = w.numerator * pow(w.denominator, -1, modulus) % modulus
    if p == 2:
        eps = lambda t: (t - 1) // 2 % 2  # noqa: E731
        omega = lambda t: (t * t - 1) // 8 % 2  # noqa: E731
        expo = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
        return -1 if expo % 2 else 1
    sign = legendre(-1, p) ** (alpha * beta % 2)
    sign *= legendre(u, p) ** (beta % 2) * legendre(w, p) ** (alpha % 2)
    return sign


# (prime, symbol, parity of v_p(a), parity of v_p(b)).  Odd primes have no
# symbol -1 between units.  The oracle's cost grows like p^4 when one
# valuation is odd (about 1 s at p = 37) and like p^6 when both are (57-70 s
# at p = 41), so both-odd classes stop at 13 and one-odd classes at 29.
SMALL_P = (2, 3, 5, 7, 11, 13)
MID_P = (17, 19, 23, 29)
LARGE_P = (31, 37)
HILBERT_CLASSES = (
    [(p, s, va, vb) for p in SMALL_P for s in (1, -1) for va in (0, 1) for vb in (0, 1)
     if not (p != 2 and s == -1 and va == vb == 0)]
    + [(p, s, va, vb) for p in MID_P for (s, va, vb) in ((1, 0, 0), (1, 1, 0), (1, 0, 1), (-1, 0, 1))]
    + [(p, 1, va, 0) for p in LARGE_P for va in (0, 1)]
)
PRODUCT_PAIRS = 6
PS_SHAPES = ((6, "D", True), (5, "C", False), (5, "D", False))  # (n, group, generic)
WALD_INSTANCES = 4


def _unit(rng, p: int) -> int:
    while True:
        u = rng.choice((1, -1)) * rng.randint(1, 60)
        if u % p:
            return u


def _hilbert_pair(rng, p, symbol, va, vb):
    while True:
        a = Fraction(_unit(rng, p) * p**va, rng.choice((1, 1, 2, 3)))
        b = Fraction(_unit(rng, p) * p**vb, rng.choice((1, 1, 2, 3)))
        if vp(a, p) % 2 == va and vp(b, p) % 2 == vb and hilbert_symbol(a, b, p) == symbol:
            return a, b


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _hilbert_op(a, b, place, group=None) -> Op:
    job = {"command": "hilbert", "params": {"a": _rat(a), "b": _rat(b), "place": place, "oracle": True}}
    return Op("hilbert", job, {"group": group})


def _places_of(a: Fraction, b: Fraction) -> list:
    primes = {2}
    for k in (a.numerator, a.denominator, b.numerator, b.denominator):
        k = abs(k)
        for d in range(2, k + 1):
            while k % d == 0:
                primes.add(d)
                k //= d
    return ["inf"] + sorted(primes)


def _ps_op(rng, n, group, generic) -> Op:
    """Distinct values; ``generic`` also rules out +-1 and inverse pairs, so
    the orbit has the full group order and its size does not depend on the seed."""
    values = set()
    while len(values) < n:
        v = Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))
        if not generic or (v * v != 1 and 1 / v not in values):
            values.add(v)
    values = sorted(values)
    rng.shuffle(values)
    job = {
        "command": "ps-irreducible",
        "params": {"q": rng.choice((2, 3, 4, 5, 7, 8, 9)), "values": [_rat(v) for v in values], "group": group},
    }
    return Op("ps", job)


def _wald_op(rng) -> Op:
    """A transfer-factor instance of the kind the sign theorem covers.

    The ambient group has trivial discriminant, which forces
    (prod d_i, -1)_p = 1 when the number of split indices is odd.
    """
    p = rng.choice((3, 5, 7))
    m = rng.randint(1, 3)
    n_fields = rng.randint(1, m)
    nonsquares = [d for d in (-1, 2, -2, 3, -3, 5, -5, 6, 7, 10) if not _is_local_square(d, p)]
    while True:
        splits = []
        while len(splits) < m - n_fields:
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            if x not in (0, 1, -1):
                splits.append(x)
        fields = []
        while len(fields) < n_fields:
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
            if b:
                fields.append((rng.choice(nonsquares), a, b))
        prod_d = 1
        for d, _, _ in fields:
            prod_d *= d
        if (m - n_fields) % 2 and hilbert_symbol(prod_d, -1, p) != 1:
            continue
        if _wald_regular(splits, fields):
            break
    job = {
        "command": "wald-sign",
        "params": {
            "p": p,
            "m": m,
            "split_values": [_rat(x) for x in splits],
            "field_elements": [{"d": d, "a": _rat(a), "b": _rat(b)} for d, a, b in fields],
        },
    }
    return Op("wald", job)


def _is_local_square(d: int, p: int) -> bool:
    if vp(Fraction(d), p) % 2:
        return False
    return legendre(d // p ** vp(Fraction(d), p), p) == 1


def _wald_regular(splits, fields) -> bool:
    """Whether every y-value is distinct and none equals +-1.

    y = -x/conj(x) at a field index, -x and -1/x at a split index.  Field
    values with nonzero irrational part are tagged by their discriminant.
    """
    ys = []
    for x in splits:
        ys += [(0, -x, Fraction(0)), (0, -1 / x, Fraction(0))]
    for d, a, b in fields:
        ya, yb = quad_div((-a, -b), (a, -b), d)
        tag = d if yb else 0
        ys += [(tag, ya, yb), (tag, ya, -yb)]
    if len(set(ys)) != len(ys):
        return False
    return not any(t == 0 and yb == 0 and ya in (1, -1) for t, ya, yb in ys)


def quad_mul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def quad_div(x, y, d):
    norm = y[0] * y[0] - d * y[1] * y[1]
    return quad_mul(x, (y[0] / norm, -y[1] / norm), d)


def local_ops(seed: int) -> list:
    rng = random.Random(f"local:{seed}")
    ops = []
    for p, s, va, vb in HILBERT_CLASSES:
        a, b = _hilbert_pair(rng, p, s, va, vb)
        ops.append(_hilbert_op(a, b, p))
    for g in range(PRODUCT_PAIRS):
        # small prime support, so every place of the product stays cheap
        a = Fraction(rng.choice((1, -1)) * rng.choice((1, 2, 3, 5, 6, 7, 10, 13)), rng.choice((1, 3, 5, 11)))
        b = Fraction(rng.choice((1, -1)) * rng.choice((1, 2, 3, 5, 7, 11, 14)), rng.choice((1, 2, 7, 13)))
        ops += [_hilbert_op(a, b, place, group=g) for place in _places_of(a, b)]
    ops += [_ps_op(rng, n, group, generic) for n, group, generic in PS_SHAPES]
    ops += [_wald_op(rng) for _ in range(WALD_INSTANCES)]
    return ops


BUILDERS = {"replay": replay_ops, "deep": deep_ops, "scan": scan_ops, "local": local_ops}
