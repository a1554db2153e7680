"""Independent checks of every report the benchmark's jobs produce.

Each checker takes an ``Op`` (the job and what the job list knows about it),
the report that ``run_job`` returned and its exit code, and raises
``CheckFailed`` on the first disagreement.  The checks re-derive what they
can from the job's inputs with code written here: survivors by brute-force
subset enumeration, step bounds from the recorded slope vectors, the scan's
datum count from the band definition, Hilbert symbols from the classical
formulas, orbit sizes from multiplicities, and transfer-factor norms with
pair arithmetic.  Only the scan witness check calls into the program, and
there it uses the exact ``Fraction`` path ``admissibility.candidate_passes``
rather than the integer kernels that found the witness.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

from workloads import ceil_frac, hilbert_symbol, quad_div, quad_mul


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# replay and verify-cert
# ---------------------------------------------------------------------------


def brute_survivors(schema: str, x2_prime) -> list:
    """Surviving splittings of the extended index range, up to complement.

    A proper subset survives when it and its complement, each walked in
    ascending index order, keep every prefix sum of nu nonnegative and end
    at zero.  Returned sorted by (size, indices), each as the smaller side.
    """
    r = len(x2_prime)
    nu = {0: Fraction(0)}
    for i, v in enumerate(x2_prime, start=1):
        nu[i], nu[-i] = v, -v
    idx = [i for i in range(-r, r + 1) if schema == "C" or i != 0]

    def walk(part) -> bool:
        total = Fraction(0)
        for i in part:
            total += nu[i]
            if total < 0:
                return False
        return total == 0

    found = set()
    for k in range(1, len(idx)):
        for part in combinations(idx, k):
            rest = tuple(i for i in idx if i not in part)
            if walk(part) and walk(rest):
                found.add(min(part, rest, key=lambda t: (len(t), t)))
    return [list(t) for t in sorted(found, key=lambda t: (len(t), t))]


def _dominant(table) -> bool:
    return all(
        all(row[j] >= row[j + 1] for j in range(len(row) - 1)) and row[-1] >= 0 for row in table
    )


def check_replay(op, report, code):
    expect(code == 0, f"exit code {code}")
    cert = report["result"]
    schema, rank = op.info["schema"], op.info["rank"]
    expect(cert["schema"] == schema and cert["rank"] == rank, "schema or rank")
    expected = "ArtinPlusIrreducible" if schema == "C" else "Irreducible"
    expect(cert["verdict"] == expected, f"verdict {cert['verdict']}")
    module_rank = 2 * rank + 1 if schema == "C" else 2 * rank
    rho = 3 * rank * (rank + 1) if schema == "C" else 3 * rank * (rank - 1)
    expect(cert["places"], "no places")
    for place in cert["places"]:
        e, f = place["local"]["e"], place["local"]["f"]
        for name in ("k1", "k2", "k3"):
            expect(_dominant(place[name]), f"{name} is not dominant")
        seed = [Fraction(v) for v in place["seed"]]
        x1 = [Fraction(v) for v in place["x1_prime"]]
        x2 = [Fraction(v) for v in place["x2_prime"]]
        bounds = [ceil_frac(e * (-sum(seed, Fraction(0)) + rho * f))]
        bounds += [ceil_frac(e * (-x1[s - 1] - f)) for s in range(rank, 1, -1)]
        worst = max([Fraction(0)] + [abs(v) for v in x2])
        bounds += [ceil_frac(e * module_rank * worst)] * (e * f * rank)
        steps = place["step_checks"]
        expect([Fraction(c["strict_bound"]) for c in steps] == bounds, "strict bounds")
        expect(bounds[1:rank] == op.info["step2_bounds"], "step-2 bounds differ from the job list's")
        for c in steps:
            expect(c["ok"] and Fraction(c["value"]) > Fraction(c["strict_bound"]), f"step {c['step']} value")
        expect(place["survivors"] == brute_survivors(schema, x2), "survivors")
        expect(place["survivors"] == ([[0]] if schema == "C" else []), "survivor pattern")
        expect(place["structural_ok"] and place["failure"] is None, "structural facts")


def check_verify(op, report, code):
    expect(code == 0, f"exit code {code}")
    expect(report["result"] == {"ok": True, "mismatches": []}, "verify-cert did not accept")


# ---------------------------------------------------------------------------
# keylemma-scan
# ---------------------------------------------------------------------------


def count_data(params) -> int:
    """Slope vectors in the band: |e*dev| <= band*gap/N on the integer grid,
    scaled slopes pairwise distinct; rank 1 pins the deviation to zero."""
    band = Fraction(params["band_scale"])
    total = 0
    for e, f in params["ef"]:
        m = e * f
        for n in range(1, params["n_max"] + 1):
            for kappa in combinations_with_replacement(range(params["kappa_min"], params["kappa_max"] + 1), n):
                if n == 1:
                    radius = 0
                else:
                    gap = min(b - a for a, b in zip(kappa, kappa[1:]))
                    radius = math.floor(band * gap / n)
                for dev in product(range(-radius, radius + 1), repeat=n):
                    if len({m * k + d for k, d in zip(kappa, dev)}) == n:
                        total += 1
    return total


def _glue(n: int, subset, images) -> tuple:
    rest = [i for i in range(1, n + 1) if i not in subset]
    rest_img = [j for j in range(1, n + 1) if j not in images]
    theta = [0] * n
    for i, j in list(zip(subset, images)) + list(zip(rest, rest_img)):
        theta[i - 1] = j
    return tuple(theta)


def witness_ok(w) -> bool:
    """The witness passes the exact prefix system for some images on the
    other embeddings, and its distinguished row moves a weight value."""
    from slopecert.admissibility import PhiModuleDatum, candidate_passes

    kappa, subset = w["kappa"], tuple(w["subset"])
    n, m = len(kappa), w["e"] * w["f"]
    datum = PhiModuleDatum(w["e"], w["f"], [Fraction(s) for s in w["slopes"]], [kappa] * m)
    row0 = _glue(n, subset, w["images_tau"])
    if all(kappa[row0[i] - 1] == kappa[i] for i in range(n)):
        return False
    choices = [_glue(n, subset, img) for img in combinations(range(1, n + 1), len(subset))]
    return any(
        candidate_passes(datum, subset, (row0,) + rest) for rest in product(choices, repeat=m - 1)
    )


def check_scan(op, report, code):
    expect(code == 0, f"exit code {code}")
    res, params = report["result"], op.job["params"]
    expect(res["data_checked"] == count_data(params), "data_checked")
    expect(res["certified"] + res["misaligned"] == res["data_checked"], "certified + misaligned")
    expect(len(res["witnesses"]) == min(res["misaligned"], params["max_witnesses"]), "witness count")
    if Fraction(params["band_scale"]) <= 1:
        expect(res["misaligned"] == 0, "misaligned datum inside the hypothesis band")
    for w in res["witnesses"]:
        expect(witness_ok(w), f"witness {w} does not pass or moves no weight")


# ---------------------------------------------------------------------------
# local: hilbert, ps-irreducible, wald-sign
# ---------------------------------------------------------------------------


def check_hilbert(op, report, code):
    expect(code == 0, f"exit code {code}")
    p = op.job["params"]
    res = report["result"]
    expect(res["symbol"] == hilbert_symbol(p["a"], p["b"], p["place"]), "closed-form symbol")
    expect(res["oracle_solvable"] == (res["symbol"] == 1), "oracle disagrees with the symbol")


def check_product_formula(ops, reports):
    """prod_v (a, b)_v = 1 over each group of jobs that covers every place."""
    groups = {}
    for op, report in zip(ops, reports):
        if op.kind == "hilbert" and op.info.get("group") is not None:
            groups.setdefault(op.info["group"], []).append(report["result"]["symbol"])
    for g, symbols in groups.items():
        expect(math.prod(symbols) == 1, f"product formula fails for pair {g}")


def stabilizer_order(values, group: str) -> int:
    """|Stab| of the value tuple under signed permutations.

    Within a class {x, 1/x} with x != 1/x every bijection of its positions
    fixes the tuple with exactly one sign pattern; a class of x = +-1 also
    allows every sign.  Those sign flips are the only odd elements, so in
    type D the stabilizer halves exactly when some value is +-1.
    """
    classes = Counter(min(v, 1 / v, key=lambda t: (abs(t), t)) for v in values)
    order = 1
    for x, c in classes.items():
        order *= math.factorial(c) * (2**c if x * x == 1 else 1)
    if group == "D" and any(x * x == 1 for x in classes):
        order //= 2
    return order


def check_ps(op, report, code):
    expect(code == 0, f"exit code {code}")
    p = op.job["params"]
    vals, group, q = [Fraction(v) for v in p["values"]], p["group"], Fraction(p["q"])
    n = len(vals)
    res = report["result"]
    order = 2**n * math.factorial(n) // (2 if group == "D" else 1)
    expect(res["orbit_size"] == order // stabilizer_order(vals, group), "orbit size")
    pairs = [(a, b) for a, b in combinations(vals, 2)]
    if group == "C":
        # Tadic: no order-2 value, no nu^{+-1}, no a/b or ab in nu^{+-1}
        nu = {1 / q, q}
        irreducible = all(v != -1 and v not in nu for v in vals) and all(
            a / b not in nu and a * b not in nu for a, b in pairs
        )
        expect(res["sp_irreducible"] == irreducible, "sp_irreducible")
    else:
        near = {1, q, 1 / q}
        irreducible = all(v * v != 1 for v in vals) and all(
            a * b not in near and a / b not in near for a, b in pairs
        )
        expect(res["so_irreducible_sufficient"] == irreducible, "so_irreducible_sufficient")
    expect(res["completely_refinable"] == irreducible, "completely_refinable")


def check_wald(op, report, code):
    """Sign 1, and each ratio C_i/C_{i,0} equals (-1)^(m-m0) N(w_i) with
    w_i = prod_j (y_i + x_j)(1/x_j - 1), recomputed here with pairs."""
    expect(code == 0, f"exit code {code}")
    p = op.job["params"]
    res = report["result"]
    expect(res["sign"] == 1, f"sign {res['sign']}")
    splits = [Fraction(x) for x in p["split_values"]]
    fields = p["field_elements"]
    expect(len(res["structure"]) == len(fields), "structure length")
    for fe, entry in zip(fields, res["structure"]):
        d, a, b = fe["d"], Fraction(fe["a"]), Fraction(fe["b"])
        y = quad_div((-a, -b), (a, -b), d)
        w = (Fraction(1), Fraction(0))
        for xj in splits:
            w = quad_mul(w, (y[0] + xj, y[1]), d)
            w = (w[0] * (1 / xj - 1), w[1] * (1 / xj - 1))
        predicted = (-1) ** (p["m"] - len(fields)) * (w[0] * w[0] - d * w[1] * w[1])
        expect(Fraction(entry["predicted"]) == predicted, "predicted ratio")
        expect(entry["match"] and Fraction(entry["ratio"]) == predicted, "ratio")


CHECKERS = {
    "replay": check_replay,
    "verify": check_verify,
    "scan": check_scan,
    "hilbert": check_hilbert,
    "ps": check_ps,
    "wald": check_wald,
}


def check_round(ops, reports, codes):
    """Check every report of one round; raises CheckFailed on the first fault."""
    for op, report, code in zip(ops, reports, codes):
        try:
            CHECKERS[op.kind](op, report, code)
        except CheckFailed as exc:
            raise CheckFailed(f"{op.job['command']} {op.job['params']}: {exc}") from None
    check_product_formula(ops, reports)
