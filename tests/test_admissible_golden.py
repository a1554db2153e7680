"""Golden digest of the canonical reports of a fixed list of ``admissible``
and ``classicality`` jobs.

The ``admissible`` jobs run m = 1, 2 and 3 embeddings at N <= 8: slopes at
or near the weight means, and reordered, so that candidates pass and
misaligned ones exist outside the band; slopes that are not distinct; rows
with repeated weights; weights and slopes just inside the kernel's int64
guard and just beyond it; and the row-count and tau rejections.  An
``admissible`` exit 2 needs a misaligned candidate inside the band, which
would falsify the alignment lemma, so none of these jobs has one.  The
``classicality`` jobs run the small-slope criterion at both answers over
ranks 1..4 and several (e, f), and its rejections.  Every report and exit
code, or error line and exit 1, is written as canonical JSON and hashed in
job order; the digest pins the candidate listings, their order and the
alignment verdicts.  Where the plain-loop oracle is cheap, each listing is
also checked against it.
"""

import hashlib
from fractions import Fraction
from math import comb

from kernel_oracle import candidates_python

from slopecert.cli import InputError, canonical_json, run_job
from slopecert.errors import SlopecertError
from slopecert.lattice import over_common_denominator


def admissible(e, f, weights, slopes, tau=None):
    params = {"e": e, "f": f, "slopes": [str(s) for s in slopes], "weights": weights}
    if tau is not None:
        params["tau"] = tau
    return {"command": "admissible", "params": params}


def near_means(e, weights, devs, order=None):
    """The weight means (1/e) sum_sigma kappa[sigma][i] plus ``devs``, in
    ``order`` when given."""
    means = [Fraction(sum(col), e) for col in zip(*weights)]
    if order is not None:
        means = [means[i] for i in order]
    return [mu + d for mu, d in zip(means, devs)]


def admissible_jobs():
    # distinct slopes inside the band, every tau: certified
    for e, f, weights in (
        (1, 1, [[0, 3, 7, 12]]),
        (1, 2, [[0, 2, 5, 9], [-1, 0, 4, 6]]),
        (2, 1, [[-2, 1, 3, 8, 10], [0, 3, 4, 6, 11]]),
        (3, 1, [[0, 4, 9], [1, 2, 6], [-3, 3, 5]]),
        (1, 3, [[0, 5, 6, 11], [2, 3, 7, 8], [-1, 4, 5, 9]]),
    ):
        n = len(weights[0])
        d = Fraction(1, 6 * e * n)
        for tau in range(1, e * f + 1):
            # at the means, or +-d in turn: the totals close, so candidates pass
            devs = [(-1) ** i * d * (tau > 1) for i in range(n - 1)]
            yield admissible(e, f, weights, near_means(e, weights, devs + [-sum(devs)]), tau)
    # reordered slopes: misaligned candidates pass, outside the band
    yield admissible(1, 1, [[0, 1, 2, 3, 4, 5, 6, 7]], [2, 0, 1, 4, 3, 6, 5, 7])
    yield admissible(1, 2, [[0, 1, 3, 4], [0, 2, 3, 5]], near_means(1, [[0, 1, 3, 4], [0, 2, 3, 5]], [0] * 4, [1, 0, 3, 2]), 2)
    yield admissible(2, 1, [[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]], [2, 0, 1, 4, 3, 5], 1)
    yield admissible(1, 3, [[0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3]], [3, 0, 6, 9], 3)
    yield admissible(1, 1, [[0, 1]], [1, 0])
    # the whole listing of a wide datum: equal rows 0..N-1, slopes at the means
    yield admissible(2, 1, [list(range(8))] * 2, list(range(8)))
    yield admissible(1, 3, [list(range(6))] * 3, [3 * i for i in range(6)])
    # slopes that are not distinct
    yield admissible(1, 1, [[0, 1, 2]], [1, 1, 1])
    yield admissible(1, 2, [[0, 1, 2], [0, 2, 4]], ["1/2", "1/2", 5])
    # repeated weights: rows with ties, slopes at the means (zero band) or
    # off them (the hypothesis fails), candidates permuting equal weights
    yield admissible(1, 2, [[0, 0, 2], [0, 1, 2]], [0, 1, 4], 1)
    yield admissible(1, 2, [[0, 0, 2], [0, 1, 2]], [0, 1, 5], 2)
    yield admissible(1, 2, [[0, 0, 2, 2, 5], [0, 1, 2, 3, 4]], [0, 1, 4, 5, 9], 1)
    yield admissible(1, 1, [[0, 0, 0, 0, 7, 7, 7, 7]], [-1, 0, 1, 2, 5, 6, 7, 8])
    yield admissible(2, 1, [[-1, -1, 0, 3], [0, 1, 1, 1]], ["-1/2", 0, "1/2", 2])
    yield admissible(3, 1, [[1, 1, 1], [0, 2, 2], [0, 0, 3]], ["1/3", 1, 2], 3)
    # weights and slopes just inside the int64 guard, then just beyond it
    big = 2**59
    yield admissible(1, 1, [[-big, 0, 1, big]], [1 - big, -1, 2, big])
    yield admissible(1, 2, [[-big, 0, big], [-1, 0, big - 2]], [-big - 1, 0, 2 * big - 2])
    yield admissible(2, 1, [[-big, -1, big], [1, 2, 3]], [Fraction(1 - big, 2), Fraction(1, 2), Fraction(big + 3, 2)])
    yield admissible(1, 1, [[-(2**61), 0, 2**61]], [-(2**61), 0, 2**61])
    yield admissible(1, 1, [[0, 1, 2]], [2**61, -(2**61) + 1, 2])
    # rejections: rows that are not e*f, tau beyond the embeddings
    yield admissible(1, 2, [[0, 1, 2]], [0, 1, 2])
    yield admissible(2, 1, [[0, 1], [0, 1]], [0, 1], 3)


def classicality(p, e, f, n, weights, mu):
    params = {"local": {"p": p, "e": e, "f": f}, "n": n, "weights": weights, "mu": [str(v) for v in mu]}
    return {"command": "classicality", "params": params}


def classicality_jobs():
    yield classicality(11, 1, 1, 1, [[5]], [11])
    yield classicality(11, 1, 1, 1, [[5]], [12])
    yield classicality(11, 1, 1, 2, [[10, 4]], ["13/2", 9])
    yield classicality(11, 1, 1, 2, [[10, 4]], [7, 9])
    yield classicality(3, 2, 1, 3, [[9, 5, 2], [8, 5, 0]], ["3/2", "1/2", "1/3"])
    yield classicality(3, 2, 1, 3, [[9, 5, 2], [8, 5, 0]], ["3/2", "1/2", 1])
    yield classicality(5, 1, 2, 2, [[4, 1], [6, 6]], ["1/2", 1])
    yield classicality(7, 2, 2, 4, [[7, 5, 3, 1]] * 4, [1, 1, 1, 1])
    yield classicality(7, 2, 2, 4, [[7, 5, 3, 1]] * 4, ["3/2", 1, 1, 1])
    yield classicality(2, 1, 1, 2, [[0, 0]], ["-1/2", "1/2"])
    # rejections: rows that are not e*f, rank mismatch, a composite p,
    # rows not weakly decreasing
    yield classicality(3, 1, 2, 1, [[2]], [1])
    yield classicality(3, 1, 1, 3, [[3, 2]], [1, 1])
    yield classicality(4, 1, 1, 1, [[2]], [1])
    yield classicality(3, 1, 1, 2, [[1, 2]], [0, 0])


JOBS = [*admissible_jobs(), *classicality_jobs()]

DIGEST = "75f3bc484f659498f2bd37a87d1108e4c204c6ebedd9755af63ee0ab0d8b5b4e"


def outcome(job):
    """(report, exit code), or the error line of an exit 1 as the CLI writes it."""
    try:
        return run_job(job)
    except (InputError, SlopecertError, ValueError) as exc:
        return {"error": f"error: {exc}"}, 1


def golden_digest():
    h = hashlib.sha256()
    for job in JOBS:
        report, code = outcome(job)
        h.update(canonical_json({"code": code, "report": report}).encode())
    return h.hexdigest()


def test_reports_match_the_golden_digest():
    assert golden_digest() == DIGEST


def _masks(candidate):
    """(subset mask, image masks) of a reported candidate."""
    subset = candidate["subset"]
    return sum(1 << (i - 1) for i in subset), tuple(sum(1 << (row[i - 1] - 1) for i in subset) for row in candidate["theta"])


def test_listings_match_the_oracle():
    # every listing the oracle walks in under about 10**5 products, in order
    checked = 0
    for job in JOBS:
        report, code = outcome(job)
        if job["command"] != "admissible" or code == 1 or report["result"]["alignment"]["status"] == "not-distinct":
            continue
        params = job["params"]
        weights, n = params["weights"], len(params["slopes"])
        if sum(comb(n, k) ** (len(weights) + 1) for k in range(1, n)) > 10**5:
            continue
        scaled, denom = over_common_denominator([Fraction(s) for s in params["slopes"]])
        want = list(candidates_python(weights, scaled, params["e"], denom, 0, False))
        assert [_masks(c) for c in report["result"]["candidates"]] == want, job
        checked += 1
    assert checked >= 20
