"""Golden digest of the canonical reports of a fixed list of local-symbol jobs.

The jobs cover ``hilbert`` with the oracle at every prime up to
``symbols.ORACLE_MAX_PRIME`` and every parity of the two valuations (all
valuations up to 3 at p = 2) and at the real place; ``wald-sign`` from
m = 1 up to the schema's cap on m, with split indices, several discriminant
classes, a sign of -1 and the degenerate and split cases that exit 1; and
one ``ps-irreducible`` job.  Every report and exit code, or error line and
exit 1, is written as canonical JSON and hashed in job order; the digest
pins the bytes the closed forms, the Hensel search and the transfer-factor
arithmetic produce.
"""

import hashlib
from itertools import product

from slopecert.cli import InputError, canonical_json, run_job
from slopecert.errors import SlopecertError
from slopecert.lattice import is_prime

UNITS = (-1, 2, -3, 5, 6, -7, 10, 11, -13, 14)


def hilbert_jobs():
    for p in [q for q in range(2, 102) if is_prime(q)]:
        u1, w1, u2, w2 = [n for n in UNITS if n % p][:4]
        valuations = product(range(4), repeat=2) if p == 2 else product(range(2), repeat=2)
        for va, vb in valuations:
            for a, b in ((f"{u1 * p**va}", f"{w1 * p**vb}"), (f"{u2 * p**va}/4", f"{w2 * p**vb}/9")):
                yield {"command": "hilbert", "params": {"a": a, "b": b, "place": p, "oracle": True}}
    for a, b in (("-1", "-1"), ("-2/3", "5"), ("3", "-7/2")):
        yield {"command": "hilbert", "params": {"a": a, "b": b, "place": "inf", "oracle": True}}


def wald(p, splits, fields):
    params = {
        "p": p,
        "m": len(splits) + len(fields),
        "split_values": list(splits),
        "field_elements": [{"d": d, "a": a, "b": b} for d, a, b in fields],
    }
    return {"command": "wald-sign", "params": params}


def wald_jobs():
    yield wald(5, [], [(2, "1", "1")])
    yield wald(5, ["2"], [(2, "1", "1")])
    yield wald(3, ["2", "5"], [(-1, "2", "1")])
    yield wald(3, ["2"], [(-1, "1", "2"), (2, "3", "1")])
    yield wald(3, ["2"], [(3, "1", "1")])  # sign -1: (3, -1)_3 = -1
    yield wald(7, ["-3/2", "4", "5/3"], [(3, "1/2", "-2"), (-1, "-5", "3/2"), (5, "3", "1")])
    yield wald(5, ["2", "1/2"], [(2, "1", "1")])  # degenerate: y-values collide
    yield wald(5, [], [(-1, "1", "1")])  # -1 is a square over Q_5
    for m in (8, 32, 128):
        yield wald(3, [], [(-1, str(k), "1") for k in range(1, m + 1)])
    yield wald(3, [f"{k + 1}/{k + 2}" for k in range(1, 65)], [(-1, str(k), "1") for k in range(1, 65)])
    yield wald(5, [f"-{k + 2}/{k}" for k in range(1, 9)], [(d, str(k), f"{k + 1}/3") for k, d in enumerate((2, 3, -2, 7) * 2, 1)])


JOBS = [
    *hilbert_jobs(),
    *wald_jobs(),
    {"command": "ps-irreducible", "params": {"q": 3, "values": ["2", "-1/3", "5/7", "3/2", "-4"], "group": "C"}},
]

DIGEST = "dc288390a1e94cf4e97f3b2cabaff85e0b25800e23f799679a8cf74d365743b7"


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
