"""Golden digest of the canonical reports of a fixed list of replay and
``verify-cert`` jobs.

The jobs cover both schemas, ranks 1-3, four (e, f) shapes, mixed seed
denominators, several places, both sign conventions, a replay whose verdict
fails, and certificates tampered in a slope, a step bound and a margin.
Every report and exit code is written as canonical JSON and hashed in job
order; the digest pins the bytes the replay and the verifier produce.
"""

import copy
import hashlib

from slopecert.cli import canonical_json, run_job

REPLAYS = [
    ("replay-sp", {"n": 1, "locals": [{"p": 3}], "seeds": "zero"}),
    ("replay-sp", {"n": 2, "locals": [{"p": 3, "f": 2}, {"p": 5, "e": 2}], "seeds": [["1/2", "-3/4"], ["5/3", "-7/2"]]}),
    ("replay-sp", {"n": 2, "locals": [{"p": 7, "e": 2, "f": 2}], "seeds": [["-11/6", "9/4"]], "paper_sign": True}),
    ("replay-sp", {"n": 3, "locals": [{"p": 5, "e": 2}], "seeds": [["5", "-2", "-53"]]}),
    ("replay-sp", {"n": 3, "locals": [{"p": 3}], "seeds": [["1/2", "-1/3", "5/4"]], "paper_sign": True}),
    ("replay-so", {"n": 1, "locals": [{"p": 5, "e": 2}], "seeds": [["1/2", "0"]]}),
    ("replay-so", {"n": 1, "locals": [{"p": 3, "e": 2, "f": 2}], "seeds": [["-5/6", "7/4"]], "paper_sign": True}),
    ("replay-so", {"n": 2, "locals": [{"p": 11}], "seeds": [["3/5", "-1/7", "2", "-9/2"]]}),
]

DIGEST = "de52b8bc11cccabfea66b026f6b3e885f2ae0546742f8b839fe100e9cb9dd0bf"

# Zero-seed replays at wide shapes, each verified once.  Their step-3 point is
# parallel, so every kernel table of the replay and of its verification sums
# m copies of one weight row: m = 4 and N = 8, m = 2 and N = 12, m = 3 and
# N = 7.
WIDE_REPLAYS = [
    ("replay-so", {"n": 2, "locals": [{"p": 3, "e": 2, "f": 2}], "seeds": "zero"}),
    ("replay-so", {"n": 3, "locals": [{"p": 5, "f": 2}], "seeds": "zero"}),
    ("replay-sp", {"n": 3, "locals": [{"p": 7, "f": 3}], "seeds": "zero"}),
]

WIDE_DIGEST = "6d709dc781f86072e1976175971f867348c1de436dbc8a3080d3f53a90e04fb5"


def tampered(cert):
    """Forgeries of a certificate's first place: a slope, a step bound and,
    where the place has one, a hypothesis margin."""
    out = []
    for name, edit in (
        ("x1_prime", lambda place: place["x1_prime"].__setitem__(0, "5/1")),
        ("step_checks", lambda place: place["step_checks"][0].__setitem__("strict_bound", "0/1")),
        ("hypothesis_margins", lambda place: place["hypothesis_margins"].__setitem__(0, "1/3")),
    ):
        doc = copy.deepcopy(cert)
        if doc["places"][0][name]:
            edit(doc["places"][0])
            out.append(doc)
    return out


def reports(replays=REPLAYS, forge=True):
    """(job, report, exit code) for every replay, its verification and, with
    ``forge``, its forgeries."""
    for command, params in replays:
        job = {"command": command, "params": params}
        report, code = run_job(job)
        yield job, report, code
        cert = report["result"].get("certificate", report["result"])
        for doc in [cert, *(tampered(cert) if forge else [])]:
            job = {"command": "verify-cert", "params": {"certificate": doc}}
            report, code = run_job(job)
            yield job, report, code


def golden_digest(replays=REPLAYS, forge=True):
    h = hashlib.sha256()
    for _, report, code in reports(replays, forge):
        h.update(canonical_json({"code": code, "report": report}).encode())
    return h.hexdigest()


def test_reports_match_the_golden_digest():
    assert golden_digest() == DIGEST


def test_wide_parallel_shapes_match_their_digest():
    assert golden_digest(WIDE_REPLAYS, forge=False) == WIDE_DIGEST
