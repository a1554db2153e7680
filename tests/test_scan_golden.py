"""Golden digest of the canonical reports of the benchmark-shaped
``keylemma-scan`` jobs.

The jobs are the scan workload's grid at three windows: ``n_max`` 4 and the
weights in [c - 3, c + 3] for c in {-6, 0, 5}, at band 1 and band 2, one job
per (e, f) in {(1, 1), (1, 2), (2, 1), (2, 2)}.  Every report and exit code
is written as canonical JSON and hashed in job order; the digest pins the
counts and the witnesses the scan produces.
"""

import hashlib

from slopecert.cli import canonical_json, run_job

JOBS = [
    {
        "command": "keylemma-scan",
        "params": {
            "n_max": 4, "kappa_min": c - 3, "kappa_max": c + 3,
            "band_scale": band, "ef": [list(ef)], "max_witnesses": 5,
        },
    }
    for c in (-6, 0, 5)
    for band in (1, 2)
    for ef in ((1, 1), (1, 2), (2, 1), (2, 2))
]

DIGEST = "227b00fd1af6c1984954845017fa04e55729a9f0df10d55f4fb700cb67ac275f"


def golden_digest():
    h = hashlib.sha256()
    for job in JOBS:
        report, code = run_job(job)
        h.update(canonical_json({"code": code, "report": report}).encode())
    return h.hexdigest()


def test_reports_match_the_golden_digest():
    assert golden_digest() == DIGEST
