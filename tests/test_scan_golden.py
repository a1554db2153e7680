"""Golden digest of the canonical reports of the benchmark-shaped
``keylemma-scan`` jobs.

The jobs are the scan workload's grid at three windows: ``n_max`` 4 and the
weights in [c - 3, c + 3] for c in {-6, 0, 5}, at band 1 and band 2, one job
per (e, f) in {(1, 1), (1, 2), (2, 1), (2, 2)}.  Every report and exit code
is written as canonical JSON and hashed in job order; the digest pins the
counts and the witnesses the scan produces.

``WIDE_JOBS`` are band-3, band-7/2 and band-4 grids whose chunks list
several 1,024-vector blocks each (the band-4 grid of the default shapes
lists 460 blocks over its 14 chunks), pinned the same way by
``WIDE_DIGEST``.
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

WIDE_JOBS = [
    {"command": "keylemma-scan", "params": params}
    for params in (
        {"n_max": 4, "kappa_min": -6, "kappa_max": 6, "band_scale": 4},
        {"n_max": 4, "kappa_min": -5, "kappa_max": 5, "ef": [[1, 2], [2, 2]], "band_scale": 3},
        {"n_max": 4, "kappa_min": 0, "kappa_max": 9, "ef": [[1, 1], [3, 1]], "band_scale": 3, "max_witnesses": 9},
        {"n_max": 3, "kappa_min": -4, "kappa_max": 8, "ef": [[1, 1], [2, 2]], "band_scale": "7/2"},
        {"n_max": 4, "kappa_min": -3, "kappa_max": 3, "ef": [[2, 2]], "band_scale": 4, "max_witnesses": 0},
    )
]

DIGEST = "227b00fd1af6c1984954845017fa04e55729a9f0df10d55f4fb700cb67ac275f"

WIDE_DIGEST = "0ca9a5af016c3decac0ea1218e40dd37444214f1c460ed27a55a4fdce8a1a35c"


def golden_digest(jobs=JOBS):
    h = hashlib.sha256()
    for job in jobs:
        report, code = run_job(job)
        h.update(canonical_json({"code": code, "report": report}).encode())
    return h.hexdigest()


def test_reports_match_the_golden_digest():
    assert golden_digest() == DIGEST


def test_wide_reports_match_their_golden_digest():
    assert golden_digest(WIDE_JOBS) == WIDE_DIGEST
