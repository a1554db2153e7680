"""Each benchmark checker accepts a real report and rejects a corrupted one.

Run with  PYTHONPATH=src python -m pytest bench -q  from the repository root.
"""

import copy
import random
import sys
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from slopecert.cli import run_job  # noqa: E402


def run(op):
    return run_job(op.job)


def rejects(checker, op, report, code=0):
    with pytest.raises(CheckFailed):
        checker(op, report, code)


@pytest.fixture(scope="module")
def replay_case():
    op = workloads._replay_op(random.Random(5), "replay-sp", 2, (1, 2), [Fraction(7, 2), Fraction(-3)])
    report, code = run(op)
    return op, report, code


def test_replay_checker(replay_case):
    op, report, code = replay_case
    checks.check_replay(op, report, code)
    rejects(checks.check_replay, op, report, code=2)

    def corrupt(edit):
        bad = copy.deepcopy(report)
        edit(bad["result"])
        rejects(checks.check_replay, op, bad)

    corrupt(lambda c: c.update(verdict="Failed"))
    corrupt(lambda c: c["places"][0].update(survivors=[[0], [-1, 1]]))
    corrupt(lambda c: c["places"][0]["k2"][0].reverse())
    corrupt(lambda c: c["places"][0]["step_checks"][-1].update(value=c["places"][0]["step_checks"][-1]["strict_bound"]))
    corrupt(lambda c: c["places"][0]["step_checks"][0].update(strict_bound="0/1"))
    corrupt(lambda c: c["places"][0].update(x2_prime=["1/1", "-1/1"]))


def test_verify_checker(replay_case):
    op, report, _ = replay_case
    verify = workloads.Op("verify", {"command": "verify-cert", "params": {"certificate": report["result"]}})
    vreport, vcode = run(verify)
    checks.check_verify(verify, vreport, vcode)
    rejects(checks.check_verify, verify, {"result": {"ok": False, "mismatches": ["verdict"]}}, 2)
    rejects(checks.check_verify, verify, {"result": {"ok": True, "mismatches": ["verdict"]}})


def test_brute_survivors_on_the_pinned_certificate():
    # zero seed, rank 2, one place: x2' = (1, -27), only the Artin line survives
    assert checks.brute_survivors("C", [Fraction(1), Fraction(-27)]) == [[0]]
    assert checks.brute_survivors("D", [Fraction(1), Fraction(1)]) == []
    assert checks.brute_survivors("D", [Fraction(-1), Fraction(-1)]) == [[-2, 1], [-2, 2]]


def test_step_bounds_match_the_program():
    for command, n, ef in workloads.REPLAY_SHAPES[:12]:
        rng = random.Random(n)
        op = workloads._replay_op(rng, command, n, ef, workloads._bounded_seed(rng, command, n, ef))
        report, code = run(op)
        checks.check_replay(op, report, code)  # includes the step-2 prediction


def scan_op(band, n_max=3):
    params = {"n_max": n_max, "kappa_min": -2, "kappa_max": 2, "band_scale": band, "ef": [[1, 1]],
              "max_witnesses": 5}
    return workloads.Op("scan", {"command": "keylemma-scan", "params": params})


def test_scan_checker():
    op1, op2 = scan_op(1), scan_op(2)
    rep1, code1 = run(op1)
    rep2, code2 = run(op2)
    checks.check_scan(op1, rep1, code1)
    checks.check_scan(op2, rep2, code2)
    assert rep2["result"]["witnesses"]

    bad = copy.deepcopy(rep1)
    bad["result"]["data_checked"] += 1
    bad["result"]["certified"] += 1
    rejects(checks.check_scan, op1, bad)
    bad = copy.deepcopy(rep1)
    bad["result"].update(misaligned=1, certified=bad["result"]["certified"] - 1)
    rejects(checks.check_scan, op1, bad)

    w = rep2["result"]["witnesses"][0]
    bad = copy.deepcopy(rep2)
    bad["result"]["witnesses"][0]["slopes"] = [f"{Fraction(s) + 1}" for s in w["slopes"]]
    rejects(checks.check_scan, op2, bad)
    bad = copy.deepcopy(rep2)
    n = len(w["kappa"])
    bad["result"]["witnesses"][0]["images_tau"] = list(w["subset"])  # identity: moves nothing
    assert len(w["subset"]) < n
    rejects(checks.check_scan, op2, bad)


def test_data_count_agrees_with_the_scan_at_fractional_band():
    op = scan_op(2, n_max=2)
    op.job["params"]["band_scale"] = "3/2"
    report, code = run(op)
    checks.check_scan(op, report, code)


def local_sample():
    return workloads.local_ops(3)


def test_hilbert_checker_and_product_formula():
    ops = [op for op in local_sample() if op.kind == "hilbert"]
    single = ops[0]
    report, code = run(single)
    checks.check_hilbert(single, report, code)
    flipped = copy.deepcopy(report)
    flipped["result"]["symbol"] *= -1
    rejects(checks.check_hilbert, single, flipped)
    lying = copy.deepcopy(report)
    lying["result"]["oracle_solvable"] = not report["result"]["oracle_solvable"]
    rejects(checks.check_hilbert, single, lying)

    group = [op for op in ops if op.info["group"] == 0]
    reports = [run(op)[0] for op in group]
    checks.check_product_formula(group, reports)
    reports[0] = copy.deepcopy(reports[0])
    reports[0]["result"]["symbol"] *= -1
    with pytest.raises(CheckFailed):
        checks.check_product_formula(group, reports)


def _orbit_size(values, group):
    """Orbit size by applying every signed permutation; no group theory."""
    n = len(values)
    seen = set()
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            if group == "D" and signs.count(-1) % 2:
                continue
            seen.add(tuple(values[j] if s > 0 else 1 / values[j] for j, s in zip(perm, signs)))
    return len(seen)


@pytest.mark.parametrize("values", [(2, 3, 5), (2, Fraction(1, 2), 3), (1, 2, 2), (-1, 1, 3), (2, 2, Fraction(1, 2))])
@pytest.mark.parametrize("group", ["C", "D"])
def test_stabilizer_order_against_enumeration(values, group):
    values = [Fraction(v) for v in values]
    order = 2 ** len(values) * 6 // (2 if group == "D" else 1)
    assert order // checks.stabilizer_order(values, group) == _orbit_size(values, group)


def test_ps_checker():
    op = workloads.Op("ps", {"command": "ps-irreducible",
                             "params": {"q": 3, "values": ["2/1", "1/2", "5/1", "-1/1"], "group": "C"}})
    report, code = run(op)
    checks.check_ps(op, report, code)
    for field, value in (("orbit_size", report["result"]["orbit_size"] + 1),
                         ("sp_irreducible", not report["result"]["sp_irreducible"])):
        bad = copy.deepcopy(report)
        bad["result"][field] = value
        rejects(checks.check_ps, op, bad)


def test_wald_checker():
    op = next(op for seed in range(50) for op in workloads.local_ops(seed)
              if op.kind == "wald" and op.job["params"]["split_values"])
    report, code = run(op)
    checks.check_wald(op, report, code)
    bad = copy.deepcopy(report)
    bad["result"]["sign"] = -1
    rejects(checks.check_wald, op, bad)
    bad = copy.deepcopy(report)
    entry = bad["result"]["structure"][0]
    entry["predicted"] = entry["ratio"] = str(Fraction(entry["ratio"]) * 2)
    rejects(checks.check_wald, op, bad)


def test_check_round_names_the_failing_job(replay_case):
    op, report, code = replay_case
    bad = copy.deepcopy(report)
    bad["result"]["verdict"] = "Failed"
    with pytest.raises(CheckFailed, match="replay-sp"):
        checks.check_round([op], [bad], [code])
