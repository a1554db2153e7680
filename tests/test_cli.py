import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from slopecert.cli import JOB_SCHEMAS, canonical_json, main, run_job
from slopecert.lattice import LocalDatum, parse_rat, rat_str
from slopecert.replay import replay_orthogonal, replay_symplectic
from slopecert.satake import RefinedSlopes


SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_process(*args, timeout=None):
    """Run the CLI in a child process that imports this checkout's package."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "slopecert.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def invoke(tmp_path, job, extra=()):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return cli_process("--job", str(path), *extra)


def test_replay_job_matches_worked_example(tmp_path):
    job = {"command": "replay-sp", "params": {"n": 2, "locals": [{"p": 3}], "seeds": "zero"}}
    proc = invoke(tmp_path, job)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["result"]["verdict"] == "ArtinPlusIrreducible"
    assert report["result"]["places"][0]["k1"] == [[6, 4]]
    assert report["result"]["places"][0]["x2_prime"] == ["1/1", "-27/1"]


def test_reports_byte_identical(tmp_path):
    job = {
        "command": "replay-so",
        "params": {"n": 1, "locals": [{"p": 5, "e": 2}], "seeds": [["1/2", "0"]]},
    }
    a = invoke(tmp_path, job)
    b = invoke(tmp_path, job)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_out_file_written_atomically(tmp_path):
    out = tmp_path / "report.json"
    job = {
        "command": "hilbert",
        "params": {"a": "-1", "b": "-1", "place": 2},
        "out": str(out),
    }
    proc = invoke(tmp_path, job)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["result"]["symbol"] == -1


def test_verify_cert_roundtrip_and_tamper(tmp_path):
    job = {"command": "replay-sp", "params": {"n": 1, "locals": [{"p": 3}], "seeds": "zero"}}
    cert = json.loads(invoke(tmp_path, job).stdout)["result"]
    ok = invoke(tmp_path, {"command": "verify-cert", "params": {"certificate": cert}})
    assert ok.returncode == 0 and json.loads(ok.stdout)["result"]["ok"]
    cert["places"][0]["x1_prime"][0] = "5/1"
    bad = invoke(tmp_path, {"command": "verify-cert", "params": {"certificate": cert}})
    assert bad.returncode == 2
    assert not json.loads(bad.stdout)["result"]["ok"]


def test_verify_cert_rejects_certificate_without_places():
    cert = {"schema": "C", "rank": 2, "module_rank": 5, "verdict": "ArtinPlusIrreducible", "places": []}
    report, code = run_job({"command": "verify-cert", "params": {"certificate": cert}})
    assert code == 2
    assert report["result"] == {"ok": False, "mismatches": ["places"]}


def test_run_job_validates_before_dispatch():
    from slopecert.cli import InputError

    with pytest.raises(InputError):
        run_job({"command": "hilbert", "params": {"a": "-1", "b": "-1"}})
    report, code = run_job(
        {"command": "hilbert", "params": {"a": "-1", "b": "-1", "place": 2}}
    )
    assert code == 0 and report["result"]["symbol"] == -1


def test_precondition_violation_is_input_error(tmp_path):
    proc = invoke(tmp_path, {"command": "hilbert", "params": {"a": "0", "b": "3", "place": 5}})
    assert proc.returncode == 1


def test_schema_violation_reports_field_path(tmp_path):
    proc = invoke(
        tmp_path,
        {"command": "replay-sp", "params": {"n": 0, "locals": [{"p": 3}], "seeds": "zero"}},
    )
    assert proc.returncode == 1
    assert "params.n" in proc.stderr


def rejected_in_one_line(tmp_path, capsys, job):
    """Run a job through main; it must exit 1 with one stderr line and no report."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["--job", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_certificate_place_without_seed_rejected(tmp_path, capsys):
    cert, _ = run_job({"command": "replay-sp", "params": {"n": 1, "locals": [{"p": 3}], "seeds": "zero"}})
    del cert["result"]["places"][0]["seed"]
    job = {"command": "verify-cert", "params": {"certificate": cert["result"]}}
    assert "'seed' is a required property" in rejected_in_one_line(tmp_path, capsys, job)


def test_certificate_table_shape_rejected(tmp_path, capsys):
    cert, _ = run_job({"command": "replay-sp", "params": {"n": 1, "locals": [{"p": 3}], "seeds": "zero"}})
    cert["result"]["places"][0]["local"]["e"] = 2  # two embeddings, one-row tables
    job = {"command": "verify-cert", "params": {"certificate": cert["result"]}}
    assert "k1 is not 2 x 1" in rejected_in_one_line(tmp_path, capsys, job)


def test_step_failed_is_a_one_line_error(tmp_path, capsys):
    # the cone has a closed-form first point, so a step fails only when
    # that point lies beyond max_sum: a resource limit, not a verdict
    job = {"command": "replay-sp", "params": {"n": 2, "locals": [{"p": 3}], "seeds": "zero", "max_sum": 5}}
    assert "step-1 cone empty" in rejected_in_one_line(tmp_path, capsys, job)


def test_certificate_weight_beyond_int64_rejected(tmp_path, capsys):
    cert, _ = run_job({"command": "replay-sp", "params": {"n": 1, "locals": [{"p": 3}], "seeds": "zero"}})
    cert["result"]["places"][0]["k3"][0][0] = 10**30
    job = {"command": "verify-cert", "params": {"certificate": cert["result"]}}
    assert "int64" in rejected_in_one_line(tmp_path, capsys, job)


def leaves(node, path=()):
    """(path, value) of every scalar in a JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path, node


def mutations(value):
    """Other values for one leaf: a different value of the same JSON type,
    and the same number under another type (bool -> int, int -> float)."""
    if isinstance(value, bool):
        return [not value, int(value)]
    if isinstance(value, int):
        return [value + 1, float(value)]
    if value is None:
        return ["forged"]
    try:
        return [rat_str(parse_rat(value) + 1)]
    except ValueError:
        return [value + "x"]


@pytest.mark.parametrize(
    "cert, n_leaves",
    [
        (replay_symplectic(2, [LocalDatum(11, 1, 1)], [RefinedSlopes([0, 0])]), 45),
        (replay_orthogonal(1, [LocalDatum(5, 2, 1)], [RefinedSlopes([0, Fraction(1, 2)])]), 61),
        (replay_symplectic(3, [LocalDatum(3, 1, 2)], [RefinedSlopes([0, 0, 0])]), 86),
    ],
    ids=["sp-11", "so-5-e2", "sp-3-f2"],
)
def test_no_leaf_of_a_certificate_can_be_changed(tmp_path, capsys, cert, n_leaves):
    """Every changed leaf is a mismatch (exit 2) or a one-line error (exit 1).

    Ints move by one, so the prime of a place becomes a composite.  The
    prime does not enter the replay: another prime gives the true
    certificate of that place, which verifies.
    """
    doc = cert.to_dict()
    assert len(list(leaves(doc))) == n_leaves
    assert run_job({"command": "verify-cert", "params": {"certificate": doc}})[1] == 0
    path = tmp_path / "job.json"
    for where, value in leaves(doc):
        for other in mutations(value):
            bad = copy.deepcopy(doc)
            target = bad
            for key in where[:-1]:
                target = target[key]
            target[where[-1]] = other
            path.write_text(json.dumps({"command": "verify-cert", "params": {"certificate": bad}}))
            code = main(["--job", str(path)])
            out, err = capsys.readouterr()
            if code == 2:
                assert json.loads(out)["result"]["ok"] is False, where
            else:
                assert code == 1, (where, other, code)
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (where, err)

def test_missing_certificate_path_rejected(tmp_path, capsys):
    job = {"command": "verify-cert", "params": {"path": str(tmp_path / "absent.json")}}
    assert "params.path" in rejected_in_one_line(tmp_path, capsys, job)


def test_zero_denominator_rejected(tmp_path, capsys):
    job = {"command": "replay-sp", "params": {"n": 1, "locals": [{"p": 3}], "seeds": [["1/0"]]}}
    assert "params.seeds" in rejected_in_one_line(tmp_path, capsys, job)


def test_tau_beyond_embeddings_rejected(tmp_path, capsys):
    job = {
        "command": "admissible",
        "params": {"e": 1, "f": 1, "slopes": ["1", "-1"], "weights": [[0, 2]], "tau": 3},
    }
    assert "params.tau" in rejected_in_one_line(tmp_path, capsys, job)


def test_weight_rows_must_match_embeddings(tmp_path, capsys):
    # a place of shape (2, 2) has four embeddings, so four weight rows
    job = {"command": "admissible", "params": {"e": 2, "f": 2, "slopes": ["-1", "1"], "weights": [[-1, 1]]}}
    assert "params.weights" in rejected_in_one_line(tmp_path, capsys, job)


def test_admissible_lists_every_candidate_of_a_wide_datum(tmp_path):
    # N = 8, two embeddings: every proper subset passes with the identity
    # assignment, 254 candidates; a walk over all 739,160 (subset, image
    # choice) pairs took about 30 s
    params = {"e": 1, "f": 2, "slopes": [str(2 * i) for i in range(8)], "weights": [list(range(8))] * 2}
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "admissible", "params": params}))
    proc = cli_process("--job", str(path), timeout=20)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert len(result["candidates"]) == 254
    assert result["alignment"]["status"] == "certified"


def test_unknown_command_rejected(tmp_path):
    proc = invoke(tmp_path, {"command": "frobnicate", "params": {}})
    assert proc.returncode == 1


def test_scan_job_and_workers_flag(tmp_path):
    job = {
        "command": "keylemma-scan",
        "params": {"n_max": 2, "kappa_min": -1, "kappa_max": 1, "ef": [[1, 1]], "band_scale": 1},
    }
    a = invoke(tmp_path, job)
    b = invoke(tmp_path, job, extra=("--workers", "2"))
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_wald_job(tmp_path):
    job = {
        "command": "wald-sign",
        "params": {
            "p": 5,
            "m": 2,
            "split_values": ["2"],
            "field_elements": [{"d": 2, "a": "1", "b": "1"}],
        },
    }
    proc = invoke(tmp_path, job)
    out = json.loads(proc.stdout)
    assert proc.returncode == 0 and out["result"]["sign"] == 1
    assert all(entry["match"] for entry in out["result"]["structure"])


def test_print_schemas():
    proc = cli_process("--print-schemas")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert set(doc["params"]) == set(JOB_SCHEMAS)


def test_docs_schema_copy_matches_print_schemas(capsys):
    assert main(["--print-schemas"]) == 0
    docs = Path(__file__).resolve().parent.parent / "docs" / "job-schemas.json"
    assert capsys.readouterr().out == docs.read_text()


def test_seed_flag_is_gone():
    assert main(["--seed", "3", "--print-schemas"]) == 1


def test_canonical_json_is_sorted():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
