import ast
import copy
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from slopecert import kernels
from slopecert import scan as scan_mod
from slopecert.cli import JOB_SCHEMAS, canonical_json, main, run_job
from slopecert.lattice import PRIME_LIMIT, LocalDatum, parse_rat, rat_str
from slopecert.replay import replay_orthogonal, replay_symplectic
from slopecert.satake import RefinedSlopes
from slopecert.symbols import MAX_DISCRIMINANT, ORACLE_MAX_PRIME


SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli_process(*args, timeout=None, entry=("-m", "slopecert.cli")):
    """Run the CLI (or the Python ``entry`` given) in a child process that imports this checkout's package."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *entry, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def invoke(tmp_path, job, extra=(), timeout=None):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    return cli_process("--job", str(path), *extra, timeout=timeout)


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
    cert = {"schema": "C", "rank": 2, "module_rank": 5, "paper_sign": False, "verdict": "ArtinPlusIrreducible",
            "failure_reason": None, "places": []}
    report, code = run_job({"command": "verify-cert", "params": {"certificate": cert}})
    assert code == 2
    assert report["result"] == {"ok": False, "mismatches": ["places"]}


SMALL_CERTIFICATE = replay_symplectic(1, [LocalDatum(3)], [RefinedSlopes([0])]).to_dict()


@pytest.mark.parametrize(
    "where, value, code",
    [
        (("rank",), True, 1),
        (("rank",), 1.0, 1),
        (("rank",), "1", 1),
        (("places", 0, "local", "p"), "3", 1),
        (("places", 0, "local", "e"), True, 1),
        (("paper_sign",), 0, 1),
        (("places", 0, "k1", 0, 0), 4.0, 1),
        (("places", 0, "seed", 0), "0.0", 1),
        (("places", 0, "seed", 0), "1/2 ", 1),
        (("places", 0, "seed", 0), "1e5", 1),
        (("places", 0, "seed", 0), "1/2", 2),
        (("places", 0, "x1_prime", 0), "1/2\n", 1),
    ],
    ids=["rank-true", "rank-float", "rank-string", "p-string", "e-true", "paper-sign-int", "k1-float",
         "seed-decimal", "seed-space", "seed-exponent", "seed-tampered-within-schema", "x1-final-newline"],
)
def test_certificate_outside_its_schema_is_an_input_error(tmp_path, capsys, where, value, code):
    """A field outside the certificate schema is a one-line exit 1 naming it;
    a tampered field within the schema stays a mismatch, exit 2."""
    cert = copy.deepcopy(SMALL_CERTIFICATE)
    target = cert
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "verify-cert", "params": {"certificate": cert}}))
    assert main(["--job", str(path)]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert json.loads(out)["result"]["ok"] is False and err == ""
    else:
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: certificate.{'/'.join(map(str, where))}: ")


def test_final_newline_is_outside_the_rational_pattern(tmp_path, capsys):
    # "$" ends the string, as in ECMA-262, not before a final newline
    job = {"command": "hilbert", "params": {"a": "1/2\n", "b": "3", "place": 5}}
    assert rejected_in_one_line(tmp_path, capsys, job).startswith("error: params.a: '1/2\\n' does not match ")


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


def rejected_in_one_line(tmp_path, capsys, job, extra=()):
    """Run a job through main; it must exit 1 with one stderr line and no report."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = main(["--job", str(path), *extra])
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


def test_odd_rank_schema_d_certificate_rejected(tmp_path, capsys):
    # schema D has no -Id at odd rank, so step 1 cannot be re-derived; the
    # verifier names the schema and the rank instead of failing inside it
    cert, _ = run_job({"command": "replay-so", "params": {"n": 1, "locals": [{"p": 3}], "seeds": "zero"}})
    doc = cert["result"]
    doc["rank"] = 1
    place = doc["places"][0]
    place["seed"] = place["seed"][:1]
    for name in ("k1", "k2", "k3"):
        place[name] = [row[:1] for row in place[name]]
    job = {"command": "verify-cert", "params": {"certificate": doc}}
    assert rejected_in_one_line(tmp_path, capsys, job) == "error: certificate: schema D has no -Id at odd rank 1\n"


def deep_replay_job(scale):
    """replay-sp n=3 at (e, f) = (2, 1), seed (5, -2, -53) times ``scale``."""
    seed = [str(5 * scale), str(-2 * scale), str(-53 * scale)]
    return {"command": "replay-sp", "params": {"n": 3, "locals": [{"p": 5, "e": 2}], "seeds": [seed]}}


def test_seed_beyond_int64_is_a_one_line_error(tmp_path, capsys):
    # every step cone has a closed-form first point, so no ceiling on the
    # weights refuses a deep seed; the kernel's int64 range is the one bound
    report, code = run_job(deep_replay_job(1000))
    cert = report["result"]
    assert code == 0 and cert["verdict"] == "ArtinPlusIrreducible"
    verified, code = run_job({"command": "verify-cert", "params": {"certificate": cert}})
    assert code == 0 and verified["result"] == {"ok": True, "mismatches": []}
    scale = 10**15
    assert "int64" in rejected_in_one_line(tmp_path, capsys, deep_replay_job(1000 * scale))
    # the same seed in a certificate, its weight tables scaled alike
    place = cert["places"][0]
    place["seed"] = [rat_str(parse_rat(v) * scale) for v in place["seed"]]
    for name in ("k1", "k2", "k3"):
        place[name] = [[v * scale for v in row] for row in place[name]]
    job = {"command": "verify-cert", "params": {"certificate": cert}}
    assert "int64" in rejected_in_one_line(tmp_path, capsys, job)


@pytest.mark.parametrize("command", ["replay-sp", "replay-so"])
def test_max_sum_field_rejected(tmp_path, capsys, command):
    job = {"command": command, "params": {"n": 1, "locals": [{"p": 3}], "seeds": "zero", "max_sum": 10**6}}
    assert "max_sum" in rejected_in_one_line(tmp_path, capsys, job)


def test_max_cells_field_rejected(tmp_path, capsys):
    # the cells cap is the constant scan.MAX_CELLS, no longer a job field
    job = {"command": "keylemma-scan", "params": {"n_max": 1, "max_cells": 10**6}}
    assert "max_cells" in rejected_in_one_line(tmp_path, capsys, job)


@pytest.mark.parametrize(
    "command, params, field",
    [
        ("replay-sp", {"n": 1.0, "locals": [{"p": 3}], "seeds": "zero"}, "n"),
        ("keylemma-scan", {"n_max": 2.0}, "n_max"),
        ("admissible", {"e": 1.0, "f": 1, "slopes": ["-1", "1"], "weights": [[0, 2]]}, "e"),
        ("ps-irreducible", {"q": 2.0, "values": ["2"], "group": "C"}, "q"),
        ("classicality", {"local": {"p": 3}, "n": 1.0, "weights": [[2]], "mu": ["1"]}, "n"),
        ("replay-sp", {"n": 1, "locals": [{"p": 3.0}], "seeds": "zero"}, "locals/0/p"),
        ("hilbert", {"a": "2", "b": "3", "place": 5.0}, "place"),
    ],
    ids=["replay-sp", "keylemma-scan", "admissible", "ps-irreducible", "classicality", "local-p", "hilbert-place"],
)
def test_integral_float_in_an_integer_field_rejected(tmp_path, capsys, command, params, field):
    # an integer field takes a JSON integer only; Draft 2020-12 admits 1.0,
    # and the first five jobs then ended in a TypeError traceback, the last
    # two were answered
    err = rejected_in_one_line(tmp_path, capsys, {"command": command, "params": params})
    assert err.startswith(f"error: params.{field}: ")


def test_cli_runs_without_jsonschema(tmp_path):
    # jsonschema is the tests' oracle, not a run-time dependency
    blocked = ("-c", "import sys; sys.modules['jsonschema'] = None; "
                     "from slopecert.cli import main; sys.exit(main(sys.argv[1:]))")
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps({"command": "hilbert", "params": {"a": "-1", "b": "-1", "place": 2}}))
    bad.write_text(json.dumps({"command": "hilbert", "params": {"a": "-1", "b": "-1"}}))
    proc = cli_process("--job", str(good), entry=blocked)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == {"symbol": -1}
    proc = cli_process("--job", str(bad), entry=blocked)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: params.<root>: 'place' is a required property\n"


@pytest.mark.parametrize("out", [("missing", "report.json"), ("directory",)])
def test_unwritable_report_path_is_a_one_line_error(tmp_path, capsys, out):
    # a report path in a missing directory, or naming a directory, ended in
    # a traceback from the atomic write; so did the job's own "out"
    (tmp_path / "directory").mkdir()
    out = str(tmp_path.joinpath(*out))
    job = {"command": "hilbert", "params": {"a": "2", "b": "3", "place": 5}}
    err = rejected_in_one_line(tmp_path, capsys, job, extra=("--out", out))
    assert err.startswith("error: cannot write report: ")
    assert rejected_in_one_line(tmp_path, capsys, {**job, "out": out}).startswith("error: cannot write report: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["directory", "job.json"]  # no temporary file left


def test_hilbert_oracle_beyond_its_prime_limit_refused(tmp_path, capsys):
    job = {"command": "hilbert", "params": {"a": "3", "b": "5", "place": 1000003, "oracle": True}}
    err = rejected_in_one_line(tmp_path, capsys, job)
    assert f"p <= {ORACLE_MAX_PRIME}" in err and "p = 1000003" in err
    del job["params"]["oracle"]  # the closed form has no limit
    assert run_job(job) == ({"command": "hilbert", "result": {"symbol": 1}}, 0)


def test_place_of_thousands_of_digits_refused_in_a_short_line(tmp_path, capsys):
    # the refusal quoted all 4,201 digits of the place
    job = {"command": "hilbert", "params": {"a": "3", "b": "5", "place": 10**4200 + 1}}
    assert rejected_in_one_line(tmp_path, capsys, job) == (
        f"error: primality is decided only below {PRIME_LIMIT}, got an integer of 4,201 digits\n")


def test_hilbert_at_a_large_place_answered_quickly():
    # trial division to the square root took 8.6 s at this place
    job = {"command": "hilbert", "params": {"a": "3", "b": "5", "place": 10**16 + 61}}
    start = time.perf_counter()
    assert run_job(job) == ({"command": "hilbert", "result": {"symbol": 1}}, 0)
    assert time.perf_counter() - start < 1


def test_place_beyond_the_primality_limit_refused(tmp_path, capsys):
    job = {"command": "hilbert", "params": {"a": "3", "b": "5", "place": PRIME_LIMIT}}
    assert f"below {PRIME_LIMIT}" in rejected_in_one_line(tmp_path, capsys, job)


@pytest.mark.parametrize("group, n, size", [("C", 10, 3_715_891_200), ("D", 20, 2**19 * factorial(20))])
def test_long_ps_job_answered_in_closed_form(tmp_path, capsys, group, n, size):
    # 10 values did not finish in 60 s when the orbit was enumerated
    path = tmp_path / "job.json"
    values = [str(v) for v in range(2, 2 + n)]
    path.write_text(json.dumps({"command": "ps-irreducible", "params": {"q": 3, "values": values, "group": group}}))
    start = time.perf_counter()
    code = main(["--job", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0 and elapsed < 1
    orbit = json.loads(capsys.readouterr().out)["result"]["orbit_size"]
    assert isinstance(orbit, int) and orbit == size


def test_ps_job_beyond_the_values_cap_refused(tmp_path, capsys):
    # 2,000 values were answered, then writing an orbit size of more than
    # 4,300 digits ended in a traceback
    job = {"command": "ps-irreducible", "params": {"q": 3, "values": ["-1"] + [str(v) for v in range(2, 2001)], "group": "C"}}
    err = rejected_in_one_line(tmp_path, capsys, job)
    assert err.startswith("error: params.values: ") and err.endswith("is too long\n")
    # the line quotes the 14,894-character repr of the values cut to 200
    assert err.startswith("error: params.values: ['-1', '2', '3', ") and "... (14894 characters) is too long" in err
    assert len(err) < 300


@pytest.mark.parametrize("group", ["C", "D"])
def test_ps_job_evaluates_its_predicate_once(monkeypatch, group):
    # every evaluation of either irreducibility predicate reads the common q once
    from slopecert import principal

    calls = []
    common_q = principal._common_q
    monkeypatch.setattr(principal, "_common_q", lambda chars: calls.append(1) or common_q(chars))
    report, code = run_job({"command": "ps-irreducible", "params": {"q": 3, "values": ["2", "5/7"], "group": group}})
    assert code == 0 and report["result"]["completely_refinable"] is True
    assert len(calls) == 1


def test_ps_job_at_the_values_cap_answered(tmp_path, capsys):
    # distinct primes >= 5 at q = 3: no value, product or ratio is 1 or 3^{+-1},
    # so every pair is compared
    primes = [v for v in range(5, 2000) if all(v % d for d in range(2, v))][:256]
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "ps-irreducible", "params": {"q": 3, "values": list(map(str, primes)), "group": "D"}}))
    assert main(["--job", str(path)]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["completely_refinable"] is True and result["orbit_size"] == 2**255 * factorial(256)


@pytest.mark.parametrize(
    "text",
    [b'{"command": "hilbert", "params": {"a": "2", "b": "3", "place": 1' + b"0" * 5000 + b"}}", b'{"command": "\xff"}'],
    ids=["long-integer", "not-utf8"],
)
def test_job_file_read_as_a_value_error_rejected(tmp_path, capsys, text):
    # json.load raises ValueError, not JSONDecodeError, for an integer literal
    # of more than 4,300 digits, and reading bytes that are not UTF-8 raises
    # UnicodeDecodeError; both ended in a traceback
    (tmp_path / "job.json").write_bytes(text)
    assert main(["--job", str(tmp_path / "job.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: cannot read job: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000 + "]" * 100_000, '{"command": "hilbert", "params": {"a": ' + "[" * 5000 + "]" * 5000 + ', "b": "1", "place": 3}}'],
    ids=["bare-arrays", "hilbert-a"],
)
def test_job_nested_past_the_decoder_depth_rejected(tmp_path, capsys, text):
    # json.load raises RecursionError, which ended in a traceback
    (tmp_path / "job.json").write_text(text)
    assert main(["--job", str(tmp_path / "job.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: cannot read job: ") and captured.err.count("\n") == 1


def test_certificate_nested_past_the_decoder_depth_rejected(tmp_path, capsys):
    (tmp_path / "cert.json").write_text('{"places": ' + "[" * 5000 + "]" * 5000 + "}")
    job = {"command": "verify-cert", "params": {"path": str(tmp_path / "cert.json")}}
    assert rejected_in_one_line(tmp_path, capsys, job).startswith("error: params.path: cannot read certificate: ")


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
def test_report_mode_follows_the_umask(tmp_path, capsys, umask, mode):
    # the atomic write went through mkstemp, which made every report 0600
    out = tmp_path / "report.json"
    job = {"command": "hilbert", "params": {"a": "2", "b": "3", "place": 5}, "out": str(out)}
    (tmp_path / "job.json").write_text(json.dumps(job))
    old = os.umask(umask)
    try:
        assert main(["--job", str(tmp_path / "job.json")]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode


def test_run_scan_takes_no_workers():
    with pytest.raises(TypeError, match="workers"):
        scan_mod.run_scan(n_max=1, workers=1)


def test_importing_the_cli_loads_no_process_pool():
    # the scan runs its classes in this process
    check = ("-c", "import sys, slopecert.cli; "
                   "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = cli_process(entry=check)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_importing_the_cli_loads_no_numpy():
    check = ("-c", "import sys, slopecert.cli; "
                   "print([m for m in ('numpy', 'slopecert.kernels', 'slopecert.scan') if m in sys.modules])")
    proc = cli_process(entry=check)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("job", [
    {"command": "hilbert", "params": {"a": "3", "b": "5", "place": 7, "oracle": True}},
    {"command": "ps-irreducible", "params": {"q": 3, "values": ["2", "5/7", "-1"], "group": "C"}},
    {"command": "wald-sign", "params": {"p": 5, "m": 2, "split_values": ["2"],
                                        "field_elements": [{"d": 2, "a": "1", "b": "1"}]}},
    {"command": "classicality", "params": {"local": {"p": 11, "e": 1, "f": 1}, "n": 1, "weights": [[5]], "mu": ["11"]}},
], ids=lambda job: job["command"])
def test_local_jobs_run_without_numpy(tmp_path, job):
    # the kernel and the scan load numpy; these jobs run neither
    blocked = ("-c", "import sys; sys.modules['numpy'] = None; "
                     "from slopecert.cli import main; sys.exit(main(sys.argv[1:]))")
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    proc = cli_process("--job", str(path), entry=blocked)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == canonical_json(run_job(job)[0])


def test_package_imports_kernels_and_scan_on_first_access():
    # bench/run.py prints slopecert.kernels.active_backend() after a bare
    # ``import slopecert``, and bench/layers.py wraps slopecert.scan.run_scan
    check = ("-c", "import sys, slopecert; "
                   "print(slopecert.kernels.active_backend(), slopecert.scan.run_scan.__name__, "
                   "hasattr(slopecert, 'nope'))")
    proc = cli_process(entry=check)
    assert (proc.returncode, proc.stdout) == (0, "reachable-set run_scan False\n"), proc.stderr


def test_certificate_weight_beyond_int64_rejected(tmp_path, capsys):
    cert, _ = run_job({"command": "replay-sp", "params": {"n": 1, "locals": [{"p": 3}], "seeds": "zero"}})
    cert["result"]["places"][0]["k3"][0][0] = 10**30
    job = {"command": "verify-cert", "params": {"certificate": cert["result"]}}
    assert "int64" in rejected_in_one_line(tmp_path, capsys, job)


def test_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    # numpy raises _ArrayMemoryError, a MemoryError, when _Table cannot
    # allocate its reachable prefix vectors
    def out_of_memory(kappa):
        raise MemoryError("Unable to allocate 931. MiB for an array")

    monkeypatch.setattr(kernels, "_slot", None)  # no table kept from an earlier call
    monkeypatch.setattr(kernels, "_Table", out_of_memory)
    job = {"command": "admissible", "params": {"e": 1, "f": 1, "slopes": ["0", "1", "2"], "weights": [[0, 1, 2]]}}
    assert rejected_in_one_line(tmp_path, capsys, job).startswith("error: out of memory: ")


def test_replay_and_its_verification_build_the_tables_once(monkeypatch):
    # the verifier re-derives the replay's datum at x2', so in one process it
    # finds the replay's tables in the kernel's slot, listing and all, and
    # builds no table; the one table, a stack of one weight table, holds the
    # sizes up to N // 2 = 2
    made, built = [], []
    candidate_tables, table = kernels.CandidateTables, kernels._Table

    def recording_tables(kappa):
        made.append(kappa)
        return candidate_tables(kappa)

    def recording_table(stack):
        assert len(stack) == 1
        built.append(table(stack))
        return built[-1]

    monkeypatch.setattr(kernels, "_slot", None)
    monkeypatch.setattr(kernels, "CandidateTables", recording_tables)
    monkeypatch.setattr(kernels, "_Table", recording_table)
    cert, code = run_job({"command": "replay-sp", "params": {"n": 2, "locals": [{"p": 3}], "seeds": "zero"}})
    assert code == 0 and len(made) == 1 and len(built) == 1
    assert sorted(set(built[0].size.tolist())) == [1, 2]
    built.clear()
    report, code = run_job({"command": "verify-cert", "params": {"certificate": cert["result"]}})
    assert code == 0 and report["result"] == {"ok": True, "mismatches": []}
    assert len(made) == 1 and built == []


def test_replays_whose_k3_differ_by_a_factor_share_one_table(monkeypatch):
    # step 3's k3 is the first point of its gap cone, g * (2, 1) here, and g
    # moves with the seed; the data's weight tables differ only by their
    # content, so two replays and their verifications build one table
    made, built = [], []
    candidate_tables, table = kernels.CandidateTables, kernels._Table

    def recording_tables(kappa):
        made.append(kappa)
        return candidate_tables(kappa)

    def recording_table(stack):
        built.append(table(stack))
        return built[-1]

    monkeypatch.setattr(kernels, "_slot", None)
    monkeypatch.setattr(kernels, "CandidateTables", recording_tables)
    monkeypatch.setattr(kernels, "_Table", recording_table)
    k3 = []
    for seeds in ("zero", [["1", "0"]]):
        cert, code = run_job({"command": "replay-sp", "params": {"n": 2, "locals": [{"p": 3}], "seeds": seeds}})
        assert code == 0
        k3.append(cert["result"]["places"][0]["k3"])
        report, code = run_job({"command": "verify-cert", "params": {"certificate": cert["result"]}})
        assert code == 0 and report["result"] == {"ok": True, "mismatches": []}
    assert k3 == [[[272, 136]], [[262, 131]]]
    assert len(made) == 1 and len(built) == 1


def test_certificate_covers_every_prime(tmp_path, capsys):
    cert = replay_symplectic(2, [LocalDatum(11, 1, 1)], [RefinedSlopes([0, 0])]).to_dict()
    for p in (2, 13, 101):
        cert["places"][0]["local"]["p"] = p
        assert run_job({"command": "verify-cert", "params": {"certificate": cert}})[0]["result"] == {
            "ok": True,
            "mismatches": [],
        }
    cert["places"][0]["local"]["p"] = 4
    job = {"command": "verify-cert", "params": {"certificate": cert}}
    assert "p = 4 is not prime" in rejected_in_one_line(tmp_path, capsys, job)


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


def test_slope_denominator_beyond_int64_is_a_one_line_error(tmp_path):
    # the kernel floor-divides by the common denominator 2**70 in int64; it
    # ended in an OverflowError traceback
    slopes = [f"1/{2**70}", f"-1/{2**70}"]
    params = {"e": 1, "f": 1, "slopes": slopes, "weights": [[-1, 1]]}
    proc = invoke(tmp_path, {"command": "admissible", "params": params}, timeout=20)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: slope denominator beyond the exact int64 range of the candidate kernel\n"


def test_unknown_command_rejected(tmp_path):
    proc = invoke(tmp_path, {"command": "frobnicate", "params": {}})
    assert proc.returncode == 1


def test_scan_job_and_workers_flag(tmp_path):
    job = {
        "command": "keylemma-scan",
        "params": {"n_max": 2, "kappa_min": -1, "kappa_max": 1, "ef": [[1, 1]], "band_scale": 1},
    }
    a = invoke(tmp_path, job)
    assert a.returncode == 0 and json.loads(a.stdout)["result"]["misaligned"] == 0
    # the scan runs in one process; the flag that sized its pool is gone
    b = invoke(tmp_path, job, extra=("--workers", "2"))
    assert b.returncode == 1 and b.stdout == ""
    assert "--workers" in b.stderr


def test_wide_scan_refused_before_listing_cells(tmp_path):
    # 18,030,008 cells; listing them before the cap check took 67.7 s
    job = {"command": "keylemma-scan", "params": {"n_max": 2, "kappa_min": 0, "kappa_max": 3000}}
    proc = invoke(tmp_path, job, timeout=5)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: grid has 18030008 cells, above scan.MAX_CELLS = 2000000\n"


def test_wide_band_scan_refused_before_any_class(tmp_path):
    # 8,121,160 slope vectors in 210 cells; it did not finish in 60 s
    params = {"n_max": 4, "kappa_min": 0, "kappa_max": 6, "ef": [[1, 1]], "band_scale": 40}
    proc = invoke(tmp_path, {"command": "keylemma-scan", "params": params}, timeout=5)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: grid lists 8121160 slope vectors, above scan.MAX_DATA = 2000000\n"


def test_wide_box_refused_whatever_max_cells(tmp_path, capsys, monkeypatch):
    # with the cells cap lifted, a box of width 10**8 is refused by its slope
    # vector count; counting them once per least gap did not end in 30 s
    monkeypatch.setattr(scan_mod, "MAX_CELLS", 10**20)
    params = {"n_max": 2, "kappa_min": 0, "kappa_max": 10**8, "ef": [[1, 1]]}
    start = time.perf_counter()
    err = rejected_in_one_line(tmp_path, capsys, {"command": "keylemma-scan", "params": params})
    assert time.perf_counter() - start < 5
    assert re.fullmatch(r"error: grid lists at least \d+ slope vectors, above scan.MAX_DATA = 2000000\n", err)


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


def wald_job(p, d):
    params = {"p": p, "m": 2, "split_values": ["2"], "field_elements": [{"d": d, "a": "1", "b": "1"}]}
    return {"command": "wald-sign", "params": params}


def test_wald_discriminant_beyond_its_cap_refused(tmp_path, capsys):
    # the squarefree test ran once per arithmetic result, by trial division
    # to sqrt|d|: this job gave no answer within 20 s
    job = wald_job(3, 10**18 + 3)
    proc = invoke(tmp_path, job, timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    start = time.perf_counter()
    err = rejected_in_one_line(tmp_path, capsys, job)
    assert time.perf_counter() - start < 1
    assert err == f"error: discriminant class {10**18 + 3} is beyond symbols.MAX_DISCRIMINANT = {MAX_DISCRIMINANT}\n"


def test_wald_discriminant_below_its_cap_answered():
    # 1.7 s when every product re-tested d; the report is unchanged
    ratio = {"ratio": "-11250000037/5000000016", "predicted": "-11250000037/5000000016", "match": True}
    assert run_job(wald_job(5, 10_000_000_033)) == ({"command": "wald-sign", "result": {"sign": 1, "structure": [ratio]}}, 0)


def test_wald_composite_base_refused(tmp_path, capsys):
    # an odd composite p passes the schema's minimum; the refusal names p
    err = rejected_in_one_line(tmp_path, capsys, wald_job(9, 2))
    assert err == "error: base p = 9 must be an odd prime\n"


def test_wald_indices_beyond_their_cap_refused(tmp_path, capsys):
    # nothing capped m: 64 field elements took 1.6 s, and the cost grows
    # faster than m^2
    fields = [{"d": -1, "a": str(k), "b": "1"} for k in range(1, 130)]
    job = {"command": "wald-sign", "params": {"p": 3, "m": 129, "split_values": [], "field_elements": fields}}
    start = time.perf_counter()
    err = rejected_in_one_line(tmp_path, capsys, job)
    assert time.perf_counter() - start < 1
    assert err == "error: params.m: 129 is greater than the maximum of 128\n"


@pytest.mark.parametrize("local, rows", [({"p": 3, "e": 1, "f": 1}, 3), ({"p": 3, "e": 2}, 1)])
def test_classicality_weights_need_e_times_f_rows(tmp_path, capsys, local, rows):
    # both were answered with a verdict over the wrong number of embeddings
    params = {"local": local, "n": 1, "weights": [[2]] * rows, "mu": ["1"]}
    err = rejected_in_one_line(tmp_path, capsys, {"command": "classicality", "params": params})
    need = local.get("e", 1) * local.get("f", 1)
    assert err == f"error: params.weights: {rows} rows, need e*f = {need}\n"


def test_replay_job_picks_the_paper_sign_convention(tmp_path, capsys):
    params = {"n": 2, "locals": [{"p": 3}], "seeds": "zero", "paper_sign": True}
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "replay-sp", "params": params}))
    assert main(["--job", str(path)]) == 0
    cert = json.loads(capsys.readouterr().out)["result"]
    assert cert == replay_symplectic(2, [LocalDatum(3)], [RefinedSlopes([0, 0])], paper_sign=True).to_dict()
    assert cert != run_job({"command": "replay-sp", "params": {**params, "paper_sign": False}})[0]["result"]
    path.write_text(json.dumps({"command": "verify-cert", "params": {"certificate": cert}}))
    assert main(["--job", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"ok": True, "mismatches": []}
    flipped = {**cert, "paper_sign": False}
    path.write_text(json.dumps({"command": "verify-cert", "params": {"certificate": flipped}}))
    assert main(["--job", str(path)]) == 2
    assert not json.loads(capsys.readouterr().out)["result"]["ok"]


def test_paper_sign_flag_is_a_usage_error(tmp_path):
    job = {"command": "replay-sp", "params": {"n": 1, "locals": [{"p": 3}], "seeds": "zero"}}
    proc = invoke(tmp_path, job, extra=("--paper-sign",))
    assert proc.returncode == 1 and proc.stdout == ""
    assert "--paper-sign" in proc.stderr


def test_print_schemas():
    proc = cli_process("--print-schemas")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert set(doc["params"]) == set(JOB_SCHEMAS)


def test_docs_schema_copy_matches_print_schemas(capsys):
    assert main(["--print-schemas"]) == 0
    docs = Path(__file__).resolve().parent.parent / "docs" / "job-schemas.json"
    assert capsys.readouterr().out == docs.read_text()


def _is_params(node):
    return isinstance(node, ast.Name) and node.id == "params"


def params_reads(source):
    """Per command, the params keys its runner reads as params["x"], params.get("x") or "x" in params.

    A command's runner is the function that ``run_job``'s table ``_HANDLERS``
    holds for it, or that a lambda in the table calls.
    """
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(fn):
        keys = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and _is_params(node.value):
                key = node.slice
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
                key = node.args[0] if _is_params(node.func.value) else None
            elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In):
                key = node.left if _is_params(node.comparators[0]) else None
            else:
                continue
            if isinstance(key, ast.Constant):
                keys.add(key.value)
        return keys

    (table,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_HANDLERS"]
    commands = {}
    for key, value in zip(table.keys, table.values):
        runner = value.body.func if isinstance(value, ast.Lambda) else value  # lambda params: _run_x(params, ...)
        commands[key.value] = reads(functions[runner.id])
    return commands


def test_the_field_check_sees_an_unread_field():
    source = (
        'def _run_x(params):\n    return params["a"], params.get("b"), "c" in params, other["d"]\n\n'
        '_HANDLERS = {"x": _run_x, "y": lambda params: _run_x(params, "Y")}\n'
    )
    assert params_reads(source) == {"x": {"a", "b", "c"}, "y": {"a", "b", "c"}}


def test_every_job_field_is_read():
    # a field of a job schema that no runner reads would be accepted and do nothing
    reads = params_reads((Path(SRC) / "slopecert" / "cli.py").read_text())
    assert set(reads) == set(JOB_SCHEMAS)
    assert {c: sorted(set(s["properties"]) - reads[c]) for c, s in JOB_SCHEMAS.items()} == {c: [] for c in JOB_SCHEMAS}


def test_seed_flag_is_gone():
    assert main(["--seed", "3", "--print-schemas"]) == 1


def test_canonical_json_is_sorted():
    text = canonical_json({"b": 1, "a": [2, 3]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
