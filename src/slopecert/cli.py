"""Batch driver: runs certifications and scans from job files, emits canonical reports.

A job is a JSON document {"command": ..., "params": {...}, "out": path}.
Reports are canonical JSON (sorted keys, two-space indent, rationals as
"num/den" strings, no timestamps), so reruns are byte-identical.  Exit
codes: 0 for expected verdicts, 1 for input/usage errors and out of memory,
2 for mathematical verdict failures (unexpected survivor, tampered
certificate, misaligned candidate inside the hypothesis band).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from functools import lru_cache

import jsonschema

from . import scan as scan_mod
from .admissibility import PhiModuleDatum, admissible_candidates, alignment_check, newton_above_hodge
from .errors import SlopecertError, VerdictFailed
from .lattice import LocalDatum, WeightTable, parse_rat, rat_str
from .principal import UnramChar, completely_refinable, so_irreducible_sufficient, sp_irreducible
from .principal import orbit_size as refinement_orbit  # bench/layers.py traces this layer by its old name
from .replay import replay_orthogonal, replay_symplectic, verify_certificate
from .satake import RefinedSlopes, classicality_general, classicality_sp, sp_delta_groups
from .symbols import INFINITE_PLACE, Place, QuadExtElem, WaldInstance, hilbert, hilbert_solvable, wald_structure_report, waldspurger_sign_product

RAT = {"type": "string", "pattern": r"^-?[0-9]+(/0*[1-9][0-9]*)?$"}  # no zero denominator
RATS = {"type": "array", "items": RAT}
LOCAL = {
    "type": "object",
    "properties": {"p": {"type": "integer"}, "e": {"type": "integer", "minimum": 1},
                   "f": {"type": "integer", "minimum": 1}},
    "required": ["p"],
    "additionalProperties": False,
}
INT_ROWS = {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}}
STEP_CHECK = {
    "type": "object",
    "properties": {"step": {"type": "integer"}, "form": {"type": "string"}, "value": RAT,
                   "strict_bound": RAT, "ok": {"type": "boolean"}},
    "required": ["step", "form", "value", "strict_bound", "ok"],
    "additionalProperties": False,
}
NULL_OR_STRING = {"type": ["string", "null"]}
# Every field of a certificate; the verifier compares each one with its
# re-derivation.  A certificate is held to this schema only when its
# verification raises, to name the malformed field: validating every
# certificate up front added about 0.7 ms to each verify-cert job, 7 % of
# the benchmark's replay round.
CERTIFICATE = {
    "type": "object",
    "properties": {
        "schema": {"enum": ["C", "D"]},
        "rank": {"type": "integer", "minimum": 1},
        "module_rank": {"type": "integer"},
        "paper_sign": {"type": "boolean"},
        "verdict": {"enum": ["ArtinPlusIrreducible", "Irreducible", "Failed"]},
        "failure_reason": NULL_OR_STRING,
        "places": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "local": {**LOCAL, "description": "A certificate covers the shape (e, f) for every prime: v_p(p) "
                              "= 1 normalises every valuation, so no field depends on p, which need only be prime."},
                    "seed": RATS,
                    "k1": INT_ROWS,
                    "x1_prime": RATS,
                    "k2": INT_ROWS,
                    "x2_prime": RATS,
                    "k3": INT_ROWS,
                    "step_checks": {"type": "array", "items": STEP_CHECK},
                    "hypothesis_margins": RATS,
                    "survivors": INT_ROWS,
                    "structural_ok": {"type": "boolean"},
                    "failure": NULL_OR_STRING,
                },
                "required": ["local", "seed", "k1", "x1_prime", "k2", "x2_prime", "k3", "step_checks",
                             "hypothesis_margins", "survivors", "structural_ok", "failure"],
            },
        },
    },
    "required": ["schema", "rank", "module_rank", "paper_sign", "verdict", "failure_reason", "places"],
}

JOB_SCHEMAS = {
    "replay-sp": {
        "type": "object",
        "properties": {
            "n": {"type": "integer", "minimum": 1},
            "locals": {"type": "array", "items": LOCAL, "minItems": 1},
            "seeds": {
                "oneOf": [
                    {"const": "zero"},
                    {"type": "array", "items": RATS},
                ]
            },
        },
        "required": ["n", "locals", "seeds"],
        "additionalProperties": False,
    },
    "replay-so": None,  # same shape as replay-sp; filled below
    "keylemma-scan": {
        "type": "object",
        "properties": {
            "n_max": {"type": "integer", "minimum": 1, "maximum": 6},
            "kappa_min": {"type": "integer"},
            "kappa_max": {"type": "integer"},
            "ef": {"type": "array", "items": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 2, "maxItems": 2}},
            "band_scale": {"oneOf": [{"type": "integer", "minimum": 1}, RAT]},
            "max_witnesses": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "admissible": {
        "type": "object",
        "properties": {
            "e": {"type": "integer", "minimum": 1},
            "f": {"type": "integer", "minimum": 1},
            "slopes": {**RATS, "minItems": 1},
            "weights": {**INT_ROWS, "minItems": 1},
            "tau": {"type": "integer", "minimum": 1},
        },
        "required": ["e", "f", "slopes", "weights"],
        "additionalProperties": False,
    },
    "classicality": {
        "type": "object",
        "properties": {
            "local": LOCAL,
            "n": {"type": "integer", "minimum": 1},
            "weights": INT_ROWS,
            "mu": RATS,
        },
        "required": ["local", "n", "weights", "mu"],
        "additionalProperties": False,
    },
    "ps-irreducible": {
        "type": "object",
        "properties": {
            "q": {"type": "integer", "minimum": 2},
            "values": {**RATS, "minItems": 1},
            "group": {"enum": ["C", "D"]},
        },
        "required": ["q", "values", "group"],
        "additionalProperties": False,
    },
    "hilbert": {
        "type": "object",
        "properties": {
            "a": RAT,
            "b": RAT,
            "place": {"oneOf": [{"const": "inf"}, {"type": "integer", "minimum": 2}]},
            "oracle": {"type": "boolean"},
        },
        "required": ["a", "b", "place"],
        "additionalProperties": False,
    },
    "wald-sign": {
        "type": "object",
        "properties": {
            "p": {"type": "integer", "minimum": 3},
            "m": {"type": "integer", "minimum": 1},
            "split_values": RATS,
            "field_elements": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {"d": {"type": "integer"}, "a": RAT, "b": RAT},
                    "required": ["d", "a", "b"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["p", "m", "split_values", "field_elements"],
        "additionalProperties": False,
    },
    "verify-cert": {
        "type": "object",
        "properties": {
            "certificate": {"type": "object"},
            "path": {"type": "string"},
        },
        "additionalProperties": False,
    },
}
JOB_SCHEMAS["replay-so"] = JOB_SCHEMAS["replay-sp"]

JOB_DOC_SCHEMA = {
    "type": "object",
    "properties": {
        "command": {"enum": sorted(JOB_SCHEMAS)},
        "params": {"type": "object"},
        "out": {"type": "string"},
    },
    "required": ["command", "params"],
    "additionalProperties": False,
}


class InputError(Exception):
    pass


@lru_cache(maxsize=None)
def _validator(name=None):
    """The validator of a job document (None), of a command's params (the
    command) or of a certificate ("certificate"), built on first use."""
    schema = {None: JOB_DOC_SCHEMA, "certificate": CERTIFICATE}.get(name) or JOB_SCHEMAS[name]
    return jsonschema.Draft202012Validator(schema)


def _validate(instance, name, where):
    errors = sorted(_validator(name).iter_errors(instance), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        raise InputError(f"{where}.{path}: {err.message}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".slopecert-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _make_seeds(spec, n_places, rank):
    if spec == "zero":
        return [RefinedSlopes([0] * rank) for _ in range(n_places)]
    seeds = [RefinedSlopes([parse_rat(v) for v in row]) for row in spec]
    if len(seeds) != n_places:
        raise InputError(f"params.seeds: expected {n_places} seed vectors")
    return seeds


def _run_replay(params, schema, paper_sign):
    locals_ = [LocalDatum(**loc) for loc in params["locals"]]
    n = params["n"]
    rank = n if schema == "C" else 2 * n
    seeds = _make_seeds(params["seeds"], len(locals_), rank)
    fn = replay_symplectic if schema == "C" else replay_orthogonal
    cert = fn(n, locals_, seeds, paper_sign=paper_sign)
    return cert.to_dict(), 0


def _run_scan(params, workers):
    # only the fields the job has: run_scan states the defaults
    band, ef = params.get("band_scale"), params.get("ef")
    given = {
        "n_max": params.get("n_max"),
        "kappa_min": params.get("kappa_min"),
        "kappa_max": params.get("kappa_max"),
        "ef_values": None if ef is None else tuple(map(tuple, ef)),
        "band_scale": parse_rat(band) if isinstance(band, str) else band,
        "max_witnesses": params.get("max_witnesses"),
    }
    report = scan_mod.run_scan(workers=workers, **{key: v for key, v in given.items() if v is not None})
    # a misaligned candidate inside the un-widened band falsifies the lemma
    code = 2 if (report.band_scale <= 1 and report.misaligned > 0) else 0
    return report.summary(), code


def _run_admissible(params):
    datum = PhiModuleDatum(
        params["e"], params["f"],
        [parse_rat(v) for v in params["slopes"]],
        params["weights"],
    )
    if datum.embeddings != datum.e * datum.f:
        raise InputError(f"params.weights: {datum.embeddings} rows, need e*f = {datum.e * datum.f}")
    tau = params.get("tau", 1)
    if tau > datum.embeddings:
        raise InputError(f"params.tau: {tau} exceeds the {datum.embeddings} embeddings")
    result = {
        "newton_above_hodge": newton_above_hodge(datum),
        "candidates": [],
    }
    if datum.distinct_flag:
        for c in admissible_candidates(datum):
            result["candidates"].append({"subset": list(c.subset), "theta": [list(t) for t in c.theta]})
        align = alignment_check(datum, tau)
        result["alignment"] = {
            "status": align.status,
            "margin": rat_str(align.margin) if align.margin is not None else None,
        }
        code = 2 if align.status == "counterexample" else 0
    else:
        result["alignment"] = {"status": "not-distinct", "margin": None}
        code = 0
    return result, code


def _run_classicality(params):
    loc = LocalDatum(**params["local"])
    weights = WeightTable(params["weights"])
    mu = [parse_rat(v) for v in params["mu"]]
    n = params["n"]
    sp = classicality_sp(loc, n, weights, mu)
    general = classicality_general(sp_delta_groups(loc, n, weights), mu)
    return {"sp": sp, "general": general, "agree": sp == general}, (0 if sp == general else 2)


def _run_ps(params):
    chars = [UnramChar(parse_rat(v), params["q"]) for v in params["values"]]
    group = params["group"]
    result = {
        "group": group,
        "sp_irreducible": sp_irreducible(chars) if group == "C" else None,
        "so_irreducible_sufficient": so_irreducible_sufficient(chars) if group == "D" else None,
        "completely_refinable": completely_refinable(chars, group),
        "orbit_size": refinement_orbit(chars, group),
    }
    return result, 0


def _run_hilbert(params):
    a = parse_rat(params["a"])
    b = parse_rat(params["b"])
    place = INFINITE_PLACE if params["place"] == "inf" else Place(params["place"])
    symbol = hilbert(a, b, place)
    result = {"symbol": symbol}
    code = 0
    if params.get("oracle"):
        solvable = hilbert_solvable(a, b, place)
        result["oracle_solvable"] = solvable
        if (symbol == 1) != solvable:
            code = 2
    return result, code


def _run_wald(params):
    inst = WaldInstance(
        params["p"],
        params["m"],
        tuple(parse_rat(v) for v in params["split_values"]),
        tuple(
            QuadExtElem(fe["d"], parse_rat(fe["a"]), parse_rat(fe["b"]))
            for fe in params["field_elements"]
        ),
    )
    sign = waldspurger_sign_product(inst)
    structure = [
        {"ratio": rat_str(r), "predicted": rat_str(p), "match": r == p}
        for r, p in wald_structure_report(inst)
    ]
    code = 0 if sign == 1 and all(s["match"] for s in structure) else 2
    return {"sign": sign, "structure": structure}, code


def _run_verify(params):
    if "path" in params:
        try:
            with open(params["path"]) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise InputError(f"params.path: cannot read certificate: {exc}")
        # a saved replay report holds the certificate under "result"
        doc = doc.get("result", doc) if isinstance(doc, dict) else doc
        doc = doc.get("certificate", doc) if isinstance(doc, dict) else doc
    elif "certificate" in params:
        doc = params["certificate"]
    else:
        raise InputError("params: verify-cert needs 'certificate' or 'path'")
    try:
        ok, mismatches = verify_certificate(doc)
    except (LookupError, TypeError, ValueError, ArithmeticError, AttributeError) as exc:
        _validate(doc, "certificate", "certificate")  # names the malformed field
        raise InputError(f"certificate: {exc}") from exc
    return {"ok": ok, "mismatches": mismatches}, (0 if ok else 2)


def run_job(job: dict, workers: int = 1, paper_sign: bool = False):
    """Execute one job; returns (report dict, exit code)."""
    _validate(job, None, "job")
    command = job["command"]
    params = job["params"]
    _validate(params, command, "params")
    try:
        if command == "replay-sp":
            result, code = _run_replay(params, "C", paper_sign)
        elif command == "replay-so":
            result, code = _run_replay(params, "D", paper_sign)
        elif command == "keylemma-scan":
            result, code = _run_scan(params, workers)
        elif command == "admissible":
            result, code = _run_admissible(params)
        elif command == "classicality":
            result, code = _run_classicality(params)
        elif command == "ps-irreducible":
            result, code = _run_ps(params)
        elif command == "hilbert":
            result, code = _run_hilbert(params)
        elif command == "wald-sign":
            result, code = _run_wald(params)
        elif command == "verify-cert":
            result, code = _run_verify(params)
        else:  # unreachable past validation
            raise InputError(f"unknown command {command}")
    except VerdictFailed as exc:
        result = {"error": "verdict-failed", "detail": str(exc), "certificate": exc.certificate.to_dict()}
        code = 2
    return {"command": command, "result": result}, code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slopecert",
        description="Exact certification of slope/weight combinatorics: batch jobs and certificate verification.",
    )
    parser.add_argument("--job", help="path to a JSON job document")
    parser.add_argument("--out", help="report output path (overrides the job's 'out')")
    parser.add_argument("--workers", type=int, default=1, help="scan fan-out (>= 1; capped at the CPU count and the number of gap classes)")
    parser.add_argument("--paper-sign", action="store_true",
                        help="use the alternative sign-flip exponent convention in refinement changes")
    parser.add_argument("--print-schemas", action="store_true",
                        help="dump the published job schemas and exit")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0

    if args.print_schemas:
        sys.stdout.write(canonical_json({"job": JOB_DOC_SCHEMA, "params": JOB_SCHEMAS, "certificate": CERTIFICATE}))
        return 0
    if not args.job:
        sys.stderr.write("error: --job is required (or --print-schemas)\n")
        return 1
    if args.workers < 1:
        sys.stderr.write(f"error: --workers must be >= 1, got {args.workers}\n")
        return 1

    try:
        with open(args.job) as fh:
            job = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: cannot read job: {exc}\n")
        return 1

    try:
        report, code = run_job(job, workers=args.workers, paper_sign=args.paper_sign)
    except (InputError, SlopecertError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # numpy's _ArrayMemoryError included
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 1

    text = canonical_json(report)
    out_path = args.out or job.get("out")
    if out_path:
        try:
            _write_atomic(out_path, text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write report: {exc}\n")
            return 1
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
