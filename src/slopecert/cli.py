"""Batch driver: runs certifications and scans from job files, emits canonical reports.

A job is a JSON document {"command": ..., "params": {...}, "out": path}.
Reports are canonical JSON (sorted keys, two-space indent, rationals as
"num/den" strings, no timestamps), so reruns are byte-identical.  Exit
codes: 0 for expected verdicts, 1 for input/usage errors (a certificate
outside its schema among them) and out of memory, 2 for mathematical
verdict failures (unexpected survivor, tampered schema-valid certificate,
misaligned candidate inside the hypothesis band).

A job and its params are held to the JSON schemas below (``--print-schemas``
publishes them) by ``_schema_error``, an interpreter of just the keywords
they use; the first error by path is the one-line exit 1
``where.path: message``.

Start-up: numpy loads with the first job that runs the kernel or the scan,
not with this module, so a ``hilbert`` job runs in a child process in about
0.09 s, against 0.23 s when the import loaded numpy (Python 3.11, numpy 2.4,
2 shared cores).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile

from .admissibility import PhiModuleDatum, admissible_candidates, alignment_check, newton_above_hodge
from .errors import SlopecertError, VerdictFailed
from .lattice import LocalDatum, WeightTable, parse_rat, rat_str
from .principal import UnramChar, completely_refinable
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
# re-derivation.  A certificate is held to this schema only when it fails to
# verify (its verification raises or finds a mismatch), so that a malformed
# field is named as an input error: checking every certificate up front
# would add about 0.2 ms to each verify-cert job, 8-10 % of the benchmark's
# replay round (seed 1; 2 shared cores, Python 3.11).
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

REPLAY = {
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
        "paper_sign": {"type": "boolean"},
    },
    "required": ["n", "locals", "seeds"],
    "additionalProperties": False,
}

JOB_SCHEMAS = {
    "replay-sp": REPLAY,
    "replay-so": REPLAY,
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
            # the irreducibility tests compare every pair of values: 256 take
            # 0.6-0.8 s (2 shared cores, Python 3.11), 512 about 3.5 s
            "values": {**RATS, "minItems": 1, "maxItems": 256},
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
            # each of the m indices evaluates a polynomial of degree 2m - 1:
            # 128 field elements of a few digits take 0.5-0.8 s (2 shared
            # cores, Python 3.11), 192 about 2.3 s
            "m": {"type": "integer", "minimum": 1, "maximum": 128},
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


_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "boolean": bool, "null": type(None)}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _type_error(names, value, schema):
    names = [names] if isinstance(names, str) else names
    for name in names:
        # "integer" is a Python int: neither a bool nor an integral float such as 1.0
        if isinstance(value, _TYPES[name]) and (name == "boolean" or not isinstance(value, bool)):
            return None
    return f"{value!r} is not of type {', '.join(map(repr, names))}"


def _one_of_error(schemas, value, schema):
    valid = [s for s in schemas if _schema_error(value, s) is None]
    if not valid:
        return f"{value!r} is not valid under any of the given schemas"
    if len(valid) > 1:
        return f"{value!r} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}"


def _required_error(names, value, schema):
    if isinstance(value, dict):
        for name in names:
            if name not in value:
                return f"{name!r} is a required property"


def _additional_error(allowed, value, schema):
    if not allowed and isinstance(value, dict):
        extras = sorted(key for key in value if key not in schema.get("properties", {}))
        if extras:
            listed = ", ".join(map(repr, extras))
            return f"Additional properties are not allowed ({listed} {'was' if len(extras) == 1 else 'were'} unexpected)"


# Per keyword, the check it makes at its own node: (argument, value, schema)
# -> message or None, worded as a Draft 2020-12 validator words it.  As in
# Draft 2020-12, a keyword about numbers, strings, arrays or objects passes
# values of other types.  "properties" and "items" descend (see
# _schema_error), and "description" is an annotation.  The schemas above use
# no other keyword, list only strings under "enum" and "const", and set
# additionalProperties only to false.
_CHECKS = {
    "type": _type_error,
    "enum": lambda options, value, schema: None if value in options else f"{value!r} is not one of {options!r}",
    "const": lambda const, value, schema: None if value == const else f"{const!r} was expected",
    "oneOf": _one_of_error,
    "required": _required_error,
    "additionalProperties": _additional_error,
    "minimum": lambda low, value, schema: (
        f"{value!r} is less than the minimum of {low!r}" if _is_number(value) and value < low else None),
    "maximum": lambda high, value, schema: (
        f"{value!r} is greater than the maximum of {high!r}" if _is_number(value) and value > high else None),
    "minItems": lambda low, value, schema: (
        f"{value!r} {'should be non-empty' if low == 1 else 'is too short'}"
        if isinstance(value, list) and len(value) < low else None),
    "maxItems": lambda high, value, schema: (
        f"{value!r} {'is expected to be empty' if high == 0 else 'is too long'}"
        if isinstance(value, list) and len(value) > high else None),
    # the schemas' one pattern is anchored at both ends, so a full match
    # reads its "$" as ECMA-262 does, at the end of the string; re.search
    # would also match it before a final "\n"
    "pattern": lambda pattern, value, schema: (
        f"{value!r} does not match {pattern!r}" if isinstance(value, str) and not re.fullmatch(pattern, value) else None),
    "properties": lambda properties, value, schema: None,
    "items": lambda items, value, schema: None,
    "description": lambda text, value, schema: None,
}


def _schema_error(value, schema, path=()):
    """The first error of ``value`` under ``schema``, as (path, message), or None.

    A node's own keywords are checked in schema order before its members,
    an object's members in key order, so the error returned is the one that
    sorts first by path among a Draft 2020-12 validator's errors.
    """
    for keyword, arg in schema.items():
        message = _CHECKS[keyword](arg, value, schema)
        if message:
            return path, message
    if isinstance(value, dict) and "properties" in schema:
        properties = schema["properties"]
        for key in sorted(value):
            if key in properties:
                error = _schema_error(value[key], properties[key], path + (key,))
                if error:
                    return error
    elif isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            error = _schema_error(item, schema["items"], path + (index,))
            if error:
                return error
    return None


#: Characters of the offending value's repr that an input error quotes; a
#: longer repr (a job may list thousands of values) is cut to this many.
_SHOWN = 200


def _validate(instance, schema, where):
    error = _schema_error(instance, schema)
    if error:
        path, message = error
        value = instance
        for key in path:
            value = value[key]
        shown = repr(value)
        if len(shown) > _SHOWN:
            message = message.replace(shown, f"{shown[:_SHOWN]}... ({len(shown)} characters)")
        raise InputError(f"{where}.{'/'.join(map(str, path)) or '<root>'}: {message}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".slopecert-")
    umask = os.umask(0)  # the umask is read by setting it
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp makes 0600; a report gets the mode open() would give it
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


def _run_replay(params, schema):
    locals_ = [LocalDatum(**loc) for loc in params["locals"]]
    n = params["n"]
    rank = n if schema == "C" else 2 * n
    seeds = _make_seeds(params["seeds"], len(locals_), rank)
    fn = replay_symplectic if schema == "C" else replay_orthogonal
    cert = fn(n, locals_, seeds, paper_sign=params.get("paper_sign", False))
    return cert.to_dict(), 0


def _run_scan(params):
    from . import scan as scan_mod  # the scan loads numpy; bench/layers.py traces scan_mod.run_scan

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
    report = scan_mod.run_scan(**{key: v for key, v in given.items() if v is not None})
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
    if weights.embeddings != loc.embeddings:
        raise InputError(f"params.weights: {weights.embeddings} rows, need e*f = {loc.embeddings}")
    mu = [parse_rat(v) for v in params["mu"]]
    n = params["n"]
    sp = classicality_sp(loc, n, weights, mu)
    general = classicality_general(sp_delta_groups(loc, n, weights), mu)
    return {"sp": sp, "general": general, "agree": sp == general}, (0 if sp == general else 2)


def _run_ps(params):
    chars = [UnramChar(parse_rat(v), params["q"]) for v in params["values"]]
    group = params["group"]
    irreducible = completely_refinable(chars, group)  # the group's irreducibility predicate
    result = {
        "group": group,
        "sp_irreducible": irreducible if group == "C" else None,
        "so_irreducible_sufficient": irreducible if group == "D" else None,
        "completely_refinable": irreducible,
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
        _validate(doc, CERTIFICATE, "certificate")  # names the malformed field
        raise InputError(f"certificate: {exc}") from exc
    if not ok:
        _validate(doc, CERTIFICATE, "certificate")  # a malformed field is an input error, not a mismatch
    return {"ok": ok, "mismatches": mismatches}, (0 if ok else 2)


# command -> handler(params) -> (result, exit code).  A handler reads the
# layers it calls (replay_symplectic, hilbert, ...) as this module's globals
# when it runs, so a tracer that rebinds them, as bench/layers.py does, sees it.
_HANDLERS = {
    "replay-sp": lambda params: _run_replay(params, "C"),
    "replay-so": lambda params: _run_replay(params, "D"),
    "keylemma-scan": _run_scan,
    "admissible": _run_admissible,
    "classicality": _run_classicality,
    "ps-irreducible": _run_ps,
    "hilbert": _run_hilbert,
    "wald-sign": _run_wald,
    "verify-cert": _run_verify,
}


def run_job(job: dict):
    """Execute one job; returns (report dict, exit code)."""
    _validate(job, JOB_DOC_SCHEMA, "job")
    command = job["command"]
    params = job["params"]
    _validate(params, JOB_SCHEMAS[command], "params")
    try:
        result, code = _HANDLERS[command](params)
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

    try:
        with open(args.job) as fh:
            job = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, malformed JSON, or an integer of over 4,300 digits
        sys.stderr.write(f"error: cannot read job: {exc}\n")
        return 1

    try:
        report, code = run_job(job)
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
