"""The CLI's schema interpreter against jsonschema's Draft 2020-12 validator.

jsonschema is the oracle here and a dependency of the tests only.  Its type
checker is extended so that "integer" means an int that is not a bool, as in
the interpreter (plain Draft 2020-12 also admits integral floats such as
1.0), and "pattern" reads "$" as ECMA-262 does, as the end of the string,
where Python's re.search also matches it before a final newline.  The
documents are the job documents written out in ``test_cli.py``,
those the fuzz strategies of ``test_fuzz_main.py`` draw, and mutations of
both: a field dropped, added, retyped or set to an integral float.  On each
document, its params and its certificate, the interpreter and the oracle
must both accept or both reject, and the interpreter's error must be the
oracle's first error sorted by path, the one the CLI reported when it ran
jsonschema: the same path and the same message.
"""

import ast
import copy
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, ValidationError, validators

from slopecert import cli
from slopecert.cli import CERTIFICATE, JOB_DOC_SCHEMA, JOB_SCHEMAS
from test_cli import deep_replay_job, wald_job
from test_fuzz_main import JOBS


def ecma_pattern(validator, pattern, instance, schema):
    """jsonschema's "pattern" with "$" read as ECMA-262 reads it, at the end
    of the string only: Python's re.search also matches "$" before a final
    newline, and Python's "\\Z" is ECMA-262's "$"."""
    if validator.is_type(instance, "string") and not re.search(pattern.replace("$", r"\Z"), instance):
        yield ValidationError(f"{instance!r} does not match {pattern!r}")


ORACLE = validators.extend(
    Draft202012Validator,
    validators={"pattern": ecma_pattern},
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, value: isinstance(value, int) and not isinstance(value, bool)
    ),
)
SCHEMAS = [JOB_DOC_SCHEMA, CERTIFICATE, *JOB_SCHEMAS.values()]


def schema_keywords(schema):
    """(keyword, argument) for every keyword of ``schema`` and of its subschemas."""
    for keyword, arg in schema.items():
        yield keyword, arg
        if keyword == "properties":
            subschemas = arg.values()
        elif keyword == "items":
            subschemas = [arg]
        else:
            subschemas = arg if keyword == "oneOf" else []
        for subschema in subschemas:
            yield from schema_keywords(subschema)


def test_the_keyword_walk_sees_a_nested_keyword():
    schema = {"properties": {"x": {"items": {"oneOf": [{"format": "date"}]}}}}
    assert [keyword for keyword, _ in schema_keywords(schema)] == ["properties", "items", "oneOf", "format"]
    assert "format" not in cli._CHECKS


def test_every_schema_keyword_is_interpreted():
    used = [pair for schema in SCHEMAS for pair in schema_keywords(schema)]
    assert {keyword for keyword, _ in used} <= set(cli._CHECKS)
    # the interpreter compares enum and const values with ==, which tells a
    # string from any other JSON value, and knows additionalProperties only
    # as a boolean
    assert all(isinstance(v, str) for keyword, arg in used if keyword == "enum" for v in arg)
    assert all(isinstance(arg, str) for keyword, arg in used if keyword == "const")
    assert all(isinstance(arg, bool) for keyword, arg in used if keyword == "additionalProperties")
    # every pattern is anchored at both ends and has no other "$", so the
    # interpreter's full match and the oracle's "\\Z" both read it as ECMA-262 does
    assert all(arg[0] == "^" and arg.index("$") == len(arg) - 1 for keyword, arg in used if keyword == "pattern")
    types = {name for keyword, arg in used if keyword == "type" for name in ([arg] if isinstance(arg, str) else arg)}
    assert types <= set(cli._TYPES)


def literal_jobs(source):
    """Every job document that ``source`` writes out as a dict of constants."""
    jobs = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Dict) and any(isinstance(k, ast.Constant) and k.value == "command" for k in node.keys):
            try:
                jobs.append(eval(compile(ast.Expression(node), "<job>", "eval"), {"__builtins__": {}}))
            except NameError:
                pass  # built from the test's own variables
    return jobs


CLI_JOBS = literal_jobs((Path(__file__).parent / "test_cli.py").read_text()) + [deep_replay_job(1), wald_job(5, 2)]
DOCUMENTS = st.one_of(st.sampled_from(CLI_JOBS), JOBS)
VALUES = st.sampled_from(
    [None, True, False, 0, 1, -1, 3, 2.5, 1.0, "", "x", "zero", "inf", "C", "1/2", [], [1], [["1"]], {}, {"p": 3}]
)
PROPERTIES = [arg for schema in SCHEMAS for keyword, arg in schema_keywords(schema) if keyword == "properties"]
FIELDS = sorted({key for properties in PROPERTIES for key in properties} | {"extra"})


def slots(node):
    """(container, key) for every value below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield node, key
        yield from slots(child)


@st.composite
def mutants(draw):
    doc = copy.deepcopy(draw(DOCUMENTS))
    for _ in range(draw(st.integers(0, 3))):
        places = list(slots(doc))
        change = draw(st.sampled_from(["drop", "add", "retype", "float"]))
        value = copy.deepcopy(draw(VALUES))
        if change == "add":
            target = draw(st.sampled_from([doc] + [c[k] for c, k in places if isinstance(c[k], (dict, list))]))
            if isinstance(target, dict):
                target[draw(st.sampled_from(FIELDS))] = value
            else:
                target.append(value)
            continue
        if change == "float":
            places = [(c, k) for c, k in places if isinstance(c[k], int) and not isinstance(c[k], bool)]
        if not places:
            continue
        container, key = draw(st.sampled_from(places))
        if change == "drop":
            del container[key]
        elif change == "retype":
            container[key] = value
        else:
            container[key] = float(container[key])
    return doc


def assert_agrees(instance, schema):
    errors = sorted(ORACLE(schema).iter_errors(instance), key=lambda e: list(e.absolute_path))
    first = (tuple(errors[0].absolute_path), errors[0].message) if errors else None
    assert cli._schema_error(instance, schema) == first


def assert_document_agrees(doc):
    assert_agrees(doc, JOB_DOC_SCHEMA)
    command = doc.get("command") if isinstance(doc, dict) else None
    if not isinstance(command, str) or command not in JOB_SCHEMAS:
        return
    params = doc.get("params")
    assert_agrees(params, JOB_SCHEMAS[command])
    if command == "verify-cert" and isinstance(params, dict) and "certificate" in params:
        assert_agrees(params["certificate"], CERTIFICATE)


def test_cli_jobs_agree_with_the_oracle():
    assert len(CLI_JOBS) >= 30
    for doc in CLI_JOBS:
        assert_document_agrees(doc)


@settings(max_examples=400, deadline=None)
@given(mutants())
def test_mutated_jobs_agree_with_the_oracle(doc):
    assert_document_agrees(doc)


def test_overlapping_one_of_alternatives_agree_with_the_oracle():
    # the shipped schemas' alternatives exclude each other, so no mutation
    # above reaches a value valid under two of them
    schema = {"oneOf": [{"type": "integer"}, {"minimum": 0}, {"const": "x"}]}
    for value in (1, -1, 0.5, "x", None):
        assert_agrees(value, schema)
