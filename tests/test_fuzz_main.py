"""Random small jobs of every command through ``cli.main``.

Every job must end in exit 0, 1 or 2, and exit 1 writes exactly one stderr
line and no report; no exception may escape.  ``ps-irreducible`` draws up
to 12 values, since its orbit size is closed-form, and sometimes more than
the schema's cap of 256 (a ``"-1"`` first, which settles irreducibility at
once), which must exit 1; ``hilbert`` places
run through the primes up to the oracle's limit and a few beyond it, where
an oracle job must exit 1.  ``keylemma-scan`` windows lie anywhere in
+-10^9 and reach 10^9 in width, with ``scan.MAX_CELLS``, the cell cap,
patched to at most 40 on most draws, so the closed-form refusal runs and the
answered grids stay small; ``band_scale`` reaches 60 with ``scan.MAX_DATA``,
the slope-vector cap, patched to at most 2,000, so that refusal runs too,
and bounds the classes of the draws that keep the shipped cell cap.  Some
jobs name a report path in a missing directory, or a directory, which must
end in exit 1 whatever the job.
``admissible`` listing has no cost bound yet, so its sizes stay small; half
of its jobs are well-formed data over one slope denominator of up to 2^70,
so the kernel's refusal of a denominator beyond int64 runs.

A second test forges replay certificates: one field of a valid certificate
takes a JSON type its schema does not allow, or a rational field a string
off the schema's grammar (``"1e30000000"`` among them).  ``verify-cert``
must answer each with exit 1 and one stderr line, within a second.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from slopecert import scan
from slopecert.cli import CERTIFICATE as CERTIFICATE_SCHEMA, JOB_SCHEMAS, main
from slopecert.lattice import LocalDatum, is_prime
from slopecert.replay import replay_orthogonal, replay_symplectic
from slopecert.satake import RefinedSlopes
from slopecert.symbols import ORACLE_MAX_PRIME

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.sampled_from(["", "x", "1/0", "2.5"]))
VALID_RAT = st.one_of(
    st.integers(-6, 6).map(str),
    st.tuples(st.integers(-6, 6), st.integers(1, 3)).map(lambda t: f"{t[0]}/{t[1]}"),
)
RAT = st.one_of(VALID_RAT, st.sampled_from(["1/0", "x", ""]))
SMALL = st.integers(1, 2)
LOCAL = st.fixed_dictionaries({"p": st.sampled_from([2, 3, 4, 5, 7])}, optional={"e": SMALL, "f": SMALL})


def rats(min_size=0, max_size=3):
    return st.lists(RAT, min_size=min_size, max_size=max_size)


def int_rows(rows, cols):
    return st.lists(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols), min_size=rows, max_size=rows)


@st.composite
def replay_params(draw, command):
    # so n=2 at (2, 2) takes about a second, so the so rank stays at 2
    n = draw(st.integers(1, 2)) if command == "replay-sp" else 1
    rank = n if command == "replay-sp" else 2 * n
    seeds = draw(st.one_of(st.just("zero"), st.lists(rats(rank, rank), min_size=1, max_size=2)))
    if seeds != "zero" and draw(st.booleans()):
        # beyond the kernel's int64 range: the refusal path stays covered
        seeds = [[_scaled(v, 10**18) for v in row] for row in seeds]
    params = {"n": n, "locals": draw(st.lists(LOCAL, min_size=1, max_size=2)), "seeds": seeds}
    if draw(st.booleans()):
        params["paper_sign"] = draw(st.booleans())
    return {"command": command, "params": params}


def _scaled(rat, factor):
    """A drawn rational string times ``factor``; junk strings stay as they are."""
    num, slash, den = rat.partition("/")
    if not num.lstrip("-").isdigit():
        return rat
    return f"{int(num) * factor}{slash}{den}"


@st.composite
def admissible_params(draw):
    e, f, n = draw(SMALL), draw(SMALL), draw(st.integers(1, 4))
    if draw(st.booleans()):
        # a well-formed datum over one denominator of up to 2^70, so the
        # kernel runs and refuses the denominators beyond int64
        denom = draw(st.integers(1, 2**70) | st.sampled_from([1, 2**62 - 1, 2**62, 2**70]))
        nums = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n, unique=True))
        slopes = [f"{num}/{denom}" for num in nums]
        weights = [sorted(row) for row in draw(int_rows(e * f, n))]
    else:
        slopes = draw(rats(n, n))
        weights = draw(int_rows(draw(st.sampled_from([e * f, 1])), draw(st.sampled_from([n, n + 1]))))
    params = {"e": e, "f": f, "slopes": slopes, "weights": weights}
    if draw(st.booleans()):
        params["tau"] = draw(st.integers(1, 3))
    return params


SCAN_OPTIONAL = {
    "n_max": SMALL,
    "ef": st.lists(st.lists(SMALL, min_size=2, max_size=2), max_size=2),
    "band_scale": st.one_of(SMALL, st.sampled_from(["1/2", "3/2", "2"])),
    "max_witnesses": st.integers(0, 3),
}
# wide bands list up to (2r + 1)^n slope vectors per class; the cap refuses them
WIDE_BAND = st.fixed_dictionaries(
    {"band_scale": st.one_of(st.integers(1, 60), st.sampled_from(["119/2", "60"]))},
    optional={"n_max": st.integers(1, 4), "kappa_min": st.integers(-2, 0), "kappa_max": st.integers(0, 6)},
)
SCAN = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            **SCAN_OPTIONAL,
            "kappa_min": st.integers(-2, 0),
            "kappa_max": st.integers(-1, 2),
        },
    ),
    # windows anywhere in +-10^9 and up to 10^9 wide: the cell cap refuses
    # the wide ones before any cell is listed
    st.builds(
        lambda low, width, rest: {"kappa_min": low, "kappa_max": low + width, **rest},
        st.integers(-10**9, 10**9),
        st.one_of(st.integers(-1, 6), st.integers(0, 10**9)),
        st.fixed_dictionaries({}, optional=SCAN_OPTIONAL),
    ),
    WIDE_BAND,
)


@st.composite
def classicality_params(draw):
    n = draw(st.integers(1, 3))
    return {"local": draw(LOCAL), "n": n, "weights": draw(int_rows(draw(SMALL), n)), "mu": draw(rats(n, n))}


PS_MAX_VALUES = JOB_SCHEMAS["ps-irreducible"]["properties"]["values"]["maxItems"]
PS = st.fixed_dictionaries(
    {
        "q": st.integers(2, 9),
        "values": st.one_of(
            rats(1, 4),
            st.lists(VALID_RAT, min_size=5, max_size=12),
            # beyond the cap; from about 1,425 distinct values the orbit size had
            # more than 4,300 digits and could not be written
            st.integers(PS_MAX_VALUES + 1, 2000).map(lambda n: ["-1"] + [str(v) for v in range(2, n + 1)]),
        ),
        "group": st.sampled_from(["C", "D"]),
    }
)
BEYOND_LIMIT = [q for q in range(ORACLE_MAX_PRIME + 1, ORACLE_MAX_PRIME + 40) if is_prime(q)][:3] + [1000003]
PLACE = st.one_of(
    st.just("inf"),
    st.integers(2, 11),
    st.sampled_from([q for q in range(2, ORACLE_MAX_PRIME + 1) if is_prime(q)] + BEYOND_LIMIT),
)
HILBERT = st.fixed_dictionaries({"a": RAT, "b": RAT, "place": PLACE}, optional={"oracle": st.booleans()})
# near symbols.MAX_DISCRIMINANT (answered, trial division once) and beyond it (refused)
DISCRIMINANT = st.one_of(st.integers(-5, 5), st.sampled_from([10**12 - 11, -10**18]))
WALD = st.fixed_dictionaries(
    {
        "p": st.integers(3, 11),
        "m": st.integers(1, 3),
        "split_values": rats(),
        "field_elements": st.lists(
            st.fixed_dictionaries({"d": DISCRIMINANT, "a": RAT, "b": RAT}), max_size=2
        ),
    }
)

CERTIFICATE = replay_symplectic(1, [LocalDatum(3, 1, 2)], [RefinedSlopes([0])]).to_dict()


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


LEAVES = list(_leaf_paths(CERTIFICATE))


@st.composite
def verify_params(draw):
    if draw(st.integers(0, 5)) == 0:
        return {"path": "/nonexistent/certificate.json"}
    cert = json.loads(json.dumps(CERTIFICATE))
    for where in draw(st.lists(st.sampled_from(LEAVES), max_size=2)):
        target = cert
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = draw(st.one_of(JUNK, RAT))
    return {"certificate": cert}


JOBS = st.one_of(
    replay_params("replay-sp"),
    replay_params("replay-so"),
    SCAN.map(lambda p: {"command": "keylemma-scan", "params": p}),
    admissible_params().map(lambda p: {"command": "admissible", "params": p}),
    classicality_params().map(lambda p: {"command": "classicality", "params": p}),
    PS.map(lambda p: {"command": "ps-irreducible", "params": p}),
    HILBERT.map(lambda p: {"command": "hilbert", "params": p}),
    WALD.map(lambda p: {"command": "wald-sign", "params": p}),
    verify_params().map(lambda p: {"command": "verify-cert", "params": p}),
    st.fixed_dictionaries(
        {"command": st.sampled_from(["hilbert", "nope"]), "params": st.dictionaries(st.sampled_from("an"), JUNK)}
    ),
)


# the shipped cell cap on some draws, so the wide bands reach the data cap
CELLS_CAP = st.one_of(st.integers(1, 40), st.just(scan.MAX_CELLS))
# a report path in a missing directory, or one naming a directory
UNWRITABLE_OUT = st.one_of(st.none(), st.sampled_from([("missing", "report.json"), ("directory",)]))


@settings(max_examples=300, deadline=None)
@given(JOBS, st.integers(1, 2000), CELLS_CAP, UNWRITABLE_OUT)
def test_main_ends_in_an_exit_code_or_one_line_error(job, data_cap, cells_cap, out_path):
    with (
        tempfile.TemporaryDirectory() as tmp,
        mock.patch.object(scan, "MAX_DATA", data_cap),
        mock.patch.object(scan, "MAX_CELLS", cells_cap),
    ):
        path = os.path.join(tmp, "job.json")
        if out_path is not None:
            os.mkdir(os.path.join(tmp, "directory"))
            job = {**job, "out": os.path.join(tmp, *out_path)}
        with open(path, "w") as fh:
            json.dump(job, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--job", path])
        leftover = sorted(os.listdir(tmp))
    assert code in (0, 1, 2)
    if job["command"] == "hilbert" and job["params"].get("oracle") is True:
        assert code == 1 or job["params"]["place"] not in BEYOND_LIMIT
    if job["command"] == "ps-irreducible" and len(job["params"]["values"]) > PS_MAX_VALUES:
        assert code == 1
    if out_path is not None:
        assert code == 1 and leftover == ["directory", "job.json"]  # no report, no temporary file
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
    else:
        assert json.loads(out.getvalue())["command"] == job["command"]


FORGEABLE = [
    CERTIFICATE,
    replay_orthogonal(1, [LocalDatum(5, 2, 1)], [RefinedSlopes([0, Fraction(1, 2)])]).to_dict(),
    replay_symplectic(2, [LocalDatum(3), LocalDatum(2, 2, 1)], [RefinedSlopes([1, -2])] * 2).to_dict(),
]
# one value of each JSON type; 2.0 is a number but not an integer
JSON_VALUES = {"null": None, "boolean": True, "integer": 0, "number": 2.0, "string": "1", "array": [], "object": {}}
OFF_GRAMMAR = st.one_of(
    st.sampled_from(["1e30000000", "0e600000", "1.5", " 1/2", "1/2 ", "+3", "٣", "1_0", "1/0", "0/00", "", "1/-2"]),
    st.text(alphabet="0123456789-+/ .e٣_", max_size=12).filter(
        lambda text: not re.fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", text)
    ),
)


def _nodes(node, schema, path=()):
    """(path, schema) of every node below the root of a certificate."""
    if path:
        yield path, schema
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, schema["properties"][key], path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _nodes(value, schema["items"], path + (i,))


@st.composite
def forged_certificates(draw):
    cert = json.loads(json.dumps(draw(st.sampled_from(FORGEABLE))))
    nodes = list(_nodes(cert, CERTIFICATE_SCHEMA))
    if draw(st.booleans()):
        where, schema = draw(st.sampled_from(nodes))
        allowed = schema.get("type", "string")  # the enums list strings
        allowed = [allowed] if isinstance(allowed, str) else allowed
        value = JSON_VALUES[draw(st.sampled_from([name for name in JSON_VALUES if name not in allowed]))]
    else:
        where = draw(st.sampled_from([path for path, schema in nodes if "pattern" in schema]))
        value = draw(OFF_GRAMMAR)
    target = cert
    for key in where[:-1]:
        target = target[key]
    target[where[-1]] = value
    return cert


@settings(max_examples=200, deadline=1000)
@given(forged_certificates())
def test_forged_certificate_ends_in_one_line(cert):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "job.json")
        with open(path, "w") as fh:
            json.dump({"command": "verify-cert", "params": {"certificate": cert}}, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--job", path])
    assert code == 1 and out.getvalue() == ""
    assert err.getvalue().startswith("error: certificate.") and err.getvalue().count("\n") == 1, err.getvalue()
