import contextlib
import copy
import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from kernel_oracle import search_python
from splitting_oracle import certify_splittings_by_masks, extended_indices

import slopecert.replay as replay_mod
from slopecert.errors import VerdictFailed
from slopecert.lattice import LocalDatum, WeightTable
from slopecert.replay import (
    ARTIN_PLUS_IRREDUCIBLE,
    FAILED,
    IRREDUCIBLE,
    certify_splittings,
    replay_orthogonal,
    replay_symplectic,
    verify_certificate,
)
from slopecert.satake import RefinedSlopes
from slopecert.weyl import identity

Q11 = LocalDatum(3, 1, 1)


@contextlib.contextmanager
def step_one_skipped():
    """Make the replay skip step 1: a zero k1 and no -Id flip."""
    real = replay_mod.cone_find

    def cone_find(rank, embeddings, **bounds):
        if "total" in bounds:  # only step 1 bounds the total
            return WeightTable([[0] * rank] * embeddings)
        return real(rank, embeddings, **bounds)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replay_mod, "cone_find", cone_find)
        mp.setattr(replay_mod, "minus_identity", identity)
        yield


def brute_survivors(schema, nu):
    """Independent enumerator over index subsets with explicit prefix walks."""
    idx = extended_indices(schema, nu.rank)
    out = []
    for r in range(1, len(idx)):
        for sub in combinations(idx, r):
            comp = tuple(i for i in idx if i not in sub)

            def ok(part):
                tot = Fraction(0)
                for i in part:
                    tot += nu.slope(i)
                    if tot < 0:
                        return False
                return tot == 0

            if ok(sub) and ok(comp):
                out.append(min((sub, comp), key=lambda t: (len(t), t)))
    return sorted(set(out), key=lambda t: (len(t), t))


class TestCertifySplittings:
    def test_examples(self):
        assert certify_splittings("C", RefinedSlopes([-3])) == [(0,)]
        assert certify_splittings("D", RefinedSlopes([1, -3])) == []
        assert certify_splittings("D", RefinedSlopes([1, -1])) == [(-2, -1)]
        with pytest.raises(ValueError, match="schema must be 'C' or 'D'"):
            certify_splittings("B", RefinedSlopes([1, -1]))

    def test_schema_c_place_without_survivors_fails(self):
        # schema C expects the zero singleton alone, so no survivor is a
        # failure there, not Irreducible as it is for schema D
        place = replay_mod.PlaceRecord(local=Q11, seed=RefinedSlopes([-3]), survivors=[])
        assert replay_mod._verdict("C", [place]) == (FAILED, "place 0: survivors []")
        assert replay_mod._verdict("D", [place]) == (IRREDUCIBLE, None)

    def test_matches_bruteforce_and_complement_closure(self):
        rng = random.Random(8)
        for _ in range(60):
            schema = rng.choice(["C", "D"])
            rank = rng.choice([1, 2, 3]) if schema == "C" else rng.choice([2, 4])
            nu = RefinedSlopes([Fraction(rng.randint(-6, 6), rng.choice([1, 2])) for _ in range(rank)])
            got = certify_splittings(schema, nu)
            assert got == brute_survivors(schema, nu)
            # closure under complement of the underlying surviving family
            idx = extended_indices(schema, rank)
            for rep in got:
                comp = tuple(i for i in idx if i not in rep)
                assert min((rep, comp), key=lambda t: (len(t), t)) in got


@st.composite
def normalized_slopes(draw):
    """A schema and nu of rank 1-6 whose values have mixed denominators
    1, 2, 3 and 6, with zeros, so that prefix sums often vanish."""
    rank = draw(st.integers(1, 6))
    value = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 6]))
    values = draw(st.lists(value, min_size=rank, max_size=rank))
    return draw(st.sampled_from("CD")), RefinedSlopes(values)


@settings(max_examples=200, deadline=None)
@given(normalized_slopes())
@example(("C", RefinedSlopes([0, 0, 0])))  # degenerate nu: every subset survives
@example(("D", RefinedSlopes([0, 0, 0, 0])))
def test_pruned_walk_matches_mask_oracle(schema_nu):
    assert certify_splittings(*schema_nu) == certify_splittings_by_masks(*schema_nu)


SRC = str(Path(__file__).resolve().parent.parent / "src")
RANK_12 = """
from slopecert.replay import certify_splittings
from slopecert.satake import RefinedSlopes
nu = RefinedSlopes(list(range(1, 12)) + [-67])  # the replay regime: nu(i) > 0 for i < 12, nu(12) < 0
assert certify_splittings("C", nu) == [(0,)]
assert certify_splittings("D", nu) == []
"""


def test_rank_twelve_splittings_are_fast():
    # 2^24 and 2^25 subset masks: a walk over every mask does not end in 10 s
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", RANK_12], env={**os.environ, "PYTHONPATH": path}, timeout=10
    )
    assert proc.returncode == 0


class TestSymplecticReplay:
    def test_worked_certificate(self):
        cert = replay_symplectic(2, [Q11], [RefinedSlopes([0, 0])])
        pr = cert.places[0]
        assert pr.k1.rows == ((6, 4),)
        assert pr.x1p.values == (Fraction(-10), Fraction(-16))
        assert pr.k2.rows[0][0] - pr.k2.rows[0][1] == 16
        assert pr.x2p.values == (Fraction(1), Fraction(-27))
        assert pr.survivors == [(0,)]
        assert cert.verdict == ARTIN_PLUS_IRREDUCIBLE
        walk = []
        tot = Fraction(0)
        for i in (-2, -1, 1, 2):
            tot += pr.x2p.slope(i)
            walk.append(tot)
        assert walk == [27, 26, 27, 0]

    def test_degenerate_rank_one(self):
        cert = replay_symplectic(1, [Q11], [RefinedSlopes([Fraction(1, 2)])])
        assert cert.verdict == ARTIN_PLUS_IRREDUCIBLE
        assert cert.places[0].survivors == [(0,)]

    def test_structural_facts(self):
        rng = random.Random(12)
        for _ in range(15):
            n = rng.choice([1, 2, 3])
            e, f = rng.choice([(1, 1), (1, 2), (2, 1)])
            loc = LocalDatum(3, e, f)
            seed = RefinedSlopes(
                [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]
            )
            cert = replay_symplectic(n, [loc], [seed])
            nu = cert.places[0].x2p
            assert all(nu.slope(i) > 0 for i in range(1, n))
            assert nu.slope(n) < 0
            assert sum(nu.values, Fraction(0)) < 0
            assert cert.places[0].survivors == [(0,)]

    def test_artin_line_always_survives(self):
        cert = replay_symplectic(3, [Q11], [RefinedSlopes([1, -1, Fraction(1, 3)])])
        assert (0,) in cert.places[0].survivors

    def test_multiple_places(self):
        locs = [LocalDatum(3, 1, 1), LocalDatum(5, 2, 1)]
        seeds = [RefinedSlopes([0, 0]), RefinedSlopes([Fraction(1, 2), -1])]
        cert = replay_symplectic(2, locs, seeds)
        assert cert.verdict == ARTIN_PLUS_IRREDUCIBLE
        assert len(cert.places) == 2

    def test_paper_sign_mode_still_certifies(self):
        cert = replay_symplectic(2, [Q11], [RefinedSlopes([0, 0])], paper_sign=True)
        assert cert.verdict == ARTIN_PLUS_IRREDUCIBLE

    def test_deep_seed_certifies_without_a_ceiling(self):
        # the cones have a closed-form first point at any depth: seeds from
        # 1 to 10**12 times the same vector all certify and verify
        for scale in (1, 10**3, 10**6, 10**12):
            seed = RefinedSlopes([5 * scale, -2 * scale, -53 * scale])
            cert = replay_symplectic(3, [LocalDatum(5, 2, 1)], [seed])
            assert cert.verdict == ARTIN_PLUS_IRREDUCIBLE
            assert verify_certificate(cert.to_dict()) == (True, [])
        assert cert.places[0].k3.rows[0][0] == 1526000000001312

    def test_step_two_cone_with_non_positive_bound(self):
        # the step-2 column-gap bounds are (-34, 60); the generic cone search
        # spent about 10 s here, the closed form returns the same table
        cert = replay_symplectic(3, [LocalDatum(5, 2, 1)], [RefinedSlopes([5, -2, -53])])
        assert cert.places[0].k2.rows == ((3, 2, 1), (62, 61, 1))
        assert verify_certificate(cert.to_dict()) == (True, [])

    def test_hypothesis_margins_positive(self):
        cert = replay_symplectic(2, [LocalDatum(3, 2, 1)], [RefinedSlopes([0, 0])])
        assert all(m > 0 for m in cert.places[0].hypothesis_margins)


class TestOrthogonalReplay:
    def test_rank_two(self):
        cert = replay_orthogonal(1, [Q11], [RefinedSlopes([0, 0])])
        assert cert.verdict == IRREDUCIBLE
        assert cert.places[0].survivors == []

    def test_rank_four_fractional_seed(self):
        seed = RefinedSlopes([Fraction(1, 2), 0, Fraction(-1, 2), 0])
        cert = replay_orthogonal(2, [Q11], [seed])
        assert cert.verdict == IRREDUCIBLE

    def test_skip_step_one_negative_control(self):
        with step_one_skipped(), pytest.raises(VerdictFailed) as exc:
            replay_orthogonal(1, [Q11], [RefinedSlopes([50, 50])])
        assert exc.value.certificate.verdict == FAILED

    def test_step_two_cone_with_non_positive_bound(self):
        # step-2 bounds (-8, 40, 8): over a minute for the generic search
        cert = replay_orthogonal(2, [LocalDatum(5, 2, 1)], [RefinedSlopes([21, -4, 8, -20])])
        assert cert.places[0].k2.rows == ((4, 3, 2, 1), (50, 49, 9, 1))
        assert verify_certificate(cert.to_dict()) == (True, [])

    def test_no_zero_hodge_tate_weight(self):
        from slopecert.replay import induced_datum

        cert = replay_orthogonal(1, [Q11], [RefinedSlopes([1, -2])])
        pr = cert.places[0]
        datum = induced_datum("D", 2, Q11, pr.k3, pr.x2p)
        for row in datum.weights:
            assert 0 not in row


def numbers_in(x):
    """Every scalar a place record holds, through lists, dicts, slopes and tables."""
    if isinstance(x, RefinedSlopes):
        x = x.values
    elif isinstance(x, WeightTable):
        x = x.rows
    elif isinstance(x, LocalDatum):
        x = (x.p, x.e, x.f)
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        return [leaf for item in x for leaf in numbers_in(item)]
    return [x]


@pytest.mark.parametrize(
    "replay, n, local, seed",
    [
        (replay_symplectic, 2, LocalDatum(5, 2, 1), [Fraction(7, 2), Fraction(-5, 3)]),
        (replay_orthogonal, 1, LocalDatum(3, 1, 2), [Fraction(-3, 4), Fraction(5, 6)]),
    ],
)
def test_no_float_in_a_place_or_a_step_bound(replay, n, local, seed):
    bounds, checks = [], []
    real_cone_find, real_step_check = replay_mod.cone_find, replay_mod._step_check

    def cone_find(rank, embeddings, **cone):
        bounds.append(cone)
        return real_cone_find(rank, embeddings, **cone)

    def step_check(step, form, value, bound):
        checks.append((value, bound))
        return real_step_check(step, form, value, bound)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replay_mod, "cone_find", cone_find)
        mp.setattr(replay_mod, "_step_check", step_check)
        place = replay(n, [local], [RefinedSlopes(seed)]).places[0]
    recorded = numbers_in([getattr(place, f.name) for f in dataclasses.fields(place)])
    used = numbers_in(bounds) + numbers_in(checks)
    assert bounds and checks and recorded
    assert all(isinstance(v, (int, Fraction, str)) or v is None for v in recorded)
    assert all(isinstance(v, (int, Fraction)) for v in used)


class TestCertificates:
    def test_roundtrip_verification(self):
        for cert in (
            replay_symplectic(2, [Q11], [RefinedSlopes([0, 0])]),
            replay_symplectic(3, [LocalDatum(3, 1, 2)], [RefinedSlopes([0, 0, 0])]),
            replay_orthogonal(1, [LocalDatum(5, 2, 1)], [RefinedSlopes([0, Fraction(1, 2)])]),
        ):
            ok, mismatches = verify_certificate(cert.to_dict())
            assert ok, mismatches

    def test_tampering_detected(self):
        cert = replay_symplectic(2, [Q11], [RefinedSlopes([0, 0])]).to_dict()
        for mutate in (
            lambda d: d["places"][0]["x2_prime"].__setitem__(0, "2/1"),
            lambda d: d["places"][0]["k1"][0].__setitem__(0, 7),
            lambda d: d["places"][0]["survivors"].append([1]),
            lambda d: d.__setitem__("verdict", "Irreducible"),
            lambda d: d["places"][0]["hypothesis_margins"].__setitem__(0, "1/1"),
        ):
            bad = copy.deepcopy(cert)
            mutate(bad)
            ok, mismatches = verify_certificate(bad)
            assert not ok and mismatches

    def test_skipped_step_one_rejected(self):
        seed = RefinedSlopes([-7, -7])
        with step_one_skipped():
            cert = replay_symplectic(2, [LocalDatum(5, 1, 1)], [seed])
        assert cert.verdict == ARTIN_PLUS_IRREDUCIBLE  # the replay itself passes
        ok, mismatches = verify_certificate(cert.to_dict())
        assert not ok
        assert "place 0: k1 regular" in mismatches
        assert "place 0: step-1 inequality" in mismatches

    def test_reports_byte_identical(self):
        a = json.dumps(
            replay_symplectic(2, [Q11], [RefinedSlopes([0, 0])]).to_dict(), sort_keys=True
        )
        b = json.dumps(
            replay_symplectic(2, [Q11], [RefinedSlopes([0, 0])]).to_dict(), sort_keys=True
        )
        assert a == b


@pytest.mark.parametrize("shift", [0, 1])
def test_one_alignment_check_per_distinct_row(shift):
    # step 3's cone point repeats one row at every embedding, and equal rows
    # share one check; a k3 with distinct rows gets one check per row.  The
    # record holds each tau's margin and status as a check at that tau gives
    # them, and the kernel oracle agrees that no tau has a misaligned candidate
    local, rank = LocalDatum(3, 1, 2), 2
    checks, real_check = [], replay_mod.alignment_check

    def pick(step, **bounds):
        rows = replay_mod.cone_find(rank, local.embeddings, **bounds).rows
        if step == 3:  # widen the gaps of the last row: still in the cone
            rows = rows[:-1] + (tuple(v + shift * (rank - i) for i, v in enumerate(rows[-1])),)
        return WeightTable(rows)

    def counting_check(datum, tau):
        checks.append(tau)
        return real_check(datum, tau)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replay_mod, "alignment_check", counting_check)
        rec = replay_mod._derive_place("C", rank, local, RefinedSlopes([1, -2]), False, pick)
    assert checks == ([1, 2] if shift else [1])
    assert (len(set(rec.k3.rows)) == 2) == bool(shift)
    datum = replay_mod.induced_datum("C", rank, local, rec.k3, rec.x2p)
    direct = [real_check(datum, tau) for tau in (1, 2)]
    assert rec.hypothesis_margins == [r.margin for r in direct]
    assert rec.failure is None and all(r.status == "certified" for r in direct)
    scaled, denom = datum.scaled_slopes
    assert not any(search_python(datum.weights, scaled, datum.e, denom, tau)[0] for tau in (0, 1))
