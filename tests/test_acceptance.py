"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Every tolerance is exact (rational or integer equality); there are
no floating-point comparisons anywhere.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from slopecert.admissibility import PhiModuleDatum, alignment_check, find_misaligned_candidate
from slopecert.conj import congruence_pin
from slopecert.lattice import LocalDatum, WeightTable
from slopecert.principal import UnramChar  # noqa: F401  (surface check)
from slopecert.replay import (
    ARTIN_PLUS_IRREDUCIBLE,
    IRREDUCIBLE,
    replay_orthogonal,
    replay_symplectic,
)
from slopecert.satake import (
    RefinedSlopes,
    change_refinement,
    classicality_general,
    classicality_sp,
    frobenius_slopes,
    sp_delta_groups,
)
from slopecert.scan import run_scan
from slopecert.symbols import (
    INFINITE_PLACE,
    Place,
    hilbert,
    hilbert_solvable,
    product_formula,
    wald_structure_report,
    waldspurger_sign_product,
)
from slopecert.weyl import group_order, minus_identity, shift_cycle, weyl_elements

from test_symbols import random_instance


def report(number, label):
    def wrap(fn):
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {label}: FAIL")
                raise
            print(f"ACCEPTANCE {number:02d} {label}: PASS")

        run.__name__ = fn.__name__
        return run

    return wrap


@report(1, "key-lemma soundness scan")
def test_01_keylemma_soundness_scan():
    started = time.time()
    rep = run_scan(n_max=4, kappa_min=-3, kappa_max=3, band_scale=1)
    elapsed = time.time() - started
    assert rep.misaligned == 0, rep.witnesses
    assert rep.certified == rep.data_checked > 0
    assert elapsed < 600, f"scan took {elapsed:.0f}s"


@report(2, "sensitivity control (doubled band)")
def test_02_sensitivity_control():
    rep = run_scan(n_max=4, kappa_min=-3, kappa_max=3, band_scale=2)
    assert rep.misaligned >= 1
    # pinned regression witness: kappa (0,1), slopes (1,0), swap candidate
    datum = PhiModuleDatum(1, 1, [1, 0], [[0, 1]])
    cand = find_misaligned_candidate(datum, 1)
    assert cand is not None and cand.subset == (1,) and cand.theta_row(1) == (2, 1)
    assert alignment_check(datum, 1).status == "hypothesis_failed"


def _random_seed_vector(rng, rank):
    return RefinedSlopes(
        [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(rank)]
    )


@report(3, "replay certification")
def test_03_replay_certification():
    rng = random.Random(2024)
    shapes = [(1, 1), (1, 2), (2, 1)]
    for n in (1, 2, 3):
        for (e, f) in shapes:
            loc = LocalDatum(3, e, f)
            for _ in range(100):
                cert = replay_symplectic(n, [loc], [_random_seed_vector(rng, n)])
                assert cert.verdict == ARTIN_PLUS_IRREDUCIBLE
                assert cert.places[0].survivors == [(0,)]
    for n in (1, 2):  # torus ranks 2 and 4
        loc = LocalDatum(3, 1, 1)
        for _ in range(100):
            cert = replay_orthogonal(n, [loc], [_random_seed_vector(rng, 2 * n)])
            assert cert.verdict == IRREDUCIBLE
            assert cert.places[0].survivors == []
    # the zero-seed worked certificate, pinned exactly
    cert = replay_symplectic(2, [LocalDatum(3, 1, 1)], [RefinedSlopes([0, 0])])
    pr = cert.places[0]
    assert pr.k1.rows == ((6, 4),)
    assert pr.x2p.values == (Fraction(1), Fraction(-27))
    walk, total = [], Fraction(0)
    for i in (-2, -1, 1, 2):
        total += pr.x2p.slope(i)
        walk.append(total)
    assert walk == [27, 26, 27, 0]


@report(4, "refinement invariance")
def test_04_refinement_invariance():
    rng = random.Random(4096)
    for family in ("C", "D"):
        elements = {
            rank: list(weyl_elements(family, rank))
            for rank in ((1, 2, 3, 4) if family == "C" else (2, 3, 4))
        }
        for _ in range(1000):
            rank = rng.choice(sorted(elements))
            w = rng.choice(elements[rank])
            loc = LocalDatum(3, rng.choice([1, 2]), rng.choice([1, 2]))
            table = WeightTable(
                [
                    sorted((rng.randint(0, 10) for _ in range(rank)), reverse=True)
                    for _ in range(loc.embeddings)
                ]
            )
            phi = RefinedSlopes(
                [Fraction(rng.randint(-24, 24), rng.randint(1, 6)) for _ in range(rank)]
            )
            moved = change_refinement(w, loc, table, phi)
            assert frobenius_slopes(loc, rank, table, moved, family) == frobenius_slopes(
                loc, rank, table, phi, family
            )
            assert change_refinement(w.inverse(), loc, table, moved).values == phi.values


@report(5, "Newton-above-Hodge equivalence")
def test_05_newton_above_hodge_equivalence():
    def brute(datum):
        n = datum.rank
        for r in range(1, n + 1):
            min_newton = min(
                sum(datum.slopes[i - 1] for i in sub)
                for sub in combinations(range(1, n + 1), r)
            )
            min_hodge = sum(datum.weight_mean(i) for i in range(1, r + 1))
            if r < n and min_newton < min_hodge:
                return False
            if r == n and min_newton != min_hodge:
                return False
        return True

    from slopecert.admissibility import newton_above_hodge

    rng = random.Random(555)
    agreements = 0
    for _ in range(1000):
        n = rng.randint(1, 6)
        e = rng.choice([1, 2])
        m = e * rng.choice([1, 2])
        kappa = [sorted(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
        slopes = [Fraction(rng.randint(-10, 10), e) for _ in range(n)]
        if rng.random() < 0.5:
            datum0 = PhiModuleDatum(e, 1, slopes, kappa)
            slopes[-1] += sum(datum0.weight_mean(i) for i in range(1, n + 1)) - sum(slopes)
        datum = PhiModuleDatum(e, 1, slopes, kappa)
        assert newton_above_hodge(datum) == brute(datum)
        agreements += 1
    assert agreements == 1000


@report(6, "Hilbert symbol suite")
def test_06_hilbert_symbol_suite():
    places = [Place(2), Place(3), Place(5), Place(7), INFINITE_PLACE]
    for a in range(-50, 51):
        if a == 0:
            continue
        for b in range(-50, 51):
            if b == 0:
                continue
            for place in places:
                assert (hilbert(a, b, place) == 1) == hilbert_solvable(a, b, place)
    rng = random.Random(66)

    def nz():
        while True:
            v = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
            if v:
                return v

    for _ in range(500):
        a, b, c = nz(), nz(), nz()
        place = rng.choice(places)
        assert hilbert(a, b * c, place) == hilbert(a, b, place) * hilbert(a, c, place)
        assert hilbert(a, b, place) == hilbert(b, a, place)
        assert hilbert(a, -a, place) == 1
    for _ in range(500):
        assert product_formula(nz(), nz())
    assert hilbert(-1, -1, 2) == -1


@report(7, "Waldspurger sign product")
def test_07_waldspurger_sign():
    rng = random.Random(77)
    for _ in range(200):
        inst = random_instance(rng)
        assert inst.p in (3, 5, 7) and inst.m <= 3
        assert waldspurger_sign_product(inst) == 1
        for ratio, predicted in wald_structure_report(inst):
            assert ratio == predicted


@report(8, "classicality cross-check")
def test_08_classicality_crosscheck():
    rng = random.Random(88)
    cases = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        loc = LocalDatum(3, rng.choice([1, 2]), rng.choice([1, 2]))
        table = WeightTable(
            [
                sorted((rng.randint(0, 9) for _ in range(n)), reverse=True)
                for _ in range(loc.embeddings)
            ]
        )
        mu = [Fraction(rng.randint(-6, 24), rng.choice([1, 2, 4])) for _ in range(n)]
        assert classicality_sp(loc, n, table, mu) == classicality_general(
            sp_delta_groups(loc, n, table), mu
        )
        cases += 1
    assert cases == 1000


@report(9, "congruence pinning")
def test_09_congruence_pinning():
    for p in (2, 3, 5, 7):
        for N in range(1, 7):
            if p**N > 64:
                continue
            for t_bound in range(0, 11):
                for target in (-1, 0, 1):
                    qualifying = [
                        t
                        for t in range(target - t_bound, target + t_bound + 1)
                        if (t - target) % p**N == 0
                    ]
                    pinned = congruence_pin(t_bound, p, N, target)
                    assert (pinned == target) == (qualifying == [target])
    for n in range(1, 11):
        bound = 2 * n + 4
        p, N = 3, 1
        while p**N <= bound:
            N += 1
        # the trace-comparison instance: congruent traces within 2n+4 coincide
        assert congruence_pin(bound, p, N, (-1) ** (n + 1)) == (-1) ** (n + 1)


@report(10, "Weyl structure and report determinism")
def test_10_weyl_structure():
    import math

    for n in range(1, 6):
        assert group_order("C", n) == 2**n * math.factorial(n)
        assert group_order("D", n) == 2 ** (n - 1) * math.factorial(n)
        assert sum(1 for _ in weyl_elements("C", n)) == group_order("C", n)
        assert sum(1 for _ in weyl_elements("D", n)) == group_order("D", n)
        assert (minus_identity("D", n) is not None) == (n % 2 == 0)
        cs = {e.images for e in weyl_elements("C", n)}
        ds = {e.images for e in weyl_elements("D", n)}
        assert shift_cycle(n).images in cs and shift_cycle(n).images in ds
    reports = [
        json.dumps(
            replay_symplectic(2, [LocalDatum(3)], [RefinedSlopes([0, 0])]).to_dict(),
            sort_keys=True,
            indent=2,
        )
        for _ in range(2)
    ]
    assert reports[0] == reports[1]
