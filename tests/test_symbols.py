import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hensel_oracle import solvable_by_double_loop
from prime_oracle import is_squarefree_by_trial_division
from wald_oracle import wald_by_pairs
from slopecert.errors import Degenerate, SlopecertError, SplitExtension, ZeroArgument
from slopecert import symbols
from slopecert.cli import run_job
from slopecert.lattice import is_prime
from slopecert.symbols import (
    INFINITE_PLACE,
    MAX_DISCRIMINANT,
    ORACLE_MAX_PRIME,
    Place,
    QuadExtElem,
    WaldInstance,
    hilbert,
    hilbert_solvable,
    is_local_square,
    product_formula,
    sign_char,
    wald_structure_report,
    waldspurger_sign_product,
)

PLACES = [Place(2), Place(3), Place(5), Place(7), INFINITE_PLACE]
ORACLE_PRIMES = [q for q in range(2, ORACLE_MAX_PRIME + 1) if is_prime(q)]


def local_rationals(p):
    """Nonzero rationals with v_p in -3..3, so both valuations are odd in
    about a third of the drawn pairs, and units of either square class."""
    unit = st.integers(-500, 500).filter(lambda n: n % p)
    denominator = st.integers(1, 60).filter(lambda n: n % p)
    return st.builds(lambda u, d, v: Fraction(u, d) * Fraction(p) ** v, unit, denominator, st.integers(-3, 3))


def unit_reps(p):
    """Integer p-units, +- one of each square class mod p (mod 8 at p = 2)."""
    if p == 2:
        return [1, 3, 5, 7, -1, -3, -5, -7]
    nonresidue = min(set(range(2, p)) - {x * x % p for x in range(1, p)})
    return [1, -1, nonresidue, -nonresidue]


def oracle_classes(p, valuations):
    """Check the oracle on every pair u p^va, w p^vb; return the classes met."""
    met = set()
    for va, vb in product(valuations, repeat=2):
        for u, w in product(unit_reps(p), repeat=2):
            a, b = u * p**va, w * p**vb
            symbol = hilbert(a, b, p)
            assert (symbol == 1) == hilbert_solvable(a, b, p), (a, b, p)
            met.add((symbol, va, vb))
    return met


def nonzero(rng, span=20, den=4):
    while True:
        v = Fraction(rng.randint(-span, span), rng.randint(1, den))
        if v:
            return v


class TestHilbert:
    def test_pinned_values(self):
        assert hilbert(-1, -1, 2) == -1
        assert hilbert(1, 17, 5) == 1
        assert hilbert(2, 3, 3) == -1
        assert hilbert(-1, -1, INFINITE_PLACE) == -1
        assert hilbert(-1, 2, INFINITE_PLACE) == 1

    def test_zero_argument(self):
        with pytest.raises(ZeroArgument):
            hilbert(0, 3, 5)
        with pytest.raises(ZeroArgument):
            hilbert_solvable(3, 0, 5)

    def test_formula_matches_oracle_sample(self):
        rng = random.Random(41)
        for _ in range(200):
            a, b = nonzero(rng), nonzero(rng)
            for place in PLACES:
                assert (hilbert(a, b, place) == 1) == hilbert_solvable(a, b, place)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_oracle_on_every_class_odd(self, p):
        # (symbol, v_p(a) mod 2, v_p(b) mod 2); two units have symbol +1
        expected = {(s, va, vb) for s in (1, -1) for va in (0, 1) for vb in (0, 1)} - {(-1, 0, 0)}
        assert oracle_classes(p, (0, 1)) == expected

    def test_oracle_on_every_class_at_two(self):
        expected = {(s, va, vb) for s in (1, -1) for va in range(4) for vb in range(4)}
        assert oracle_classes(2, range(4)) == expected

    @pytest.mark.parametrize("p", [41, 43])
    def test_oracle_both_valuations_odd(self, p):
        met = set()
        for u, w in product(unit_reps(p), repeat=2):
            a, b = u * p, w * p
            symbol = hilbert(a, b, p)
            assert (symbol == 1) == hilbert_solvable(a, b, p), (a, b, p)
            met.add(symbol)
        assert met == {1, -1}

    def test_oracle_on_every_pair_with_both_valuations_odd_at_97(self):
        # every unit, not one per square class: the search visits each
        # point's p^2 children by one residue test, so 9,216 pairs are cheap
        p = 97
        met = set()
        for u, w in product(range(1, p), repeat=2):
            symbol = hilbert(u * p, w * p, p)
            assert (symbol == 1) == hilbert_solvable(u * p, w * p, p), (u, w)
            met.add(symbol)
        assert met == {1, -1}

    def test_oracle_refuses_primes_beyond_its_limit(self):
        top = max(q for q in range(2, ORACLE_MAX_PRIME + 1) if is_prime(q))
        assert hilbert_solvable(3 * top, 5 * top, top) == (hilbert(3 * top, 5 * top, top) == 1)
        beyond = min(q for q in range(ORACLE_MAX_PRIME + 1, 2 * ORACLE_MAX_PRIME) if is_prime(q))
        for p in (beyond, 1000003):
            with pytest.raises(SlopecertError, match=f"p <= {ORACLE_MAX_PRIME}, got p = {p}"):
                hilbert_solvable(3, 5, p)
        assert hilbert(3, 5, 1000003) == 1

    @pytest.mark.parametrize("p", [q for q in ORACLE_PRIMES if q <= 43])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_search_agrees_with_the_double_loop(self, p, data):
        a, b = data.draw(local_rationals(p)), data.draw(local_rationals(p))
        assert hilbert_solvable(a, b, p) == solvable_by_double_loop(a, b, p)

    @pytest.mark.parametrize("p", ORACLE_PRIMES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_search_agrees_with_the_closed_form_at_every_oracle_prime(self, p, data):
        a, b = data.draw(local_rationals(p)), data.draw(local_rationals(p))
        assert hilbert_solvable(a, b, p) == (hilbert(a, b, p) == 1)

    def test_bilinearity_symmetry_and_hyperbolic(self):
        rng = random.Random(42)
        for _ in range(200):
            a, b, c = nonzero(rng), nonzero(rng), nonzero(rng)
            place = rng.choice(PLACES)
            assert hilbert(a, b * c, place) == hilbert(a, b, place) * hilbert(a, c, place)
            assert hilbert(a, b, place) == hilbert(b, a, place)
            assert hilbert(a, -a, place) == 1

    def test_product_formula(self):
        assert product_formula(-1, -1)
        assert product_formula(2, 3)
        assert product_formula(1, 17)
        rng = random.Random(43)
        for _ in range(100):
            assert product_formula(nonzero(rng), nonzero(rng))


class TestSignChar:
    def test_values(self):
        assert sign_char(-1, -1, 3) == 1  # sums of two squares are norms over Q_3
        assert sign_char(3, 3, 3) == hilbert(3, 3, 3)

    def test_squares_are_norms(self):
        rng = random.Random(44)
        for _ in range(40):
            u = nonzero(rng)
            assert sign_char(-1, u * u, 3) == 1
            assert sign_char(2, u * u, 5) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_local_squares_against_the_search(self, p):
        # d is a square in Q_p exactly when (d, b)_p = 1 for b over the square classes
        classes = [1, -1, 2, -2, 5, -5, 10, -10] if p == 2 else [c * p**v for c in unit_reps(p)[::2] for v in (0, 1)]
        rng = random.Random(p)
        for _ in range(60):
            r = nonzero(rng)
            d = rng.choice(classes) * r * r
            assert is_local_square(d, p) == all(hilbert_solvable(d, b, p) for b in classes), (d, p)

    def test_split_extension(self):
        assert is_local_square(-1, 5)  # -1 = 2^2 mod 5 lifts
        with pytest.raises(SplitExtension):
            sign_char(-1, 3, 5)


class TestQuadExt:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadExtElem(4, 1, 1)  # not squarefree
        with pytest.raises(ValueError):
            QuadExtElem(1, 1, 1)

    def test_squarefree_against_trial_division_to_the_square_root(self):
        for d in range(-3000, 3000):
            assert symbols._squarefree(d) == is_squarefree_by_trial_division(d), d
        # near MAX_DISCRIMINANT: p q, p^2 q, q^2 and three primes near the cube root
        squarefree = [9973 * 100000007, 9973 * 9967 * 10007, 999999999989, 2 * 3 * 5 * 7 * 11 * 13 * 999983]
        not_squarefree = [9973**2 * 10007, 999983**2, 4 * 249999999997, 9967 * 9973 * 9973]
        assert [symbols._squarefree(d) for d in squarefree] == [True] * 4
        assert [symbols._squarefree(-d) for d in not_squarefree] == [False] * 4

    @settings(max_examples=8, deadline=None)
    @given(d=st.integers(MAX_DISCRIMINANT // 10, MAX_DISCRIMINANT), sign=st.sampled_from([1, -1]))
    def test_squarefree_at_random_up_to_the_cap(self, d, sign):
        assert symbols._squarefree(sign * d) == is_squarefree_by_trial_division(d)


WALD_DISCRIMINANTS = [-7, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 13]
SMALL_RATIONALS = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([3, 5, 7, 11, 13]),
    splits=st.lists(SMALL_RATIONALS.filter(bool), max_size=3),
    fields=st.lists(
        st.tuples(st.sampled_from(WALD_DISCRIMINANTS), SMALL_RATIONALS, SMALL_RATIONALS).filter(lambda f: f[1] or f[2]),
        max_size=3,
    ),
)
def test_wald_against_fraction_pairs(p, splits, fields):
    # the sign product, each ratio, the structure report and the outcome
    # agree with the same quantities formed literally on Fraction pairs
    assume(splits or fields)
    m = len(splits) + len(fields)
    inst = WaldInstance(p, m, tuple(splits), tuple(QuadExtElem(d, a, b) for d, a, b in fields))
    outcome, expected = wald_by_pairs(p, m, splits, fields)
    if outcome != "ok":
        error = {"Degenerate": Degenerate, "SplitExtension": SplitExtension}[outcome]
        for fn in (waldspurger_sign_product, wald_structure_report):
            with pytest.raises(error):
                fn(inst)
        return
    sign, entries = expected
    assert waldspurger_sign_product(inst) == sign
    assert wald_structure_report(inst) == entries


def random_instance(rng):
    """A regular instance with the discriminant-compatibility constraint.

    The ambient special orthogonal group has trivial discriminant, which
    forces (prod d_i, (-1)^(number of split indices))_p = +1; without it the
    sign product genuinely takes the value -1.
    """
    p = rng.choice([3, 5, 7])
    m = rng.randint(1, 3)
    n_fields = rng.randint(1, m)
    n_splits = m - n_fields
    nonsquares = [d for d in (-1, 2, -2, 3, -3, 5, -5, 6, 7, 10) if not is_local_square(d, p)]
    while True:
        splits = []
        while len(splits) < n_splits:
            x = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
            if x not in (0, 1, -1):
                splits.append(x)
        fields = []
        while len(fields) < n_fields:
            d = rng.choice(nonsquares)
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
            b = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
            if b == 0 or (a == 0 and b == 0):
                continue
            fields.append(QuadExtElem(d, a, b))
        prod_d = 1
        for fe in fields:
            prod_d *= fe.d
        if n_splits % 2 and hilbert(prod_d, -1, p) != 1:
            continue
        inst = WaldInstance(p, m, tuple(splits), tuple(fields))
        try:
            wald_structure_report(inst)
        except (Degenerate, SplitExtension):
            continue
        return inst


class TestWaldspurger:
    def test_no_splits_gives_trivial_ratio(self):
        inst = WaldInstance(5, 1, (), (QuadExtElem(2, Fraction(1), Fraction(1)),))
        assert waldspurger_sign_product(inst) == 1
        [(ratio, predicted)] = wald_structure_report(inst)
        assert ratio == predicted == 1

    def test_pinned_small_instances(self):
        inst = WaldInstance(5, 2, (Fraction(2),), (QuadExtElem(2, Fraction(1), Fraction(1)),))
        assert waldspurger_sign_product(inst) == 1
        inst = WaldInstance(
            3, 3, (Fraction(2), Fraction(5)), (QuadExtElem(-1, Fraction(2), Fraction(1)),)
        )
        assert waldspurger_sign_product(inst) == 1

    def test_random_instances_sign_and_structure(self):
        rng = random.Random(45)
        for _ in range(60):
            inst = random_instance(rng)
            assert waldspurger_sign_product(inst) == 1
            for ratio, predicted in wald_structure_report(inst):
                assert ratio == predicted

    def test_degenerate_rejected(self):
        # y values collide when two split parameters are inverse to each other
        inst = WaldInstance(
            5, 3, (Fraction(2), Fraction(1, 2)), (QuadExtElem(2, Fraction(1), Fraction(1)),)
        )
        with pytest.raises(Degenerate):
            waldspurger_sign_product(inst)

    def test_y_of_one_or_minus_one_and_repeated_y_collide(self):
        # y = -x / tau(x) is -1 where b = 0 and 1 where a = 0, and the
        # split roots -x, -1/x are -1 or 1 where x is 1 or -1: each equals
        # its own conjugate or partner.  x and 2x share y.  Each is refused
        # by the distinctness test before any ratio is evaluated
        one_plus_sqrt2 = QuadExtElem(2, Fraction(1), Fraction(1))
        for split, field in [
            ((), (QuadExtElem(2, Fraction(3), Fraction(0)),)),
            ((Fraction(2),), (QuadExtElem(3, Fraction(0), Fraction(5)),)),
            ((Fraction(1),), (one_plus_sqrt2,)),
            ((Fraction(-1), Fraction(3)), ()),
            ((), (one_plus_sqrt2, QuadExtElem(2, Fraction(2), Fraction(2)))),
        ]:
            inst = WaldInstance(5, len(split) + len(field), split, field)
            for fn in (waldspurger_sign_product, wald_structure_report):
                with pytest.raises(Degenerate, match="^y-values collide across embeddings$"):
                    fn(inst)

    def test_split_extension_rejected(self):
        # -1 is a square over Q_5
        inst = WaldInstance(5, 1, (), (QuadExtElem(-1, Fraction(1), Fraction(1)),))
        with pytest.raises(SplitExtension):
            waldspurger_sign_product(inst)

    def test_degree_count_enforced(self):
        with pytest.raises(ValueError):
            WaldInstance(5, 2, (Fraction(2),), ())

    def test_one_job_evaluates_its_ratios_once(self, monkeypatch):
        # the sign product and the structure report share the ratios; each
        # evaluation builds two characteristic polynomials
        built = []

        def counting(ys, split_values):
            built.append(len(split_values))
            return char_poly_factors(ys, split_values)

        char_poly_factors = symbols._char_poly_factors
        monkeypatch.setattr(symbols, "_char_poly_factors", counting)
        symbols._wald_ratios.cache_clear()
        params = {"p": 5, "m": 2, "split_values": ["2"], "field_elements": [{"d": 2, "a": "1", "b": "1"}]}
        report, code = run_job({"command": "wald-sign", "params": params})
        assert code == 0 and report["result"]["sign"] == 1
        assert built == [1, 0]
        # an error is not kept: each call raises it again, with its message
        degenerate = WaldInstance(5, 3, (Fraction(2), Fraction(1, 2)), (QuadExtElem(2, Fraction(1), Fraction(1)),))
        split = WaldInstance(5, 1, (), (QuadExtElem(-1, Fraction(1), Fraction(1)),))
        for inst, error, message in [(degenerate, Degenerate, "collide"), (split, SplitExtension, "splits over Q_5")]:
            for fn in (waldspurger_sign_product, wald_structure_report, waldspurger_sign_product):
                with pytest.raises(error, match=message):
                    fn(inst)


def test_wald_job_checks_only_the_elements_it_reads(monkeypatch):
    # every arithmetic result re-ran the squarefree test and the field checks
    checked, tested = [], []
    post_init, squarefree = QuadExtElem.__post_init__, symbols._squarefree

    def counting_post_init(self):
        checked.append(self.d)
        post_init(self)

    def counting_squarefree(n):
        tested.append(n)
        return squarefree(n)

    monkeypatch.setattr(QuadExtElem, "__post_init__", counting_post_init)
    monkeypatch.setattr(symbols, "_squarefree", counting_squarefree)
    symbols._wald_ratios.cache_clear()
    params = {
        "p": 3,
        "m": 3,
        "split_values": ["2"],
        "field_elements": [{"d": -1, "a": "1", "b": "2"}, {"d": 2, "a": "3", "b": "1"}],
    }
    report, code = run_job({"command": "wald-sign", "params": params})
    assert report["result"]["structure"] and code in (0, 2)
    assert checked == tested == [-1, 2]
