import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from prime_oracle import is_prime_by_trial_division

from slopecert.lattice import (
    PRIME_LIMIT,
    LocalDatum,
    WeightTable,
    parse_rat,
    rat_str,
    is_prime,
    very_regular,
    vp,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


class TestRat:
    @given(rationals, rationals, rationals)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a

    @given(rationals)
    def test_lowest_terms(self, a):
        from math import gcd

        assert a.denominator > 0
        assert gcd(a.numerator, a.denominator) == 1

    @given(rationals)
    def test_serialization_roundtrip(self, a):
        assert parse_rat(rat_str(a)) == a

    @pytest.mark.parametrize("x", [0.5, 2.0, float("nan"), "1/2", None, complex(1, 0)])
    def test_rat_str_takes_only_ints_and_fractions(self, x):
        with pytest.raises(TypeError):
            rat_str(x)

    @settings(max_examples=300)
    @given(
        st.one_of(
            st.from_regex(r"-?[0-9]{1,30}/[0-9]{1,30}", fullmatch=True),
            st.sampled_from([" 1/2", "+3", "٣/4", "²/3", "1/2\n", "-0/7", "3", "1.5", "1e3", "1 /2", "/2", "2/",
                             "1e3000000", "0e600000", "1_0", "-"]),
            st.text(alphabet="0123456789-+/ .e٣²_", max_size=12),
        )
    )
    def test_parse_rat_agrees_with_fraction(self, s):
        # Fraction(s) reads more than the grammar (spaces, "_", exponents that
        # it expands in full), so it is the oracle only on grammar strings
        if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", s):
            with pytest.raises(ValueError):
                parse_rat(s)
            return
        try:
            want = Fraction(s)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                parse_rat(s)
        else:
            got = parse_rat(s)
            assert type(got) is Fraction and got == want
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @pytest.mark.parametrize("x", [3, Fraction(1, 2), 0.5, None, b"1/2"])
    def test_parse_rat_takes_only_strings(self, x):
        with pytest.raises(TypeError):
            parse_rat(x)

    def test_vp(self):
        assert vp(Fraction(12), 2) == 2
        assert vp(Fraction(1, 9), 3) == -2
        assert vp(Fraction(5, 7), 3) == 0
        with pytest.raises(ZeroDivisionError):
            vp(0, 5)


class TestLocalDatum:
    def test_derived_valuations(self):
        loc = LocalDatum(5, e=2, f=3)
        assert loc.embeddings == 6

    @pytest.mark.parametrize("p", [1, 4, 9, 15])
    def test_rejects_composite(self, p):
        with pytest.raises(ValueError):
            LocalDatum(p)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            LocalDatum(3, e=0)


class TestIsPrime:
    def test_matches_trial_division_below_ten_to_the_fifth(self):
        assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if is_prime_by_trial_division(n)]

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051])
    def test_strong_pseudoprimes_are_composite(self, n):
        # strong pseudoprimes to the bases 2..7 and 2..23 respectively
        assert not is_prime(n) and not is_prime_by_trial_division(n)

    @pytest.mark.parametrize("p", [2**31 - 1, 10**14 + 31, 10**16 + 61, 2**61 - 1])
    def test_large_primes(self, p):
        assert is_prime(p)

    def test_refuses_at_the_limit(self):
        assert not is_prime(PRIME_LIMIT - 1)
        with pytest.raises(ValueError, match=str(PRIME_LIMIT)):
            is_prime(PRIME_LIMIT)


class TestWeightTable:
    def test_extension_accessor(self):
        w = WeightTable([[5, 2], [4, 0]])
        assert w.entry(1, 1) == 5 and w.entry(2, 2) == 0
        assert w.entry(1, -1) == -5 and w.entry(1, -2) == -2
        assert w.entry(1, 0) == 0 and w.entry(2, 0) == 0
        assert w.column_sum(1) == 9 and w.column_sum(-2) == -2

    def test_dominance_enforced(self):
        with pytest.raises(ValueError):
            WeightTable([[1, 2]])
        with pytest.raises(ValueError):
            WeightTable([[2, -1]])
        with pytest.raises(ValueError):
            WeightTable([[3, 1], [2]])

    def test_very_regular_examples(self):
        assert very_regular(WeightTable([[10, 4]]), 4)
        assert not very_regular(WeightTable([[10, 4]]), 5)
        assert very_regular(WeightTable([[0, 0]]), 0)

    def test_very_regular_scans_every_row(self):
        assert not very_regular(WeightTable([[9, 3], [4, 2]]), 3)
        assert very_regular(WeightTable([[9, 3], [7, 3]]), 3)
