from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from irreducibility_oracle import so_irreducible_by_pairs, sp_irreducible_by_pairs
from orbit_oracle import refinement_orbit

from slopecert.errors import MixedResidue
from slopecert.principal import (
    UnramChar,
    completely_refinable,
    orbit_size,
    so_irreducible_sufficient,
    sp_irreducible,
)
from slopecert.weyl import group_order


def chars(q, *values):
    return [UnramChar(Fraction(v), q) for v in values]


class TestSpIrreducible:
    def test_examples(self):
        assert sp_irreducible(chars(3, 2))
        assert not sp_irreducible(chars(3, -1))  # order two
        assert not sp_irreducible(chars(3, 2, 6))  # ratio is nu

    def test_trivial_character_passes_order_condition(self):
        # order exactly two is excluded; order one is not
        assert sp_irreducible(chars(3, 1))

    def test_nu_excluded(self):
        assert not sp_irreducible(chars(3, Fraction(1, 3)))
        assert not sp_irreducible(chars(3, 3))

    def test_product_condition(self):
        # chi_1 chi_2 = 1/3 = nu
        assert not sp_irreducible(chars(3, 2, Fraction(1, 6)))

    def test_mixed_residue(self):
        with pytest.raises(MixedResidue):
            sp_irreducible([UnramChar(2, 3), UnramChar(2, 5)])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weyl_invariance(self, n):
        """Each Tadic condition set is stable under signed permutations."""
        grid = [Fraction(2), Fraction(1, 2), Fraction(-1), Fraction(3), Fraction(5)]
        for values in product(grid, repeat=n):
            base = sp_irreducible(chars(3, *values))
            for orb in refinement_orbit(chars(3, *values), "C"):
                assert sp_irreducible(chars(3, *orb)) == base


class TestSoSufficient:
    def test_examples(self):
        assert so_irreducible_sufficient(chars(3, 2, 5))
        assert not so_irreducible_sufficient(chars(3, 1, 2))  # chi^2 = 1
        assert not so_irreducible_sufficient(chars(3, 2, 6))  # ratio is q

    def test_implies_distinct_orbit(self):
        cs = chars(3, 2, 5)
        assert so_irreducible_sufficient(cs)
        assert orbit_size(cs, "D") == group_order("D", 2)


# +-1, two inverse pairs (one negative) and, drawn with repetition, repeats
POOL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(-1, 3)]


class TestRefinementOrbit:
    def test_oracle_rank_one(self):
        assert refinement_orbit(chars(3, 2), "C") == {(Fraction(2),), (Fraction(1, 2),)}
        assert refinement_orbit(chars(3, 1), "C") == {(Fraction(1),)}

    def test_rank_one(self):
        assert orbit_size(chars(3, 2), "C") == 2
        assert orbit_size(chars(3, 1), "C") == 1
        assert orbit_size(chars(3, 2), "D") == 1

    def test_type_d_rank_two(self):
        assert orbit_size(chars(3, 2, 3), "D") == 4

    @pytest.mark.parametrize("group", ["C", "D"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_the_weyl_walk(self, group, n):
        # a reordered tuple has the same orbit, so multisets cover every tuple
        for values in combinations_with_replacement(POOL, n):
            cs = chars(5, *values)
            assert orbit_size(cs, group) == len(refinement_orbit(cs, group)), values

    def test_orbit_size_divides_group_order(self):
        for values in [(2,), (1,), (2, 2), (2, Fraction(1, 2)), (2, 3)]:
            for group in ("C", "D"):
                n = len(values)
                assert group_order(group, n) % orbit_size(chars(5, *values), group) == 0

    def test_full_orbit_iff_values_and_inverses_distinct(self):
        assert orbit_size(chars(5, 2, 3), "C") == group_order("C", 2)
        assert orbit_size(chars(5, 2, Fraction(1, 2)), "C") < group_order("C", 2)

    def test_beyond_the_walk(self):
        # 2^10 10! elements; the Weyl walk did not finish in 60 s
        assert orbit_size(chars(3, *range(2, 12)), "C") == 2**10 * factorial(10) == 3_715_891_200
        assert orbit_size(chars(3, *range(2, 22)), "D") == 2**19 * factorial(20)
        assert orbit_size(chars(3, 1, *range(2, 21)), "D") == 2**19 * factorial(20)

    def test_group_validation(self):
        with pytest.raises(ValueError):
            orbit_size(chars(3, 2), "B")


class TestCompletelyRefinable:
    def test_delegation(self):
        assert completely_refinable(chars(3, 2), "C")
        assert not completely_refinable(chars(3, Fraction(1, 3)), "C")
        assert completely_refinable(chars(3, 2, 5), "D")

    def test_group_validation(self):
        with pytest.raises(ValueError):
            completely_refinable(chars(3, 2), "B")


@st.composite
def clustered_values(draw):
    """q and 1-8 values of the form +-q^a (b/c) on a small grid, so that
    values, products and ratios meet 1 and q^{+-1} often."""
    q = draw(st.sampled_from([2, 3, 4, 5, 9]))
    value = st.builds(
        lambda sign, a, b, c: sign * Fraction(q) ** a * Fraction(b, c),
        st.sampled_from([1, -1]), st.integers(-2, 2), st.integers(1, 3), st.integers(1, 3),
    )
    return q, draw(st.lists(value, min_size=1, max_size=8))


@settings(max_examples=400, deadline=None)
@given(clustered_values())
def test_counter_lookups_match_the_pairwise_oracle(q_values):
    q, values = q_values
    cs = [UnramChar(v, q) for v in values]
    assert sp_irreducible(cs) == sp_irreducible_by_pairs(values, q)
    assert so_irreducible_sufficient(cs) == so_irreducible_by_pairs(values, q)
