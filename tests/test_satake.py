import random
from fractions import Fraction

import pytest
from refinement_oracle import solve_back, transcribed

from slopecert.lattice import LocalDatum, WeightTable
from slopecert.satake import (
    RefinedSlopes,
    change_refinement,
    classicality_general,
    classicality_sp,
    frobenius_slopes,
    hodge_tate_weights,
    sp_delta_groups,
    zero_index,
)
from slopecert.weyl import identity, minus_identity, shift_cycle, weyl_elements

Q11 = LocalDatum(3, 1, 1)


def random_weights(rng, m, rank, top=12):
    rows = []
    for _ in range(m):
        row = sorted((rng.randint(0, top) for _ in range(rank)), reverse=True)
        rows.append(row)
    return WeightTable(rows)


def random_slopes(rng, rank, span=6, den=6):
    return RefinedSlopes(
        [Fraction(rng.randint(-span * den, span * den), den) for _ in range(rank)]
    )


def test_zero_index_tells_the_schemas_apart():
    assert (zero_index("C"), zero_index("D")) == (1, 0)
    w, phi = WeightTable([[2]]), RefinedSlopes([0])
    with pytest.raises(ValueError):
        zero_index("B")
    with pytest.raises(ValueError):
        frobenius_slopes(Q11, 1, w, phi, "B")
    with pytest.raises(ValueError):
        hodge_tate_weights(Q11, 1, w, "B")


class TestFrobeniusSlopes:
    def test_rank_one(self):
        got = frobenius_slopes(Q11, 1, WeightTable([[2]]), RefinedSlopes([0]), "C")
        assert got == (Fraction(-3), Fraction(0), Fraction(3))

    def test_rank_two(self):
        got = frobenius_slopes(Q11, 2, WeightTable([[2, 1]]), RefinedSlopes([0, 0]), "C")
        assert got == (Fraction(-4), Fraction(-2), Fraction(0), Fraction(2), Fraction(4))

    def test_collapsed(self):
        got = frobenius_slopes(Q11, 1, WeightTable([[0]]), RefinedSlopes([-1]), "C")
        assert got == (Fraction(0), Fraction(0), Fraction(0))

    def test_negation_closure_and_size(self):
        rng = random.Random(5)
        for schema, rank in (("C", 3), ("D", 4)):
            for _ in range(25):
                loc = LocalDatum(3, rng.choice([1, 2]), rng.choice([1, 2]))
                w = random_weights(rng, loc.embeddings, rank)
                phi = random_slopes(rng, rank)
                ms = frobenius_slopes(loc, rank, w, phi, schema)
                assert len(ms) == (2 * rank + 1 if schema == "C" else 2 * rank)
                assert tuple(sorted(-v for v in ms)) == ms
                if schema == "C":
                    assert sum(1 for v in ms if v == 0) % 2 == 1

    def test_total_slope_identity(self):
        rng = random.Random(6)
        for _ in range(25):
            loc = LocalDatum(5, rng.choice([1, 2]), rng.choice([1, 2]))
            w = random_weights(rng, loc.embeddings, 3)
            phi = random_slopes(rng, 3)
            ms = frobenius_slopes(loc, 3, w, phi, "C")
            positive_half = sum(v for v in ms if v > 0)
            direct = sum(
                (4 - i) * loc.f + phi.slope(4 - i) + Fraction(w.column_sum(i), loc.e)
                for i in range(1, 4)
            )
            assert positive_half == direct


class TestHodgeTateWeights:
    def test_symplectic_list(self):
        assert hodge_tate_weights(Q11, 2, WeightTable([[2, 1]]), "C") == ((-4, -2, 0, 2, 4),)
        assert hodge_tate_weights(Q11, 1, WeightTable([[0]]), "C") == ((-1, 0, 1),)

    def test_orthogonal_rho_shift(self):
        assert hodge_tate_weights(Q11, 2, WeightTable([[1, 1]]), "D") == ((-2, -1, 1, 2),)

    def test_orthogonal_zero_weight_only_from_zero_tail(self):
        assert 0 not in hodge_tate_weights(Q11, 2, WeightTable([[3, 1]]), "D")[0]
        assert 0 in hodge_tate_weights(Q11, 2, WeightTable([[3, 0]]), "D")[0]


class TestChangeRefinement:
    def test_minus_identity_rank_one(self):
        out = change_refinement(minus_identity("C", 1), Q11, WeightTable([[5]]), RefinedSlopes([-1]))
        assert out.values == (Fraction(-11),)

    def test_identity(self):
        out = change_refinement(identity("C", 3), Q11, WeightTable([[4, 2, 1]]), RefinedSlopes([1, 2, 3]))
        assert out.values == (Fraction(1), Fraction(2), Fraction(3))

    def test_shift_cycle_rank_two(self):
        out = change_refinement(shift_cycle(2), Q11, WeightTable([[3, 1]]), RefinedSlopes([0, 0]))
        assert out.values == (Fraction(3), Fraction(-3))

    @pytest.mark.parametrize("rank", [2, 3, 4])
    def test_shift_cycle_matches_instance_formulas(self, rank):
        """The sign-free rotation must reproduce the classical instance formulas:

        v(phi'_n) = v(phi_1) + (1-n) f + (1/e) sum (k_n - k_1)
        v(phi'_i) = v(phi_{i+1}) + f + (1/e) sum (k_{n-i} - k_{n-i+1}), i < n.
        """
        rng = random.Random(rank)
        for _ in range(20):
            loc = LocalDatum(3, rng.choice([1, 2]), rng.choice([1, 2]))
            w = random_weights(rng, loc.embeddings, rank)
            phi = random_slopes(rng, rank)
            out = change_refinement(shift_cycle(rank), loc, w, phi)
            e, f = loc.e, loc.f
            expect_top = phi.slope(1) + (1 - rank) * f + Fraction(
                w.column_sum(rank) - w.column_sum(1), e
            )
            assert out.slope(rank) == expect_top
            for i in range(1, rank):
                expect = phi.slope(i + 1) + f + Fraction(
                    w.column_sum(rank - i) - w.column_sum(rank - i + 1), e
                )
                assert out.slope(i) == expect

    def test_paper_sign_flip_exponent_convention(self):
        """paper_sign mode gives v(phi'_{n+1-i}) = -v(phi_{n+1-i}) + (2i+2n+2) f
        - (2/e) sum k_i, which differs from the invariance-derived exponent."""
        rng = random.Random(3)
        n = 3
        for _ in range(10):
            loc = LocalDatum(3, rng.choice([1, 2]), rng.choice([1, 2]))
            w = random_weights(rng, loc.embeddings, n)
            phi = random_slopes(rng, n)
            out = change_refinement(minus_identity("C", n), loc, w, phi, paper_sign=True)
            for i in range(1, n + 1):
                expect = (
                    -phi.slope(n + 1 - i)
                    + (2 * i + 2 * n + 2) * loc.f
                    - Fraction(2 * w.column_sum(i), loc.e)
                )
                assert out.slope(n + 1 - i) == expect

    def test_paper_sign_agrees_on_sign_free_elements(self):
        rng = random.Random(9)
        for _ in range(10):
            loc = LocalDatum(3, 1, 2)
            w = random_weights(rng, 2, 3)
            phi = random_slopes(rng, 3)
            a = change_refinement(shift_cycle(3), loc, w, phi)
            b = change_refinement(shift_cycle(3), loc, w, phi, paper_sign=True)
            assert a.values == b.values

    @pytest.mark.parametrize("schema,rank", [("C", 2), ("C", 3), ("D", 2), ("D", 4)])
    def test_multiset_invariance_and_involution(self, schema, rank):
        rng = random.Random(17)
        elems = list(weyl_elements(schema, rank))
        for _ in range(40):
            loc = LocalDatum(3, rng.choice([1, 2]), rng.choice([1, 2]))
            w = random_weights(rng, loc.embeddings, rank)
            phi = random_slopes(rng, rank)
            g = rng.choice(elems)
            moved = change_refinement(g, loc, w, phi)
            assert frobenius_slopes(loc, rank, w, moved, schema) == frobenius_slopes(
                loc, rank, w, phi, schema
            )
            back = change_refinement(g.inverse(), loc, w, moved)
            assert back.values == phi.values

    @pytest.mark.parametrize("schema", ["C", "D"])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_formula_matches_both_oracle_loops(self, schema, rank):
        """Every Weyl element, both conventions, five random data each."""
        rng = random.Random(100 * rank + ord(schema))
        for g in weyl_elements(schema, rank):
            for _ in range(5):
                loc = LocalDatum(3, rng.choice([1, 2, 3]), rng.choice([1, 2]))
                w = random_weights(rng, loc.embeddings, rank)
                phi = random_slopes(rng, rank)
                assert change_refinement(g, loc, w, phi).values == solve_back(g, loc, w, phi)
                assert change_refinement(g, loc, w, phi, paper_sign=True).values == transcribed(g, loc, w, phi)

    def test_paper_sign_breaks_invariance_on_flips(self):
        loc = Q11
        w = WeightTable([[5, 1]])
        phi = RefinedSlopes([0, 0])
        flip = minus_identity("C", 2)
        moved = change_refinement(flip, loc, w, phi, paper_sign=True)
        assert frobenius_slopes(loc, 2, w, moved, "C") != frobenius_slopes(loc, 2, w, phi, "C")


class TestClassicality:
    def test_sp_examples(self):
        assert classicality_sp(Q11, 1, WeightTable([[5]]), [11])
        assert not classicality_sp(Q11, 1, WeightTable([[5]]), [12])
        assert classicality_sp(Q11, 2, WeightTable([[10, 4]]), [Fraction(13, 2), 9])

    def test_general_formula(self):
        # bound is -(1+n_alpha) v_p(alpha(eta)): 6 for (5, -1), 12 for (5, -2)
        assert not classicality_general([[(5, -1)]], [11])
        assert classicality_general([[(5, -2)]], [11])
        assert classicality_general([[(0, 0)]], [-1])
        assert not classicality_general([[(0, 0)]], [0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sp_matches_general_instantiation(self, n):
        rng = random.Random(n * 11)
        for _ in range(150):
            loc = LocalDatum(3, rng.choice([1, 2]), rng.choice([1, 2]))
            w = random_weights(rng, loc.embeddings, n, top=8)
            mu = [Fraction(rng.randint(-4, 20), rng.choice([1, 2, 3])) for _ in range(n)]
            assert classicality_sp(loc, n, w, mu) == classicality_general(
                sp_delta_groups(loc, n, w), mu
            )
