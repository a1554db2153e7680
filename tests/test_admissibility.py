import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopecert.admissibility import (
    CERTIFIED,
    HYPOTHESIS_FAILED,
    PhiModuleDatum,
    admissible_candidates,
    alignment_check,
    candidate_passes,
    find_misaligned_candidate,
    hodge_number,
    hypothesis_margin,
    newton_above_hodge,
    newton_number,
)
from slopecert.errors import NotDistinct

D3 = PhiModuleDatum(1, 1, [-2, 0, 2], [[-2, 0, 2]])


def brute_newton_above_hodge(datum):
    """All-subsets oracle: Newton of any r slopes >= minimal Hodge of size r,
    with equality at full rank, checked independently of prefix sums."""
    n = datum.rank
    for r in range(1, n + 1):
        min_newton = min(
            sum(datum.slopes[i - 1] for i in sub) for sub in combinations(range(1, n + 1), r)
        )
        min_hodge = sum(datum.weight_mean(i) for i in range(1, r + 1))
        if r < n:
            if min_newton < min_hodge:
                return False
        elif min_newton != min_hodge:
            return False
    return True


def brute_candidates(datum):
    """Independent enumerator: try every subset and every increasing-glued
    bijection, verifying prefixes through the public newton/hodge numbers."""
    n = datum.rank
    m = datum.embeddings
    found = set()
    image_choices = {
        k: list(combinations(range(1, n + 1), k)) for k in range(1, n)
    }

    def glue(subset, images):
        comp = [i for i in range(1, n + 1) if i not in subset]
        comp_img = [j for j in range(1, n + 1) if j not in images]
        th = [0] * n
        for pos, i in enumerate(subset):
            th[i - 1] = images[pos]
        for pos, i in enumerate(comp):
            th[i - 1] = comp_img[pos]
        return tuple(th)

    def prefix_ok(part, theta):
        for x in range(1, len(part) + 1):
            head = part[:x]
            if newton_number(datum, head) < hodge_number(datum, head, theta):
                return False
        return newton_number(datum, part) == hodge_number(datum, part, theta)

    from itertools import product

    for k in range(1, n):
        for subset in combinations(range(1, n + 1), k):
            comp = tuple(i for i in range(1, n + 1) if i not in subset)
            for pick in product(image_choices[k], repeat=m):
                theta = tuple(glue(subset, im) for im in pick)
                if prefix_ok(subset, theta) and prefix_ok(comp, theta):
                    found.add((subset, theta))
    return found


class TestNumbers:
    def test_newton_examples(self):
        assert newton_number(D3, {1, 3}) == 0
        assert newton_number(D3, set()) == 0
        d = PhiModuleDatum(1, 1, [Fraction(1, 2), 3], [[0, 1]])
        assert newton_number(d, {1, 2}) == Fraction(7, 2)

    def test_hodge_examples(self):
        ident = (tuple(range(1, 4)),)
        assert hodge_number(D3, {2}, ident) == 0
        assert hodge_number(D3, {1, 3}, ident) == 0
        d = PhiModuleDatum(2, 1, [0, 1], [[0, 2], [0, 2]])
        assert hodge_number(d, {2}, ((1, 2), (1, 2))) == 2

    def test_newton_above_hodge_examples(self):
        assert newton_above_hodge(PhiModuleDatum(1, 1, [0, 3], [[0, 3]]))
        assert not newton_above_hodge(PhiModuleDatum(1, 1, [-1, 1], [[0, 0]]))
        assert newton_above_hodge(PhiModuleDatum(1, 1, [2], [[2]]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_newton_above_hodge_vs_bruteforce(self, n):
        rng = random.Random(n)
        for _ in range(120):
            e = rng.choice([1, 2])
            m = e * rng.choice([1, 2])
            kappa = [sorted(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]
            slopes = [Fraction(rng.randint(-8, 8), e) for _ in range(n)]
            if rng.random() < 0.5:
                # bias towards balanced data so both outcomes occur
                datum0 = PhiModuleDatum(e, 1, slopes, kappa)
                shift = sum(datum0.weight_mean(i) for i in range(1, n + 1)) - sum(slopes)
                slopes[-1] += shift
            datum = PhiModuleDatum(e, 1, slopes, kappa)
            assert newton_above_hodge(datum) == brute_newton_above_hodge(datum)


class TestCandidates:
    def test_example_candidates_present(self):
        cands = {(c.subset, c.theta) for c in admissible_candidates(D3)}
        ident = (tuple(range(1, 4)),)
        assert ((2,), ident) in cands
        assert ((1, 3), ident) in cands
        assert all(th == ident for (_, th) in cands)

    def test_rank_one_empty(self):
        assert admissible_candidates(PhiModuleDatum(1, 1, [2], [[2]])) == []

    def test_not_distinct(self):
        with pytest.raises(NotDistinct):
            admissible_candidates(PhiModuleDatum(1, 1, [0, 0], [[0, 0]]))

    def test_complement_symmetry_and_bruteforce_agreement(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.choice([2, 3, 4])
            e = rng.choice([1, 2])
            m = e * rng.choice([1, 2]) if e == 1 else e
            kappa = [sorted(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)]
            slopes = []
            seen = set()
            for i in range(1, n + 1):
                base = Fraction(sum(row[i - 1] for row in kappa), e)
                v = base + Fraction(rng.randint(-2, 2), e)
                while v in seen:
                    v += Fraction(1, e)
                seen.add(v)
                slopes.append(v)
            datum = PhiModuleDatum(e, 1, slopes, kappa)
            got = {(c.subset, c.theta) for c in admissible_candidates(datum)}
            assert got == brute_candidates(datum)
            # complement closure with the same glued theta
            full = set(range(1, n + 1))
            for subset, theta in got:
                comp = tuple(sorted(full - set(subset)))
                if 0 < len(comp) < n:
                    assert (comp, theta) in got

    def test_candidate_passes_requires_total_equality(self):
        datum = PhiModuleDatum(1, 1, [0, 1], [[-2, 0]])
        ident = ((1, 2),)
        # prefix holds (0 >= -2) but totals 1 != -2
        assert not candidate_passes(datum, (1,), ident)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_margin_matches_the_fraction_formula(data):
    """The margin, read from the slopes' integers over their common
    denominator, against min-gap / (e N) - max |slope - weight mean| on
    Fractions, for slopes of mixed denominators and several embeddings."""
    e, f, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2)), data.draw(st.integers(1, 5))
    slopes = data.draw(st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12)), min_size=n, max_size=n))
    rows = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(sorted), min_size=e * f, max_size=e * f))
    datum = PhiModuleDatum(e, f, slopes, rows)
    worst = max(abs(s - Fraction(sum(row[i] for row in rows), e)) for i, s in enumerate(slopes))
    assert datum.max_deviation == worst
    for tau, row in enumerate(rows, 1):
        expected = Fraction(min(b - a for a, b in zip(row, row[1:])), e * n) - worst if n > 1 else None
        assert hypothesis_margin(datum, tau) == expected


class TestAlignment:
    def test_certified_example(self):
        res = alignment_check(D3, 1)
        assert res.status == CERTIFIED
        assert res.margin == Fraction(2, 3)

    def test_hypothesis_failed_example(self):
        res = alignment_check(PhiModuleDatum(1, 1, [0, 0, 0], [[-2, 0, 2]]), 1)
        assert res.status == HYPOTHESIS_FAILED
        assert res.margin == Fraction(2, 3) - 2

    def test_forced_relaxed_system_has_misaligned_candidate(self):
        # the candidate search itself does not require distinct slopes
        forced = PhiModuleDatum(1, 1, [0, 0, 0], [[-2, 0, 2]])
        assert not forced.distinct_flag
        witness = find_misaligned_candidate(forced, 1)
        assert witness is not None
        assert witness.subset == (1,)
        assert witness.theta_row(1)[0] == 2

    def test_not_distinct_after_hypothesis(self):
        # hypothesis is checked first: non-distinct slopes outside the band
        # report HypothesisFailed, not NotDistinct
        res = alignment_check(PhiModuleDatum(1, 1, [0, 0, 0], [[-2, 0, 2]]), 1)
        assert res.status == HYPOTHESIS_FAILED
        # equal slopes inside the band: distinctness is the blocker
        with pytest.raises(NotDistinct):
            alignment_check(PhiModuleDatum(1, 1, [1, 1], [[0, 2]]), 1)

    def test_rank_one_vacuous(self):
        res = alignment_check(PhiModuleDatum(1, 1, [5], [[5]]), 1)
        assert res.status == CERTIFIED and res.margin is None

    def test_zero_gap_band(self):
        # tied tau-row: band is zero, nonzero deviation fails the hypothesis
        d = PhiModuleDatum(1, 2, [0, 1, 5], [[0, 0, 2], [0, 1, 2]])
        assert hypothesis_margin(d, 1) == -1
        assert alignment_check(d, 1).status == HYPOTHESIS_FAILED

    def test_tied_weights_do_not_fake_counterexamples(self):
        # zero gap with zero deviations: candidates permuting equal weights
        # are aligned by value, so the lemma is not falsified
        d = PhiModuleDatum(1, 2, [0, 1, 4], [[0, 0, 2], [0, 1, 2]])
        assert d.deviations() == (0, 0, 0)
        res = alignment_check(d, 1)
        assert res.status == CERTIFIED

    # The case ids keep the names of the searches this test once compared:
    # "python" is the plain-loop oracle and "numpy" the kernel.
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_backends_agree(self, backend):
        from kernel_oracle import candidate_masks, candidates_python, search_python

        from slopecert import kernels

        rng = random.Random(31)
        for _ in range(30):
            n = rng.choice([2, 3, 4])
            kappa = [sorted(rng.randint(-3, 3) for _ in range(n))]
            slopes = rng.sample(range(-6, 7), n)
            # close the total, or no candidate can pass and the checks are vacuous
            slopes[-1] += sum(kappa[0]) - sum(slopes)
            datum = PhiModuleDatum(1, 1, slopes, kappa)

            def search(require_misaligned):
                if backend == "python":
                    return search_python(datum.weights, slopes, 1, 1, 0, require_misaligned)
                if require_misaligned:
                    return kernels.find_candidate(datum.weights, slopes, 1, 1, 0)
                first = next(kernels.tables_for(datum.weights).candidates(slopes, 1, 1), None)
                return (False, 0, ()) if first is None else (True, *first)

            got = search(True)
            assert got == search_python(datum.weights, slopes, 1, 1, 0, True)
            ref = find_misaligned_candidate(datum, 1)
            assert got == ((True, *candidate_masks(ref)) if ref is not None else (False, 0, ()))
            # the full list, and its first element, against the oracle's
            want = list(candidates_python(datum.weights, slopes, 1, 1, 0, False))
            cands = [candidate_masks(c) for c in admissible_candidates(datum)]
            assert cands == want
            assert search(False) == ((True, *want[0]) if want else (False, 0, ()))

    def test_counterexample_never_in_band(self):
        # widened deviations that pass candidates must fail the hypothesis
        datum = PhiModuleDatum(1, 1, [1, 0], [[0, 1]])
        assert find_misaligned_candidate(datum, 1) is not None
        res = alignment_check(datum, 1)
        assert res.status == HYPOTHESIS_FAILED
