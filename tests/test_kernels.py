from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from kernel_oracle import candidate_masks, candidates_python, search_python

from slopecert import kernels
from slopecert.admissibility import PhiModuleDatum, admissible_candidates, candidate_passes


@st.composite
def kernel_inputs(draw):
    """(kappa, scaled slopes, e, denom) for the kernel.

    Slopes sit near the weight means, in order or reordered, on a grid of
    step 1/denom; their total is usually closed so that candidates pass often.
    """
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 4))
    e = draw(st.sampled_from([1, 2]))
    denom = draw(st.sampled_from([1, 2, 3]))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(sorted)
    kappa = draw(st.lists(row, min_size=m, max_size=m))
    means = [denom * sum(r[i] for r in kappa) // e for i in range(n)]
    if draw(st.booleans()):
        means = draw(st.permutations(means))  # reordered slopes make misaligned witnesses
    devs = draw(st.lists(st.integers(-denom, denom), min_size=n, max_size=n))
    scaled = [mu + dev for mu, dev in zip(means, devs)]
    target, rem = divmod(denom * sum(map(sum, kappa)), e)
    if rem == 0 and draw(st.integers(0, 4)):
        scaled[-1] += target - sum(scaled)
    return kappa, scaled, e, denom


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
# a row without misaligned choices, between two other embeddings
@example(([[-2, 0], [2, 2], [-2, 1]], [-2, 3], 1, 1))
def test_kernel_matches_oracle(case):
    kappa, scaled, e, denom = case
    tables = kernels.CandidateTables(kappa)  # shared by every tau, as callers do
    # without require_misaligned, tau plays no part
    for tau, require_misaligned in [(t, True) for t in range(len(kappa))] + [(0, False)]:
        want = list(candidates_python(kappa, scaled, e, denom, tau, require_misaligned))
        assert list(tables.candidates(scaled, e, denom, tau, require_misaligned)) == want
        got = kernels.find_candidate(kappa, scaled, e, denom, tau, require_misaligned, tables)
        assert got == ((True, *want[0]) if want else (False, 0, ()))
    # the full list through admissible_candidates, each candidate checked on
    # the Fraction definition, which shares no integer arithmetic with either
    datum = PhiModuleDatum(e, 1, [Fraction(s, denom) for s in scaled], kappa)
    if not datum.distinct_flag:
        return
    cands = admissible_candidates(datum, tables)
    assert [candidate_masks(c) for c in cands] == want
    assert all(candidate_passes(datum, c.subset, c.theta) for c in cands)


def test_tables_belong_to_one_weight_table():
    tables = kernels.CandidateTables([[0, 1]])
    with pytest.raises(ValueError):
        kernels.find_candidate([[0, 2]], [0, 2], 1, 1, 0, tables=tables)
    with pytest.raises(ValueError):
        admissible_candidates(PhiModuleDatum(1, 1, [0, 2], [[0, 2]]), tables)



def test_input_beyond_int64_range_raises():
    # the weight total is -2**63 and the slope total 2**63, which wraps to
    # -2**63 in int64: without the guard the totals look equal and a
    # candidate is reported that the exact search does not find
    kappa, slopes = [[-(2**62), -(2**62), 0]], [0, 2**62, 2**62]
    assert search_python(kappa, slopes, 1, 1, 0, require_misaligned=False) == (False, 0, ())
    with pytest.raises(ValueError, match="int64"):
        kernels.find_candidate(kappa, slopes, 1, 1, 0, require_misaligned=False)
    # slopes alone: e times their absolute sum reaches 2**62
    tables = kernels.CandidateTables([[0, 1, 2]])
    with pytest.raises(ValueError, match="int64"):
        list(tables.candidates([2**61, 0, -(2**61) + 3], 2, 1, 0, False))
    assert list(tables.candidates([2**60, 0, -(2**60) + 3], 2, 1, 0, False)) == []

@st.composite
def row_pairs(draw):
    """Two row sets; wide values overflow one packed key, so ranked packing runs."""
    n = draw(st.integers(1, 8))
    value = st.integers(-2, 2) | st.integers(-(1 << 29), 1 << 29)
    rows = st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=12)
    return draw(rows), draw(rows)


@settings(max_examples=100, deadline=None)
@given(row_pairs())
def test_sumset_is_the_set_of_sums(pair):
    a, b = (np.array(rows, dtype=np.int64) for rows in pair)
    rows = kernels._sumset(a, b)
    got = {tuple(map(int, r)) for r in rows}
    assert got == {tuple(x + y for x, y in zip(u, v)) for u in pair[0] for v in pair[1]}
    assert len(rows) == len(got) or len(b) == 1  # one row b is added, not deduplicated
