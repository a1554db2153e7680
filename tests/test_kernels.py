import weakref
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from kernel_oracle import candidate_masks, candidates_python, search_python

from slopecert import kernels
from slopecert.admissibility import (
    CERTIFIED,
    PhiModuleDatum,
    admissible_candidates,
    alignment_check,
    candidate_passes,
)


def _slopes(draw, kappa, e, denom):
    """Scaled slopes near the weight means, in order or reordered, on a grid
    of step 1/denom; their total is usually closed so that candidates pass often."""
    n = len(kappa[0])
    means = [denom * sum(r[i] for r in kappa) // e for i in range(n)]
    if draw(st.booleans()):
        means = draw(st.permutations(means))  # reordered slopes make misaligned witnesses
    devs = draw(st.lists(st.integers(-denom, denom), min_size=n, max_size=n))
    scaled = [mu + dev for mu, dev in zip(means, devs)]
    target, rem = divmod(denom * sum(map(sum, kappa)), e)
    if rem == 0 and draw(st.integers(0, 4)):
        scaled[-1] += target - sum(scaled)
    return scaled


@st.composite
def kernel_inputs(draw, max_rows=None, units=False):
    """(kappa, scaled slopes, e, denom) for the kernel; with ``max_rows``,
    a matrix of 1..max_rows slope vectors in place of one; with ``units``,
    e = denom = 1, the system the scan's flags answer."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 4))
    e = 1 if units else draw(st.sampled_from([1, 2]))
    denom = 1 if units else draw(st.sampled_from([1, 2, 3]))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(sorted)
    kappa = draw(st.lists(row, min_size=m, max_size=m))
    if max_rows is None:
        return kappa, _slopes(draw, kappa, e, denom), e, denom
    rows = [_slopes(draw, kappa, e, denom) for _ in range(draw(st.integers(1, max_rows)))]
    return kappa, rows, e, denom


def _moved(row, mask, img):
    """Whether the bijection that sends the subset's bits, ascending, to the
    image's, and the other bits to the others, changes a value of ``row``."""
    n = len(row)
    ordered = [[b for b in range(n) if x >> b & 1] + [b for b in range(n) if not x >> b & 1] for x in (mask, img)]
    return any(row[a] != row[b] for a, b in zip(*ordered))


def _search(kappa, scaled, e, denom, tau, require_misaligned):
    """``search_python``'s answer from the kernel: ``find_candidate``, or the
    first passing candidate of the listing when none need be misaligned."""
    if require_misaligned:
        return kernels.find_candidate(kappa, scaled, e, denom, tau)
    first = next(kernels.tables_for(kappa).candidates(scaled, e, denom), None)
    return (False, 0, ()) if first is None else (True, *first)


def _check_listing(kappa, scaled, e, denom):
    """The kernel's listing, each tau's misaligned part and ``find_candidate``
    against the oracle; returns the oracle's listing."""
    def first(listing):
        return (True, *listing[0]) if listing else (False, 0, ())

    want = list(candidates_python(kappa, scaled, e, denom, 0, False))
    got = list(kernels.tables_for(kappa).candidates(scaled, e, denom))
    assert got == want
    assert _search(kappa, scaled, e, denom, 0, False) == first(want)
    for tau in range(len(kappa)):
        misaligned = list(candidates_python(kappa, scaled, e, denom, tau, True))
        assert [c for c in got if _moved(kappa[tau], c[0], c[1][tau])] == misaligned
        assert kernels.find_candidate(kappa, scaled, e, denom, tau) == first(misaligned)
    return want


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
# a row without misaligned choices, between two other embeddings
@example(([[-2, 0], [2, 2], [-2, 1]], [-2, 3], 1, 1))
# repeated weights on both rows: four aligned candidates pass before the
# first misaligned one, for either tau
@example(([[-1, -1, 0], [0, 1, 1]], [2, 0, -2], 1, 1))
# a row that is not ascending: the first misaligned candidate moves values
# that the subset and its image hold as the same multiset
@example(([[-3, 3, -3]], [-3, 4, -4], 1, 1))
def test_kernel_matches_oracle(case):
    kappa, scaled, e, denom = case
    want = _check_listing(kappa, scaled, e, denom)
    # the full list through admissible_candidates, each candidate checked on
    # the Fraction definition, which shares no integer arithmetic with either
    if any(row != sorted(row) for row in kappa):
        return
    datum = PhiModuleDatum(e, 1, [Fraction(s, denom) for s in scaled], kappa)
    if not datum.distinct_flag:
        return
    cands = admissible_candidates(datum)
    assert [candidate_masks(c) for c in cands] == want
    assert all(candidate_passes(datum, c.subset, c.theta) for c in cands)


def _blocks(listing, n):
    """The size-k blocks of a listing of (subset_mask, image_masks), k = 1..n-1."""
    blocks = {k: [] for k in range(1, n)}
    for mask, img in listing:
        blocks[bin(mask).count("1")].append((mask, img))
    return blocks


@settings(max_examples=100, deadline=None)
@given(kernel_inputs())
def test_complement_duality(case):
    # the size n - k block is the size k block reversed and complemented, in
    # the oracle's listing and in the kernel's; so the first candidate has
    # size at most n // 2
    kappa, scaled, e, denom = case
    n = len(scaled)
    full = (1 << n) - 1
    tables = kernels.tables_for(kappa)
    listings = [candidates_python(kappa, scaled, e, denom, tau, True) for tau in range(len(kappa))]
    listings += [candidates_python(kappa, scaled, e, denom, 0, False), tables.candidates(scaled, e, denom)]
    for listing in listings:
        blocks = _blocks(listing, n)
        for k in range(1, n):
            dual = [(mask ^ full, tuple(i ^ full for i in img)) for mask, img in reversed(blocks[k])]
            assert blocks[n - k] == dual
    for tau, require_misaligned in [(t, True) for t in range(len(kappa))] + [(0, False)]:
        found, mask, _ = _search(kappa, scaled, e, denom, tau, require_misaligned)
        assert not found or bin(mask).count("1") <= n // 2


@st.composite
def certified_data(draw):
    """A datum whose slopes are its weight means; strictly ascending rows
    make them distinct, and every tau is certified."""
    m = draw(st.integers(1, 2))
    n = draw(st.integers(2, 6))
    e = draw(st.sampled_from([1, 2]))
    row = st.lists(st.integers(-4, 4), min_size=n, max_size=n, unique=True).map(sorted)
    kappa = draw(st.lists(row, min_size=m, max_size=m))
    return PhiModuleDatum(e, 1, [Fraction(sum(r[i] for r in kappa), e) for i in range(n)], kappa)


@settings(max_examples=60, deadline=None)
@given(certified_data())
def test_no_table_above_half_the_rank(datum):
    # nor does the misalignment filter test a subset above n // 2, though
    # the listing holds such subsets and no candidate is misaligned
    n = datum.rank
    tables = kernels.tables_for(datum.weights)
    tested, moves = [], kernels._moves

    def recording_moves(row, mask, img):
        tested.append(mask)
        return moves(row, mask, img)

    with mock.patch.object(kernels, "_moves", recording_moves):
        for tau in range(1, datum.embeddings + 1):
            assert alignment_check(datum, tau).status == CERTIFIED
    assert tested and max(mask.bit_count() for mask in tested) <= n // 2
    # e times the slopes are the column sums, and e = D is the system at e = D = 1
    sums = [sum(row[i] for row in datum.weights) for i in range(n)]
    assert tables.misaligned_flags([sums]).tolist() == [False]
    listed = admissible_candidates(datum)
    assert n < 3 or any(len(c.subset) > n // 2 for c in listed)
    assert set(tables._levels) == set(range(1, n // 2 + 1))


@settings(max_examples=30, deadline=None)
@given(kernel_inputs(max_rows=2), kernel_inputs(max_rows=2))
def test_tables_follow_the_slope_vector(case, other):
    # the tables keep the last slope vector's passing subsets for the next
    # tau; a new vector, denominator or weight table must not reuse them.
    # The calls on one weight table share the slot's tables.
    for kappa, rows, e, denom in (case, other, case):
        tables = kernels.tables_for(kappa)
        for scaled, d in [(s, denom) for s in rows + rows] + [(rows[0], denom + 1)]:
            for tau, require_misaligned in [(t, True) for t in range(len(kappa))] + [(0, False)]:
                want = search_python(kappa, scaled, e, d, tau, require_misaligned)
                assert _search(kappa, scaled, e, d, tau, require_misaligned) == want
        assert kernels.tables_for(kappa) is tables


@settings(max_examples=60, deadline=None)
@given(kernel_inputs(max_rows=12, units=True))
def test_misaligned_flags_match_oracle(case):
    # the flags ask about row 0; rotating the weight table puts each row there
    kappa, rows, _, _ = case
    for tau in range(len(kappa)):
        tables = kernels.CandidateTables(kappa[tau:] + kappa[:tau])
        want = [search_python(kappa, s, 1, 1, tau, True)[0] for s in rows]
        assert tables.misaligned_flags(rows).tolist() == want
        assert tables.misaligned_flags(np.array(rows, dtype=np.int64)).tolist() == want


def test_misaligned_flags_in_small_pieces(monkeypatch):
    # three join states per piece: every split runs
    kappa = [[0, 1, 3], [0, 1, 3], [-1, 1, 2]]
    rows = [[s0, s1, 10 - s0 - s1] for s0 in range(-3, 8) for s1 in range(-3, 8)]  # totals close
    want = [[search_python(kappa, s, 1, 1, tau, True)[0] for s in rows] for tau in range(3)]
    assert 0 < sum(map(sum, want)) < 3 * len(rows)
    monkeypatch.setattr(kernels, "_JOIN_STATES", 3)
    got = [kernels.CandidateTables(kappa[tau:] + kappa[:tau]).misaligned_flags(rows).tolist() for tau in range(3)]
    assert got == want


@settings(max_examples=60, deadline=None)
@given(kernel_inputs())
def test_passing_in_small_pieces(case):
    # three matches per piece: the passing test runs in pieces too
    kappa, scaled, e, denom = case
    with mock.patch.object(kernels, "_JOIN_STATES", 3):
        _check_listing(kappa, scaled, e, denom)


def test_matches_in_pieces(monkeypatch):
    # pieces of at most three states, which may split an owner's states;
    # owners without a match are skipped, and nothing matching yields nothing
    monkeypatch.setattr(kernels, "_JOIN_STATES", 3)
    totals = np.array([0, 1, 1, 2, 2, 2, 2, 5])
    pieces = [(o.tolist(), s.tolist()) for o, s in kernels._matches(totals, np.array([3, 1, 0, 9, 2, 1, 5]))]
    assert pieces == [([1, 1, 2], [1, 2, 0]), ([4, 4, 4], [3, 4, 5]), ([4, 5, 5], [6, 1, 2]), ([6], [7])]
    assert list(kernels._matches(totals, np.array([3, 4, 9]))) == []
    assert list(kernels._matches(totals, np.array([], dtype=np.int64))) == []


def test_misaligned_flags_edge_rows():
    tables = kernels.CandidateTables([[0, 1, 2]])
    assert tables.misaligned_flags([]).shape == (0,)
    assert tables.misaligned_flags(np.zeros((0, 3), dtype=np.int64)).shape == (0,)
    # one row beyond the int64 range refuses the matrix, as candidates refuses the row
    far = [2**62, 0, -(2**62) + 3]
    with pytest.raises(ValueError, match="int64") as want:
        list(tables.candidates(far, 1, 1))
    lowest = np.array([[2, 0, 1], [-(2**63), 0, 3]], dtype=np.int64)  # its absolute value wraps in int64
    for slopes in ([[2, 0, 1], far], np.array([[2, 0, 1], far], dtype=np.int64), [[0, 1, 2], [2**70, 0, 0]], lowest):
        with pytest.raises(ValueError, match="int64") as got:
            tables.misaligned_flags(slopes)
        assert str(got.value) == str(want.value)
    # N times the column-wide maximum is past the limit, but no row's sum is
    ok = [[2**61, 0, -(2**61) + 3], [0, 2**61, -(2**61) + 3], [0, 0, 3], [2, 0, 1]]
    assert tables.misaligned_flags(ok).tolist() == [search_python([[0, 1, 2]], s, 1, 1, 0)[0] for s in ok]
    for short in ([[0, 3]], [[]]):  # one empty row is a row, not an empty matrix
        with pytest.raises(ValueError, match="need 3 slopes"):
            tables.misaligned_flags(short)
    with pytest.raises(ValueError, match="need 3 slopes"):
        list(tables.candidates([0, 3], 1, 1))


def test_tables_belong_to_one_weight_table():
    # the slot holds one weight table's tables; a numpy table is compared by
    # value, as rows of tuples, so it hits the slot built from lists
    tables = kernels.tables_for([[0, 1, 3]])
    kappa = np.array([[0, 1, 3]])
    assert kernels.find_candidate(kappa, [1, 0, 3], 1, 1, 0) == (True, 1, (2,))
    assert kernels.tables_for(kappa) is tables
    assert kernels.tables_for(np.array([[0, 1, 4]])).weights == ((0, 1, 4),)
    assert kernels.tables_for(kappa) is not tables


def test_slot_drops_the_old_tables_first(monkeypatch):
    # the slot keeps the last weight table's tables between calls, and drops
    # them before another weight table's are built: the levels of one weight
    # table at most are alive
    kernels.find_candidate([[0, 1, 3]], [1, 0, 3], 1, 1, 0)
    old = weakref.ref(kernels.tables_for([[0, 1, 3]]))
    assert old() is not None and old()._levels
    alive, candidate_tables = [], kernels.CandidateTables

    def recording_tables(kappa):
        alive.append(old() is not None)
        return candidate_tables(kappa)

    monkeypatch.setattr(kernels, "CandidateTables", recording_tables)
    kernels.find_candidate([[0, 2, 3]], [0, 2, 3], 1, 1, 0)
    assert alive == [False] and old() is None


def test_input_beyond_int64_range_raises():
    # the weight total is -2**63 and the slope total 2**63, which wraps to
    # -2**63 in int64: without the guard the totals look equal and a
    # candidate is reported that the exact search does not find
    kappa, slopes = [[-(2**62), -(2**62), 0]], [0, 2**62, 2**62]
    assert search_python(kappa, slopes, 1, 1, 0, require_misaligned=False) == (False, 0, ())
    with pytest.raises(ValueError, match="int64"):
        _search(kappa, slopes, 1, 1, 0, require_misaligned=False)
    # slopes alone: e times their absolute sum reaches 2**62
    tables = kernels.CandidateTables([[0, 1, 2]])
    with pytest.raises(ValueError, match="int64"):
        list(tables.candidates([2**61, 0, -(2**61) + 3], 2, 1))
    assert list(tables.candidates([2**60, 0, -(2**60) + 3], 2, 1)) == []


def test_denominator_beyond_int64_range_raises():
    # e * prefix // denom runs in int64, so the denominator must fit
    kappa, slopes = [[-1, 1]], [1, -1]
    with pytest.raises(ValueError, match="denominator beyond the exact int64 range"):
        kernels.find_candidate(kappa, slopes, 1, 2**70, 0)
    denom = kernels._KEY_LIMIT - 1
    for require_misaligned in (True, False):
        want = search_python(kappa, slopes, 1, denom, 0, require_misaligned)
        assert _search(kappa, slopes, 1, denom, 0, require_misaligned) == want

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
