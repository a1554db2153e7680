import weakref
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb
from operator import add
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
# weights near 2**60, inside the int64 range: packing s_0's keys once
# wrapped int64 and lost 2 of the 14 passing candidates
@example(([[-3 * 2**58, -1, 2**59, 3 * 2**58], [0, 2, 2**59, 3 * 2**58]], [-3 * 2**58, 2**60, 3 * 2**59, 1], 1, 1))
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
def repeated_row_inputs(draw):
    """(kappa, scaled slopes, e, denom, tau, twin): rows tau and twin of
    kappa are equal, the other rows drawn as ``kernel_inputs`` draws them."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(2, 4))
    e, denom = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2, 3]))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(sorted)
    kappa = draw(st.lists(row, min_size=m - 1, max_size=m - 1))
    tau = draw(st.integers(0, m - 2))
    twin = draw(st.integers(0, m - 1))
    kappa.insert(twin, kappa[tau])
    tau += twin <= tau
    return kappa, _slopes(draw, kappa, e, denom), e, denom, tau, twin


@settings(max_examples=80, deadline=None)
@given(repeated_row_inputs())
# the first misaligned candidate at tau and at its twin differ, their
# answers do not
@example(([[-1, 1, 3], [-3, 0, 3], [-1, 1, 3]], [2, 8, -4], 1, 1, 0, 2))
def test_equal_rows_are_misaligned_alike(case):
    # swapping the image choices of two equal rows keeps a candidate passing
    # and carries its misalignment from one row to the other: the replay
    # checks one tau per distinct row on this
    kappa, scaled, e, denom, tau, twin = case
    assert kappa[tau] == kappa[twin] and tau != twin
    want = search_python(kappa, scaled, e, denom, tau)[0]
    assert search_python(kappa, scaled, e, denom, twin)[0] == want
    assert kernels.find_candidate(kappa, scaled, e, denom, tau) == search_python(kappa, scaled, e, denom, tau)
    assert kernels.find_candidate(kappa, scaled, e, denom, twin)[0] == want


def test_listing_is_kept_only_once_read_to_its_end(monkeypatch):
    # a candidate at k = 1 is found without walking the size-2 subsets, and
    # that listing, stopped early, is not kept: a second call walks again
    # to the same answer.  A listing read to its end is kept, and a later
    # call on the same slope vector reads it without re-entering the walk
    walks, walked, walk, choices = [], [], kernels._Table.walk, kernels._Table.choices

    def recording_walk(self, S, e, denom, content):
        walks.append(tuple(S.tolist()))
        return walk(self, S, e, denom, content)

    def recording_choices(self, bound, t, j=0, acc=0, picked=()):
        if j == 0:
            walked.append(t)
        return choices(self, bound, t, j, acc, picked)

    monkeypatch.setattr(kernels._Table, "walk", recording_walk)
    monkeypatch.setattr(kernels._Table, "choices", recording_choices)
    kappa, slopes = [[0, 1, 3, 4], [0, 1, 3, 4]], [2, 0, 6, 8]
    want = list(candidates_python(kappa, slopes, 1, 1, 0, False))
    tables = kernels.tables_for(kappa)
    for _ in range(2):
        assert kernels.find_candidate(kappa, slopes, 1, 1, 1) == search_python(kappa, slopes, 1, 1, 1)
        assert tables._listing is None
    assert walks == [(2, 0, 6, 8)] * 2 and walked == [0, 0]
    assert list(tables.candidates(slopes, 1, 1)) == want
    assert len(walks) == 3 and 1 in walked and tables._listing is not None
    read = list(walked)
    assert list(tables.candidates(slopes, 1, 1)) == want
    assert kernels.find_candidate(kappa, slopes, 1, 1, 0) == search_python(kappa, slopes, 1, 1, 0)
    assert len(walks) == 3 and walked == read
    # another slope vector, aligned, walks afresh to its end and replaces
    # the finished listing
    assert kernels.find_candidate(kappa, [0, 2, 6, 8], 1, 1, 0) == search_python(kappa, [0, 2, 6, 8], 1, 1, 0)
    assert len(walks) == 4 and tables._listing[0] == ((0, 2, 6, 8), 1, 1, 1)


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
    assert kernels.first_misaligned([datum.weights])([sums], [0]).tolist() == [[0, 0]]
    listed = admissible_candidates(datum)
    assert n < 3 or any(len(c.subset) > n // 2 for c in listed)
    # a stack of one table, labelled by every size up to n // 2 and no
    # other, and so are s_0 and its suffix sums, whose keys lead with the label
    table = tables.table
    assert table.size.tolist() == [k for k in range(1, n // 2 + 1) for _ in range(comb(n, k))]
    assert table.label.tolist() == (table.size - 1).tolist() and table.hodge.shape[1] == len(table.size)
    assert len(table.suffix) == datum.embeddings + 1
    for _, keys, totals in table.suffix:
        assert set((keys // totals.size).tolist()) == set(range(n // 2))


def _plain_choices(n):
    """``kernels._choices`` by Python loops over the subsets."""
    ins = [t for k in range(1, n // 2 + 1) for t in combinations(range(n), k)]
    pos = np.array([list(t) + [b for b in range(n) if b not in t] for t in ins], dtype=np.int64).reshape(len(ins), n)
    sizes = np.array([len(t) for t in ins], dtype=np.int64)
    starts = np.searchsorted(sizes, np.arange(1, n // 2 + 2)).tolist()
    return pos, tuple(sum(1 << b for b in t) for t in ins), starts, sizes


@pytest.mark.parametrize("n", range(15))
def test_choices_are_the_plain_subsets(n):
    pos, masks, starts, sizes = kernels._choices(n)
    want_pos, want_masks, want_starts, want_sizes = _plain_choices(n)
    assert pos.dtype == sizes.dtype == np.int64 and pos.shape == want_pos.shape
    assert (pos == want_pos).all() and (sizes == want_sizes).all()
    assert masks == want_masks and all(type(mask) is int for mask in masks)
    assert starts == want_starts
    assert not pos.flags.writeable and not sizes.flags.writeable


@settings(max_examples=30, deadline=None)
@given(kernel_inputs(max_rows=2), kernel_inputs(max_rows=2))
def test_tables_follow_the_slope_vector(case, other):
    # the tables keep the last slope vector's listing for the next tau; a
    # new vector, denominator or weight table must not reuse it.
    # The calls on one weight table share the slot's tables.  The oracle
    # answers each distinct question once
    oracle = {}
    for kappa, rows, e, denom in (case, other, case):
        tables = kernels.tables_for(kappa)
        for scaled, d in [(s, denom) for s in rows + rows] + [(rows[0], denom + 1)]:
            for tau, require_misaligned in [(t, True) for t in range(len(kappa))] + [(0, False)]:
                key = (repr(kappa), tuple(scaled), e, d, tau, require_misaligned)
                if key not in oracle:
                    oracle[key] = search_python(kappa, scaled, e, d, tau, require_misaligned)
                assert _search(kappa, scaled, e, d, tau, require_misaligned) == oracle[key]
        assert kernels.tables_for(kappa) is tables


@st.composite
def content_inputs(draw):
    """(kappa, c, scaled slopes, e, denom): the slopes near the weight means
    of c * kappa, c in 2..7, over m = 1..3 embeddings and N = 2..6 (m <= 2
    at N = 6, where the oracle takes seconds).  Half the tables have every
    row symmetric, of total 0, as every replay datum's has."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3 if n < 6 else 2))
    c = draw(st.integers(2, 7))
    e, denom = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2, 3]))
    if draw(st.booleans()):
        half = st.lists(st.integers(0, 3), min_size=n // 2, max_size=n // 2)
        kappa = [sorted(h + [-v for v in h] + [0] * (n % 2)) for h in draw(st.lists(half, min_size=m, max_size=m))]
    else:
        row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(sorted)
        kappa = draw(st.lists(row, min_size=m, max_size=m))
    return kappa, c, _slopes(draw, [[c * v for v in row] for row in kappa], e, denom), e, denom


@settings(max_examples=40, deadline=None)
@given(content_inputs())
@example(([[-2, -1, 1, 2]], 3, [3, -6, 6, -3], 1, 1))
def test_weight_tables_share_a_table_up_to_content(case):
    # kappa and c * kappa share one slot object and one table, and each is
    # answered for itself: the same (S, e, D) is asked of both, which at
    # total 0 passes both totals tests, so a kept listing keyed without the
    # content would answer c * kappa with kappa's.  The subsets that the
    # floored-totals filter drops hold no candidate of the oracle's
    kappa, c, scaled, e, denom = case
    dropped, passing = set(), kernels._Table.passing

    def recording_passing(self, bound):
        k = self.size
        low = bound[np.arange(len(k)), k - 1] + bound[:, -1] < self.kappas.sum()
        dropped.update(self.masks[r] for r in np.flatnonzero(low))
        return passing(self, bound)

    tables = kernels.tables_for(kappa)
    with mock.patch.object(kernels._Table, "passing", recording_passing):
        for K in (kappa, [[c * v for v in row] for row in kappa]):
            assert kernels.tables_for(K) is tables
            want = list(candidates_python(K, scaled, e, denom, 0, False))
            assert list(tables.candidates(scaled, e, denom)) == want
            for tau, row in enumerate(K):
                misaligned = [cand for cand in want if _moved(row, cand[0], cand[1][tau])]
                first = (True, *misaligned[0]) if misaligned else (False, 0, ())
                assert kernels.find_candidate(K, scaled, e, denom, tau) == first
            assert not dropped & {mask for mask, _ in want}
            dropped.clear()


def _rotations(kappa, rows):
    """(kappas, slopes, labels): every rotation of ``kappa`` in one stack,
    each with every row of ``rows``, the labels interleaved.  The flags ask
    about row 0, and the rotation labelled tau puts row tau there."""
    m = len(kappa)
    kappas = [kappa[tau:] + kappa[:tau] for tau in range(m)]
    return kappas, [s for s in rows for _ in range(m)], [tau for _ in rows for tau in range(m)]


def _witness(found):
    """(subset mask, row-0 image mask) of a ``find_candidate`` answer, or
    (0, 0) when it found nothing: what ``first_misaligned`` returns."""
    ok, mask, img = found
    return [mask, img[0]] if ok else [0, 0]


def _check_first_misaligned(kappas, slopes, labels):
    """``first_misaligned`` against ``find_candidate`` and the oracle, each
    on the vector's own weight table at tau = 0; returns the oracle's.
    ``find_candidate`` runs table by table, so the slot builds each once."""
    want = [_witness(search_python(kappas[t], s, 1, 1, 0)) for s, t in zip(slopes, labels)]
    for v in sorted(range(len(labels)), key=labels.__getitem__):
        assert _witness(kernels.find_candidate(kappas[labels[v]], slopes[v], 1, 1, 0)) == want[v]
    assert kernels.first_misaligned(kappas)(slopes, labels).tolist() == want
    return want


@settings(max_examples=60, deadline=None)
@given(kernel_inputs(max_rows=12, units=True))
def test_misaligned_flags_match_oracle(case):
    # the rotation labelled tau puts row tau at row 0
    kappa, rows, _, _ = case
    kappas, slopes, labels = _rotations(kappa, rows)
    want = _check_first_misaligned(kappas, slopes, labels)
    K, S = np.array(kappas, dtype=np.int64), np.array(slopes, dtype=np.int64)
    assert kernels.first_misaligned(K)(S, np.array(labels)).tolist() == want


@st.composite
def flag_stacks(draw):
    """(kappas, slopes, labels): 2..5 weight tables of one shape, rows
    unequal, one of them given no slope vector; the vectors' labels in any
    order, their totals mostly closed."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(2, 4))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(sorted)
    kappas = draw(st.lists(st.lists(row, min_size=m, max_size=m), min_size=2, max_size=5))
    idle = draw(st.integers(0, len(kappas) - 1))
    labels = draw(st.lists(st.integers(0, len(kappas) - 1).filter(lambda t: t != idle), max_size=16))
    return kappas, [_slopes(draw, kappas[t], 1, 1) for t in labels], labels


@settings(max_examples=60, deadline=None)
@given(flag_stacks())
@example((
    [[[0, 1, 3]], [[0, 0, 0]], [[-3, 1, 2]], [[1, 2, 3]]],
    [[1, 0, 3], [4, 0, -4], [0, 1, 3], [0, 1, 5], [1, -1, 0]],
    [0, 2, 0, 2, 1],
))
def test_misaligned_flags_on_a_stack_match_oracle(case):
    # several weight tables in one call; a table without vectors, one whose
    # row 0 moves no value, and vectors whose totals do not close
    kappas, slopes, labels = case
    want = _check_first_misaligned(kappas, slopes, labels)
    with mock.patch.object(kernels, "_JOIN_STATES", 3):
        assert kernels.first_misaligned(kappas)(slopes, labels).tolist() == want


def test_misaligned_flags_in_small_pieces(monkeypatch):
    # three join states per piece: every split runs, pieces cross from one
    # table's vectors to the next's, and a row's pairs span several pieces
    kappa = [[0, 1, 3], [0, 1, 3], [-1, 1, 2]]
    rows = [[s0, s1, 10 - s0 - s1] for s0 in range(-3, 8) for s1 in range(-3, 8)]  # totals close
    kappas, slopes, labels = _rotations(kappa, rows)
    want = [_witness(search_python(kappas[t], s, 1, 1, 0)) for s, t in zip(slopes, labels)]
    assert 0 < sum(w != [0, 0] for w in want) < len(want)
    assert len({tuple(w) for w in want}) > 2  # witnesses other than the first pair
    monkeypatch.setattr(kernels, "_JOIN_STATES", 3)
    assert kernels.first_misaligned(kappas)(slopes, labels).tolist() == want


def _rows_of(rows, labels, label):
    return set(map(tuple, rows[labels == label].tolist()))


def _keyed_rows_of(keyed, label):
    """The rows of ``label`` in a keyed set (rows, keys, totals)."""
    rows, keys, totals = keyed
    return _rows_of(rows, keys // totals.size, label)


@settings(max_examples=60, deadline=None)
@given(flag_stacks())
def test_stack_reads_as_each_table_alone(case):
    # under table t's labels, the vectors and every suffix sum of a stack
    # hold those of table t built alone, also with three pairs per piece
    kappas = np.array(case[0], dtype=np.int64)
    g, m, n = kappas.shape
    half = n // 2
    for pieces in (kernels._JOIN_STATES, 3):
        with mock.patch.object(kernels, "_JOIN_STATES", pieces):
            stack = kernels._Table(kappas)
            sums = list(stack.sums())
            assert len(sums) == m
            for _, keys, totals in sums:
                labels = (keys // totals.size).tolist()
                assert keys.tolist() == sorted(keys.tolist()) and set(labels) == set(range(g * half))
            for t in range(g):
                alone = kernels._Table(kappas[t : t + 1])
                for k in range(half):
                    label = t * half + k
                    for j in range(m):
                        got = _rows_of(stack.hodge[j], stack.label, label)
                        assert got and got == _rows_of(alone.hodge[j], alone.label, k)
                    for keyed, own in zip(sums, alone.sums(), strict=True):
                        assert _keyed_rows_of(keyed, label) == _keyed_rows_of(own, k)


def test_flag_pass_keeps_only_s_1(monkeypatch):
    # when the join first runs, s_3 and s_2 are gone: the flag pass keeps the
    # last suffix sum alone, not every one as the listing's table does
    kappa = [[0, 1, 3], [0, 1, 3], [-1, 1, 2]]
    rows = [[s0, s1, 10 - s0 - s1] for s0 in range(-3, 8) for s1 in range(-3, 8)]  # totals close
    kappas, slopes, labels = _rotations(kappa, rows)
    want = [_witness(search_python(kappas[t], s, 1, 1, 0)) for s, t in zip(slopes, labels)]
    sums, matches = kernels._Table.sums, kernels._matches
    yielded, alive = [], []

    def recording_sums(self, last=1):
        for rows, keys, totals in sums(self, last):
            yielded.append(weakref.ref(rows))
            yield rows, keys, totals

    def checking_matches(keys, target):
        if not alive:
            alive.append([ref() is not None for ref in yielded])
        return matches(keys, target)

    monkeypatch.setattr(kernels._Table, "sums", recording_sums)
    monkeypatch.setattr(kernels, "_matches", checking_matches)
    assert kernels.first_misaligned(kappas)(slopes, labels).tolist() == want
    assert len(yielded) == 3 and alive and not any(alive[0][:-1])


def _plain_vectors(row, k):
    """Per k-subset of positions, lexicographic: the inside prefix sums of
    ``row`` at the subset, then the outside prefix sums at the rest."""
    out = []
    for inside in combinations(range(len(row)), k):
        outside = [b for b in range(len(row)) if b not in inside]
        out.append(tuple(accumulate(row[b] for b in inside)) + tuple(accumulate(row[b] for b in outside)))
    return out


def _plain_suffix_sums(kappas):
    """Per level j = m..0, {(label, outside total): rows} of every sum over
    embeddings j..m-1 of one vector per embedding, by plain loops."""
    g, m, n = len(kappas), len(kappas[0]), len(kappas[0][0])
    levels = []
    for j in range(m, -1, -1):
        level = {}
        for t in range(g):
            for k in range(1, n // 2 + 1):
                sums = {(0,) * n}
                for row in kappas[t][j:]:
                    sums = {tuple(map(add, v, w)) for v in _plain_vectors(row, k) for w in sums}
                for w in sums:
                    level.setdefault((t * (n // 2) + k - 1, w[-1]), set()).add(w)
        levels.append(level)
    return levels


@st.composite
def run_stacks(draw):
    """1..3 weight tables of m <= 4 rows of N <= 5 weights in which row
    j + 1 repeats row j at the same j in every table, or in all but one."""
    g, m, n = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(2, 5))
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    repeats = draw(st.lists(st.booleans(), min_size=m - 1, max_size=m - 1))
    kappas = []
    for _ in range(g):
        rows = [draw(row)]
        for repeat in repeats:
            rows.append(rows[-1] if repeat else draw(row))
        kappas.append(rows)
    if draw(st.booleans()):  # one table's row breaks a run of the others
        kappas[draw(st.integers(0, g - 1))][draw(st.integers(0, m - 1))] = draw(row)
    return kappas


@settings(max_examples=80, deadline=None)
@given(run_stacks())
# three alike rows, then a row that differs in one table only
@example([[[0, 1, 1, 2], [0, 1, 1, 2], [0, 1, 1, 2], [-1, 0, 0, 3]], [[0, 0, 1, 1]] * 4])
def test_suffix_sums_are_the_plain_sumsets(kappas):
    # where rows repeat, s_j pairs only non-decreasing choices; every level
    # is still the set a plain loop over every choice makes, per (label,
    # outside total), also with three pairs per piece
    want = _plain_suffix_sums(kappas)
    for pieces in (kernels._JOIN_STATES, 3):
        with mock.patch.object(kernels, "_JOIN_STATES", pieces):
            levels = list(kernels._Table(np.array(kappas, dtype=np.int64)).sums(0))
        assert len(levels) == len(want)
        for (rows, keys, totals), level in zip(levels, want):
            got = {}
            for row, key in zip(map(tuple, rows.tolist()), keys.tolist()):
                got.setdefault((key // totals.size, int(totals[key % totals.size])), set()).add(row)
            assert got == level


def test_alike_rows_pair_only_non_decreasing_choices(monkeypatch):
    # four alike rows of three weights whose multiset sums are all distinct:
    # per label, s_j keeps one pair per non-decreasing choice sequence, each
    # i <= top(w), and so as many pairs as multisets of size m - j
    kappas = np.array([[[1, 5, 25]] * 4, [[-25, -5, -1]] * 4], dtype=np.int64)
    pairs, kept = kernels._pairs, []

    def recording_pairs(a, a_labels, b, b_labels, top):
        i, j = pairs(a, a_labels, b, b_labels, top)
        if top is None:  # s_m: every pair
            top = np.searchsorted(a_labels, b_labels, side="right") - 1
        count = int((top - np.searchsorted(a_labels, b_labels) + 1).sum())
        assert (i <= top[j]).all() and len(i) == count
        kept.append(count)
        return i, j

    monkeypatch.setattr(kernels, "_pairs", recording_pairs)
    levels = list(kernels._Table(kappas).sums(0))
    assert [len(rows) for rows, _, _ in levels] == [2, 6, 12, 20, 30]
    assert kept == [2 * comb(3 + r - 1, r) for r in range(1, 5)]  # not 6, 18, 36, 60, every ordering


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
    kappas = [[[0, 1, 2]], [[-1, 0, 4]]]
    flags = kernels.first_misaligned
    assert flags(kappas)([], []).shape == (0, 2)
    assert flags(kappas)(np.zeros((0, 3), dtype=np.int64), np.zeros(0, dtype=np.intp)).shape == (0, 2)
    # one row beyond the int64 range refuses the matrix, as candidates refuses the row
    far = [2**62, 0, -(2**62) + 3]
    with pytest.raises(ValueError, match="int64") as want:
        list(kernels.CandidateTables([[0, 1, 2]]).candidates(far, 1, 1))
    lowest = np.array([[2, 0, 1], [-(2**63), 0, 3]], dtype=np.int64)  # its absolute value wraps in int64
    for slopes in ([[2, 0, 1], far], np.array([[2, 0, 1], far], dtype=np.int64), [[0, 1, 2], [2**70, 0, 0]], lowest):
        with pytest.raises(ValueError, match="int64") as got:
            flags(kappas)(slopes, [0, 1])
        assert str(got.value) == str(want.value)
    # so does one weight table beyond it, as the tables of that table refuse it
    for table in ([[2**61, 2**61, 3]], [[-(2**63), 0, 3]], [[0, 0, 2**70]]):
        with pytest.raises(ValueError, match="int64") as want:
            kernels.CandidateTables(table)
        for stack in (kappas + [table], np.array(kappas + [table], dtype=object)):
            with pytest.raises(ValueError, match="int64") as got:
                flags(stack)([[0, 1, 2]], [0])
            assert str(got.value) == str(want.value)
    # N times the column-wide maximum is past the limit, but no row's sum is
    ok = [[2**61, 0, -(2**61) + 3], [0, 2**61, -(2**61) + 3], [0, 0, 3], [2, 0, 1]]
    assert flags(kappas)(ok, [0, 0, 0, 0]).tolist() == [_witness(search_python([[0, 1, 2]], s, 1, 1, 0)) for s in ok]
    wide = [[[0, 3, 2**61]], [[0, 1, 2]]]  # likewise for the weights
    assert flags(wide)([[0, 1, 2], [1, 0, 2]], [1, 1]).tolist() == [[0, 0], [1, 2]]
    for short in ([[0, 3]], [[]]):  # one empty row is a row, not an empty matrix
        with pytest.raises(ValueError, match="need 3 slopes"):
            flags(kappas)(short, [0])
    with pytest.raises(ValueError, match="need 3 slopes"):
        list(kernels.CandidateTables([[0, 1, 2]]).candidates([0, 3], 1, 1))
    # N = 1 has no pair, so nothing is flagged; its rows are still checked
    single = flags([[[0]], [[3]]])
    assert single([[0], [3], [5]], [0, 1, 0]).tolist() == [[0, 0]] * 3 and single([], []).shape == (0, 2)
    with pytest.raises(ValueError, match="int64"):
        single([[0], [2**70]], [0, 1])
    with pytest.raises(ValueError, match="need 1 slopes"):
        single([[0, 3]], [0])


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
    # them before another weight table's are built, listing memo and all:
    # the table of one weight table at most is alive.  Slopes equal to the
    # weights are aligned, so the call reads the listing to its end
    assert kernels.find_candidate([[0, 1, 3]], [0, 1, 3], 1, 1, 0) == (False, 0, ())
    old = weakref.ref(kernels.tables_for([[0, 1, 3]]))
    assert old() is not None and "table" in old().__dict__ and old()._listing
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


def test_admission_boundary_at_every_entry():
    # at each of the four kernel entries a row whose scaled sum of |v| is
    # 2**62 - 1 is admitted and one of 2**62 refused, with one message; an
    # entry of 2**63, just past int64, is refused alike, not overflowed
    with pytest.raises(ValueError, match="int64") as want:
        kernels.CandidateTables([[2**61, 0, 2**61]])

    def refused(call):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value)

    # a weight table is one row over its embeddings, and a stack one per table
    below, at = [[0, 2**61], [-(2**61) + 1, 0]], [[0, 2**61], [-(2**61), 0]]
    assert kernels.CandidateTables(below).kappa.tolist() == below
    refused(lambda: kernels.CandidateTables(at))
    refused(lambda: kernels.CandidateTables([[0, 1, 2**63]]))
    assert kernels.first_misaligned([[[0, 1]] * 2, below])([[1, 0]], [0]).tolist() == [[0, 0]]
    refused(lambda: kernels.first_misaligned([[[0, 1]] * 2, at]))
    refused(lambda: kernels.first_misaligned([[[0, 1, 2**63]]]))
    # the slopes of ``candidates`` scaled by e
    tables = kernels.CandidateTables([[0, 1, 2]])
    assert list(tables.candidates([(2**62 - 1) // 3, 0, 0], 3, 1)) == []
    refused(lambda: list(tables.candidates([2**60, 0, 0], 4, 1)))
    refused(lambda: list(tables.candidates([0, 1, 2**63], 1, 1)))
    # each row of the flag pass's slopes alone
    flags = kernels.first_misaligned([[[0, 1, 2]]])
    assert flags([[2**61, 0, -(2**61) + 1], [2, 0, 1]], [0, 0]).tolist() == [[0, 0], [1, 4]]
    refused(lambda: flags([[2, 0, 1], [2**61, 0, -(2**61)]], [0, 0]))
    refused(lambda: flags([[0, 1, 2**63]], [0]))
    # a uint64 array past int64 is refused too, not wrapped to (-1, 0, 4)
    wrapped = np.array([[2**64 - 1, 0, 4]], dtype=np.uint64)
    refused(lambda: kernels.CandidateTables(wrapped))
    refused(lambda: kernels.first_misaligned(wrapped[None]))
    refused(lambda: list(tables.candidates(wrapped[0], 1, 1)))
    refused(lambda: flags(wrapped, [0]))
    assert flags(np.array([[2**62 - 1, 0, 0]], dtype=np.uint64), [0]).tolist() == [[0, 0]]


def test_weight_table_is_admitted_before_it_is_reduced(monkeypatch):
    # 2**60 * [[0, 2, 2]] is refused, though its reduced table [[0, 1, 1]]
    # is inside the range, whether the slot holds that table or not; a
    # multiple just inside the range shares the slot and is answered exactly
    with pytest.raises(ValueError, match="int64") as want:
        kernels.CandidateTables([[0, 2**61, 2**61]])
    monkeypatch.setattr(kernels, "_slot", None)
    for held in (None, [[0, 1, 1]]):
        if held:
            kernels.tables_for(held)
        with pytest.raises(ValueError) as got:
            kernels.tables_for([[0, 2**61, 2**61]])
        assert str(got.value) == str(want.value)
    tables, big = kernels.tables_for([[0, 1, 1]]), [[0, 2**61 - 1, 2**61 - 1]]
    assert kernels.tables_for(big) is tables and tables.content == 2**61 - 1
    slopes = [2**61 - 1, 0, 2**61 - 1]
    assert list(tables.candidates(slopes, 1, 1)) == list(candidates_python(big, slopes, 1, 1, 0, False)) != []


@st.composite
def labelled_rows(draw):
    """(a, a_labels, b, b_labels): rows of every label in each of ``a`` and
    ``b``, by label, and not alike in number; wide values overflow one
    packed key, so ranked packing runs.  Rows have N >= 2 coordinates, as
    every table's vectors do."""
    n = draw(st.integers(2, 8))
    g = draw(st.integers(1, 4))
    value = st.integers(-2, 2) | st.integers(-(1 << 29), 1 << 29)
    vec = st.lists(value, min_size=n, max_size=n)
    a_labels = sorted(list(range(g)) + draw(st.lists(st.integers(0, g - 1), max_size=10)))
    b_labels = sorted(list(range(g)) + draw(st.lists(st.integers(0, g - 1), max_size=10)))
    rows = [draw(st.lists(vec, min_size=len(t), max_size=len(t))) for t in (a_labels, b_labels)]
    return rows[0], a_labels, rows[1], b_labels


B60 = 2**60
WIDE = [0, 1, B60, B60 + 1, 2**59, 3 * 2**58, 2**62 - 1, -(2**62) + 1]


@settings(max_examples=100, deadline=None)
@given(labelled_rows())
# a first coordinate so wide that the label fills the first packed key alone
@example(([[0, 1], [B60, 0], [5, 5]], [0, 0, 1], [[0, 0], [B60, 3], [1, 1]], [0, 0, 1]))
# every coordinate wide, so each makes its own packed key, ranked in turn
@example(([[2**40, -(2**40), 7], [0, 2**40, -3], [1, 1, 1]], [0, 1, 1], [[2**40, 0, 1], [-(2**40), 5, 0], [2, 2, 2]], [0, 1, 1]))
# coordinates so wide that, after a rank, the number of pairs times one
# coordinate's span passes int64: packed as digits, where a rank times the
# span used to wrap and merge distinct rows
@example((
    [[WIDE[i % 8], WIDE[(3 * i + 1) % 8], WIDE[(5 * i + 2) % 8]] for i in range(7)], [0, 0, 0, 1, 1, 1, 1],
    [[WIDE[(i + 4) % 8], WIDE[(7 * i) % 8], WIDE[(i * i) % 8]] for i in range(6)], [0, 0, 1, 1, 1, 1],
))
# in pieces of three pairs, label 0 pairs alone with its one row b
@example(([[0, 0], [0, 0], [0, 0], [0, 0]], [0, 0, 0, 1], [[0, 0], [0, 0], [0, 0]], [0, 1, 1]))
# the last coordinate alone spans past _KEY_LIMIT // pairs, so it is ranked:
# as base-2**57 digits, 2**57 - 1 + 2**57 - 1 would pack above 2**57 + 0
@example(([[0, 0], [1, 2**57 - 1], [0, 2**57], [1, 2**58]], [0] * 4, [[0, 2**57 - 1], [1, 0], [0, 2**58]], [0] * 3))
def test_sumset_is_the_set_of_sums(case):
    # per label, np.unique of the explicit pair sums: label groups of
    # unequal size, spans past _KEY_LIMIT; with three pairs a piece, the
    # labels pair apart and the sum rows are built in pieces.  Both sets
    # are keyed: by label, then by the outside total, the last coordinate
    a, a_labels, b, b_labels = case
    A, B = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    g = b_labels[-1] + 1
    totals, rank = np.unique(B[:, -1], return_inverse=True)
    keys = np.array(b_labels) * totals.size + rank
    order = keys.argsort()
    keys = keys[order]
    top = np.searchsorted(a_labels, keys // totals.size, side="right") - 1  # every pair
    # the last coordinates of every pair, and whether their span reaches
    # _KEY_LIMIT // pairs where the labels pair together and one row b per
    # label does not give every pair: then _pairs ranks them
    sums = sorted(x + y for x, s in zip(A[:, -1].tolist(), a_labels) for y, t in zip(B[:, -1].tolist(), b_labels) if s == t)
    span = int(A[:, -1].max()) - int(A[:, -1].min()) + int(B[:, -1].max()) - int(B[:, -1].min()) + 1
    wide = len(B) > g and span >= kernels._KEY_LIMIT // len(sums)
    real_pairs, ranked = kernels._pairs, []

    def spying_pairs(*args):
        with mock.patch.object(kernels.np, "unique", wraps=np.unique) as unique:
            out = real_pairs(*args)
        ranked.extend(sorted(call.args[0].tolist()) == sums for call in unique.call_args_list)
        return out

    for pieces in (kernels._JOIN_STATES, 3):
        ranked.clear()
        with mock.patch.object(kernels, "_JOIN_STATES", pieces), mock.patch.object(kernels, "_pairs", spying_pairs):
            (rows, got_keys, got_totals), _ = kernels._sumset(A, np.array(a_labels), (B[order], keys, totals), top)
        if wide and pieces > 3:  # the labels pair together
            assert any(ranked)
        got_labels = got_keys // got_totals.size
        assert got_keys.tolist() == sorted(got_keys.tolist()) and (got_totals[got_keys % got_totals.size] == rows[:, -1]).all()
        for t in range(g):
            pairs = (A[np.array(a_labels) == t][:, None] + B[np.array(b_labels) == t]).reshape(-1, A.shape[1])
            got, want = rows[got_labels == t], np.unique(pairs, axis=0)
            assert np.unique(got, axis=0).tolist() == want.tolist()
            # a label with one row b may be added, not deduplicated
            assert len(got) == len(want) or b_labels.count(t) == 1


@st.composite
def repeated_weight_inputs(draw):
    """(kappa, scaled slopes, e, denom): m <= 4 rows of N <= 4 weights drawn
    from three values, so weights repeat within and across rows."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(2, 4))
    e, denom = draw(st.sampled_from([1, 2])), draw(st.sampled_from([1, 2, 3]))
    row = st.lists(st.integers(-1, 1), min_size=n, max_size=n).map(sorted)
    kappa = draw(st.lists(row, min_size=m, max_size=m))
    return kappa, _slopes(draw, kappa, e, denom), e, denom


@settings(max_examples=60, deadline=None)
@given(repeated_weight_inputs())
# N = 4 at m = 3: two labels, so the sumsets pair them apart in runs
@example(([[-1, 0, 0, 1], [-1, -1, 1, 1], [0, 0, 0, 1]], [-2, -1, 1, 3], 1, 1))
def test_keyed_suffix_sums_answer_the_walk(case):
    # two states per piece: the lookups run in pieces and the sumsets pair
    # the labels apart.  Each of s_0..s_m is in (label, outside total)
    # order; every question the listing asks of one, through ``_under``,
    # gets a plain existence loop's answer; and the listing is the oracle's
    kappa, scaled, e, denom = case
    under, asked = kernels._under, []

    def checked_under(keyed, label, room):
        got = under(keyed, label, room)
        rows, keys, totals = keyed
        labels, owners = keys // totals.size, np.broadcast_to(label, len(room))
        want = [any((row <= room[o]).all() for row in rows[labels == owners[o]]) for o in range(len(room))]
        assert got.tolist() == want
        asked.append(got.any())
        return got

    with mock.patch.object(kernels, "_JOIN_STATES", 2), mock.patch.object(kernels, "_under", checked_under):
        tables = kernels.CandidateTables(kappa)
        got = list(tables.candidates(scaled, e, denom))
    assert got == list(candidates_python(kappa, scaled, e, denom, 0, False))
    if "table" not in tables.__dict__:  # the totals do not close: nothing is built
        return
    suffix = tables.table.suffix
    assert len(suffix) == len(kappa) + 1 and asked
    for rows, keys, totals in suffix:
        assert keys.tolist() == sorted(keys.tolist()) and totals.tolist() == sorted(set(totals.tolist()))
        assert (totals[keys % totals.size] == rows[:, -1]).all()
