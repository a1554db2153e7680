"""Exact candidate search for the alignment lemma on reachable Hodge-prefix sets.

The admissibility candidate system is exact integer arithmetic once slopes
are scaled by a common denominator D and the (1/e) factors are cleared by
cross-multiplication, so the search runs on int64 without losing exactness.

A candidate is a proper nonempty subset I of {1..N} together with one image
set per embedding; it *passes* when both I and its complement satisfy every
ascending-prefix inequality

    e * sum_{y<=x} D*slope[i_y]  >=  D * sum_sigma prefix_x kappa[sigma][img_y]

and both totals hold with equality.  It is *misaligned* at row tau when the
induced tau-assignment changes some weight value.  Candidates are listed in
this order: subsets by size then lexicographic; per-embedding image sets
lexicographic, last embedding fastest.  The listing does not depend on tau:
``find_candidate`` returns its first candidate misaligned at row tau.

Complement duality: (I, J_1..J_m) passes iff (I^c, J_1^c..J_m^c) does, and
both are misaligned alike.  Proof: the system holds the same inequalities
for a subset and for its complement, and both candidates glue the same
bijections.  Among k-subsets in lexicographic order, A < B iff the least
element of the symmetric difference lies in A, so complementing reverses
the order: rank r goes to C(N, k) - 1 - r.  Hence the listing at size N - k
is the listing at size k reversed and complemented, the first candidate has
size at most N // 2, and a flag at size N - k implies one at size k.  Only
the sizes k <= N // 2 are ever built or searched.

The kernel rests on one fact.  For a subset size k, write the Hodge side of
the system as one length-N vector: the inside prefixes followed by the
outside prefixes.  It is a sum over embeddings of a vector that depends only
on that embedding's image choice, so the set of vectors reachable by some
choice depends on neither the subset nor the slopes.  It is s_0, the last
of the deduplicated suffix sums s_m = {0}, ..., s_0 over the embeddings.  A
subset passes when some reachable vector lies under its Newton vector with
the same inside total; its passing image choices are listed by a depth-first
walk over the suffix sums that keeps only choices that can still be
completed, so no branch is a dead end.

``misaligned_flags`` answers ``find_candidate(kappa, row, 1, 1, 0)[0]``
for a whole matrix of slope vectors without listing candidates: the scan's
question, whose weight rows are all equal and which passes e = D.  A row is
flagged when, for some k, subset c and image choice r on row 0 that moves a
weight value, some vector s of s_1, the sums of the other embeddings'
vectors, has hodge_0[r] + s under c's bound: a passing candidate already.
As above, only s whose inside total is the bound's minus hodge_0[r]'s
qualify, so the test is a join keyed by inside total.  One call serves a
stack of weight tables of one shape, each slope vector labelled with its
table: the s_1 of all tables are one labelled suffix sumset, and one join
keyed by (label, inside total) decides every vector.  It builds no s_0
and keeps nothing.

``_Level`` is the one table per weight table and k that the listing reads:
the vectors and the s_1..s_m of the walk, and, built on first use, s_0 for
``passing``.  One keyed lookup, ``_matches``, serves the flags and
``passing``; one sumset, ``_sumset``, labelled, serves both too.

``tables_for`` keeps the tables of the last weight table asked for, and
every caller gets its tables there, so consecutive calls on one weight table
(the tau of a datum, a replay and its verification, the witness pins of a
scan class) build its levels once; the tables keep the last slope vector's
passing subsets too.
The slot drops its tables before another weight table's are built, so the
levels of one weight table at most are alive, and they outlive its job.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, takewhile

import numpy as np

# Packed keys stay below this, so a sum of two keys cannot overflow int64.
_KEY_LIMIT = 1 << 62
# ``_matches`` yields at most this many matches per piece, so no lookup's
# arrays grow with its matches.
_JOIN_STATES = 1 << 15


def _check_range(values, scale: int = 1) -> None:
    """Refuse input on which the int64 search could lose exactness.

    Every vector the search builds is ``scale`` times a sum of distinct
    entries of ``values``, and it compares and packs differences of two such
    sums; ``scale * sum(|v|)`` below _KEY_LIMIT keeps all of them in int64.
    """
    if scale * sum(abs(int(v)) for v in values) >= _KEY_LIMIT:
        raise ValueError("weights or scaled slopes beyond the exact int64 range of the candidate kernel")


def active_backend() -> str:
    """Name of the candidate kernel."""
    return "reachable-set"


@lru_cache(maxsize=None)
def _choices(n: int, k: int):
    """The k-subsets of range(n), lexicographic.

    Returns (positions, bitmasks): each row of ``positions`` lists a
    subset's elements ascending and then its complement's.
    """
    ins = list(combinations(range(n), k))
    pos = np.array([list(t) + [b for b in range(n) if b not in t] for t in ins], dtype=np.int64)
    pos.setflags(write=False)
    return pos, tuple(sum(1 << b for b in t) for t in ins)


def _prefixes(values: np.ndarray, pos: np.ndarray, k: int) -> np.ndarray:
    """Inside prefix sums then outside prefix sums of ``values`` along ``pos``."""
    out = np.cumsum(values[..., pos], axis=-1)
    out[..., k:] -= out[..., k - 1 : k]
    return out


def _matches(totals: np.ndarray, target: np.ndarray):
    """(owner, state) for every state i with totals[i] == target[owner], by
    owner then state, in pieces of at most _JOIN_STATES; ``totals`` is
    ascending, and nothing is yielded when nothing matches."""
    lo = np.searchsorted(totals, target, side="left")
    counts = np.searchsorted(totals, target, side="right") - lo
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    shift = lo + counts - ends  # state minus flat position, per owner
    for start in range(0, total, _JOIN_STATES):
        flat = np.arange(start, min(start + _JOIN_STATES, total))
        owner = np.searchsorted(ends, flat, side="right")
        yield owner, flat + shift[owner]


def _by_total(rows: np.ndarray, k: int):
    """``rows`` ascending by inside total (column k - 1), and those totals."""
    rows = rows[np.argsort(rows[:, k - 1])]
    return rows, rows[:, k - 1]


def _slope_matrix(slopes, n: int, e: int) -> np.ndarray:
    """``slopes`` as a V x n int64 matrix, or ``_check_range``'s refusal of
    a row, with e the slopes' factor.  The largest |v| of the whole matrix
    only decides whether rows must be checked one by one."""
    try:
        S = np.asarray(slopes, dtype=np.int64)
    except OverflowError:
        S = None
    # |v| as uint64 is exact for every int64 v, -2**63 included
    if S is None or (S.size and e * n * int(np.abs(S).view(np.uint64).max()) >= _KEY_LIMIT):
        for row in slopes:
            _check_range(row, e)
    if S.ndim == 1 and S.size == 0:
        return S.reshape(0, n)
    if S.ndim != 2 or S.shape[1] != n:
        raise ValueError(f"need {n} slopes per row, got shape {S.shape}")
    return S


def _sumset(a: np.ndarray, b: np.ndarray, labels: np.ndarray):
    """The distinct pairs (label, a[label, i] + b[j]) with label = labels[j],
    as (rows, labels).

    ``a`` holds the same number of rows per label, ``b`` at least one row
    of each label, by label; so do the rows returned.  Pairs are told apart
    by an integer key that leads with the label and is linear in the row,
    so it is built from the keys of a[label, i] and b[j] and no sum row is
    built before deduplication.  Coordinates are packed in mixed radix;
    where the next one would overflow the key, the key so far is replaced
    by its rank among the distinct keys, which is below the number of
    pairs.  One row b per label leaves a's rows as they are: repeats cost a
    little time later but change no answer.
    """
    g, c, n = a.shape
    if b.shape[0] == g:
        return (a + b[:, None]).reshape(-1, n), np.repeat(labels, c)
    rows = a.reshape(-1, n)  # a[label, i] at label * c + i
    a_off = rows - rows.min(axis=0)
    b_off = b - b.min(axis=0)
    span = (a_off.max(axis=0) + b_off.max(axis=0) + 1).tolist()
    pairs = c * b.shape[0]
    # coordinates [bounds[t], bounds[t + 1]) make the t-th packed key; the
    # first starts as the label
    bounds, size = [0], g
    for x, s in enumerate(span):
        if size * s >= _KEY_LIMIT:
            size = pairs
            bounds.append(x)
        size *= s
    bounds.append(n)
    key = labels
    for group, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if group:
            key = np.unique(key, return_inverse=True)[1].reshape(key.shape)
        radix = np.cumprod([1] + span[lo:hi], dtype=np.int64)
        # pair (i, j) at [i, j]: b's rows, in key order, make runs that
        # leave the sort little to do.  One label broadcasts a's part, which
        # is many times faster than gathering it per pair
        a_part = (a_off[:, lo:hi] @ radix[:-1]).reshape(g, c).T
        key = (a_part if g == 1 else a_part[:, labels]) + (key * radix[-1] + b_off[:, lo:hi] @ radix[:-1])
    # the first pair of each distinct key, in key order: np.unique's
    # return_index without the unique values and the call's overhead
    order = key.reshape(-1).argsort(kind="stable")
    ordered = key.reshape(-1)[order]
    first = order[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    i, j = np.divmod(first, b.shape[0])
    label = labels[j]
    return rows[label * c + i] + b[j], label


class _Level:
    """One weight table's vectors and suffix sums at one subset size k."""

    def __init__(self, kappa: np.ndarray, k: int):
        m, n = kappa.shape
        self.k = k
        self.pos, self.masks = _choices(n, k)
        # per-embedding vectors, one row per image choice: (m, C, n)
        self.hodge = _prefixes(kappa, self.pos, k)
        # [None, s_1, ..., s_m]: s_m = {0}, s_j the distinct hodge[j] + s_{j+1};
        # the walk reads suffix[j + 1] at embedding j, and s_0 is ``reach``
        rows, labels = np.zeros((1, n), dtype=np.int64), np.zeros(1, dtype=np.intp)
        suffix = [rows]
        for j in range(m - 1, 0, -1):
            rows, labels = _sumset(self.hodge[None, j], rows, labels)
            suffix.append(rows)
        self.suffix = [None] + suffix[::-1]

    @cached_property
    def reach(self):
        """(s_0, its inside totals): every reachable vector, by inside total."""
        s_1 = self.suffix[1]
        return _by_total(_sumset(self.hodge[None, 0], s_1, np.zeros(len(s_1), dtype=np.intp))[0], self.k)

    def passing(self, bound: np.ndarray) -> np.ndarray:
        """Which subsets have a reachable vector under their bound row.

        ``bound`` holds floor(Newton / D) per subset.  Only vectors whose
        inside total equals the bound's are compared: any other lies above
        the bound at one of the two totals.
        """
        reach, totals = self.reach
        out = np.zeros(bound.shape[0], dtype=bool)
        for owner, state in _matches(totals, bound[:, self.k - 1]):
            out[owner[(reach[state] <= bound[owner]).all(axis=1)]] = True
        return out

    def choices(self, bound: np.ndarray, j: int = 0, acc=0, picked: tuple = ()):
        """Image bitmasks per embedding of every choice passing ``bound``, in
        order; ``j``, ``acc`` and ``picked`` carry the walk's state.

        The walk is depth first and keeps only choices that the suffix sums
        can still complete, so every branch ends in a passing choice and the
        first one yielded is, per embedding, the smallest choice that can
        still be completed.
        """
        # a method, not a recursive closure: a closure that names itself is a
        # reference cycle per call, left to the cyclic collector, which made
        # the benchmark's scan workload about 7 % slower
        vec = acc + self.hodge[j]
        if j + 1 == len(self.hodge):  # the last embedding, whose suffix sum is {0}
            for c in (vec <= bound).all(axis=1).nonzero()[0].tolist():
                yield picked + (self.masks[c],)
            return
        for c in (vec[:, None, :] + self.suffix[j + 1] <= bound).all(axis=2).any(axis=1).nonzero()[0].tolist():
            yield from self.choices(bound, j + 1, vec[c], picked + (self.masks[c],))


class CandidateTables:
    """Reachable-set tables of one weight table, built lazily per subset size.

    Callers get them from ``tables_for``, which keeps the last weight
    table's tables for the calls that follow on it.
    """

    def __init__(self, kappa):
        self.weights = tuple(tuple(int(v) for v in row) for row in kappa)
        _check_range(v for row in self.weights for v in row)
        self.kappa = np.array(self.weights, dtype=np.int64).reshape(len(self.weights), -1)
        self.total = int(self.kappa.sum())
        self._levels = {}
        # (slope key, {k: (bound, passing subsets)}) of the last slope
        # vector: every tau of a datum asks about the same one
        self._passing = (None, {})

    def _level(self, k: int) -> _Level:
        lv = self._levels.get(k)
        if lv is None:
            lv = self._levels[k] = _Level(self.kappa, k)
        return lv

    def candidates(self, slopes_scaled, e: int, denom: int):
        """Every passing (subset_mask, image_masks) in order; a generator, so
        the input is checked at the first item.  Sizes above n // 2 are their
        complement sizes' lists, reversed and complemented."""
        n = self.kappa.shape[1]
        S = _slope_matrix([slopes_scaled], n, e)[0]
        if denom >= _KEY_LIMIT:  # the bound's floor division runs in int64
            raise ValueError("slope denominator beyond the exact int64 range of the candidate kernel")
        # The inside and outside totals add up to the full ones, so both
        # equalities need the full totals to agree.  Then a reachable vector,
        # whose two totals add up to the Hodge total too, lies under the
        # bound floor(Newton / D) at both totals only when it meets both:
        # lying under the bound is passing.
        if e * int(S.sum()) != denom * self.total:
            return
        key = (tuple(S.tolist()), e, denom)
        if self._passing[0] != key:
            self._passing = (key, {})
        passing = self._passing[1]
        full = (1 << n) - 1
        listed = {}
        for k in range(1, n // 2 + 1):
            lv = self._level(k)
            if k not in passing:
                bound = (e * _prefixes(S, lv.pos, k)) // denom
                passing[k] = bound, np.flatnonzero(lv.passing(bound)).tolist()
            bound, subsets = passing[k]
            out = listed[k] = []
            for c in subsets:
                for img in lv.choices(bound[c]):
                    out.append((lv.masks[c], img))
                    yield out[-1]
        # size k > n // 2 is size n - k complemented, in reverse order
        for k in range(n // 2 + 1, n):
            for mask, img in reversed(listed[n - k]):
                yield mask ^ full, tuple(i ^ full for i in img)


_slot = None  # the tables of the last weight table asked for


def tables_for(kappa) -> CandidateTables:
    """The tables of ``kappa``: the slot's when built for it, else new ones,
    which replace them."""
    global _slot
    # rows compared as tuples, so a numpy table compares by value too
    if _slot is None or _slot.weights != tuple(map(tuple, kappa)):
        _slot = None  # the old levels go before the new ones are built
        _slot = CandidateTables(kappa)
    return _slot


def misaligned_flags(kappas, slopes, labels) -> np.ndarray:
    """Per row v of the V x N matrix ``slopes``, ``find_candidate(
    kappas[labels[v]], row, 1, 1, 0)[0]``; ``kappas`` is a stack of G
    weight tables of one shape.  A row leaves the join as soon as it is
    flagged or its totals do not close.  Nothing is kept between calls."""
    try:
        K = np.asarray(kappas, dtype=np.int64)
    except OverflowError:
        K = None
    # as in _slope_matrix, with a table for a row
    if K is None or (K.size and K[0].size * int(np.abs(K).view(np.uint64).max()) >= _KEY_LIMIT):
        for kappa in kappas:
            _check_range(v for row in kappa for v in row)
    g, m, n = K.shape
    S = _slope_matrix(slopes, n, 1)
    labels = np.asarray(labels, dtype=np.intp)
    flags = np.zeros(S.shape[0], dtype=bool)
    live = np.flatnonzero(S.sum(axis=1) == K.sum(axis=(1, 2))[labels])
    for k in range(1, n // 2 + 1):
        if live.size == 0:
            break
        pos, _ = _choices(n, k)
        hodge = _prefixes(K, pos, k)  # (G, m, C, n)
        # s_1 of every table, labelled: the sums of its other embeddings' vectors
        other, owner = np.zeros((g, n), dtype=np.int64), np.arange(g)
        for j in range(m - 1, 0, -1):
            other, owner = _sumset(hodge[:, j], other, owner)
        # s_1 by (label, inside total), keyed by label and the total's rank
        totals, rank = np.unique(other[:, k - 1], return_inverse=True)
        key = owner * totals.size + rank
        order = np.argsort(key)
        other, key = other[order], key[order]
        # (table, subset, image choice) whose choice moves a value of the
        # table's row 0, by table; ``first`` indexes each table's first
        vals = K[:, 0][:, pos]
        pt, pc, pr = np.nonzero((vals[:, :, None, :] != vals[:, None, :, :]).any(axis=3))
        hr = hodge[pt, 0, pr]
        count = np.bincount(pt, minlength=g)
        first = np.cumsum(count) - count
        # every live row against every pair of its table, in slices of about
        # _JOIN_STATES (row, pair) owners, so no array grows with the rows
        step = max(1, _JOIN_STATES // max(1, int(count.max())))
        hit = np.zeros(live.size, dtype=bool)
        for lo in range(0, live.size, step):
            rows = live[lo : lo + step]
            lab = labels[rows]
            per_row = count[lab]
            v = np.repeat(np.arange(rows.size), per_row)
            p = np.arange(v.size) + np.repeat(first[lab] - (np.cumsum(per_row) - per_row), per_row)
            bound = _prefixes(S[rows], pos, k)
            # s_1 vectors qualify only at the bound's inside total minus hr's
            want = bound[v, pc[p], k - 1] - hr[p, k - 1]
            at = np.minimum(np.searchsorted(totals, want), totals.size - 1)
            want = np.where(totals[at] == want, lab[v] * totals.size + at, -1)
            for o, state in _matches(key, want):
                vo, po = v[o], p[o]
                hit[lo + vo[(other[state] + hr[po] <= bound[vo, pc[po]]).all(axis=1)]] = True
        flags[live[hit]] = True
        live = live[~hit]
    return flags


def _moves(row, mask: int, img: int) -> bool:
    """Whether image ``img`` moves a value of weight row ``row`` for subset
    ``mask``: the row's values at the subset's bits, in ascending bit order,
    against those at the image's bits, and likewise outside."""
    by_subset, by_image = ([], []), ([], [])
    for b, v in enumerate(row):
        by_subset[mask >> b & 1].append(v)
        by_image[img >> b & 1].append(v)
    return by_subset != by_image


def find_candidate(kappa, slopes_scaled, e, denom, tau):
    """First passing misaligned candidate in enumeration order.

    ``kappa``: per-embedding ascending weight rows; ``slopes_scaled``: slopes
    times ``denom``; ``tau``: 0-based distinguished embedding.  Returns
    (found, subset_mask, image_masks) with masks over 0-based bits, or
    (False, 0, ()) when no candidate qualifies.  The misaligned one is the
    first listed candidate whose image on row ``tau`` moves a weight value;
    by complement duality it has size at most N // 2, so the filter stops
    at the first larger subset.
    """
    tables = tables_for(kappa)
    row, tau = tables.weights[int(tau)], int(tau)
    half = len(row) // 2
    found = tables.candidates(slopes_scaled, int(e), int(denom))
    found = (c for c in takewhile(lambda c: c[0].bit_count() <= half, found) if _moves(row, c[0], c[1][tau]))
    first = next(found, None)
    return (False, 0, ()) if first is None else (True, *first)
