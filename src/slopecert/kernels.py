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

One builder, ``_Table``, makes the vectors and suffix sums of a stack of G
weight tables of one shape, the rows of table t and size k <= N // 2
labelled t * (N // 2) + k - 1: the vectors by one ``_prefixes`` call, each
s_j from the one before by one labelled ``_sumset``.  Every suffix sum has
one keyed form: its rows ordered by (label, outside total), the last
coordinate, with their keys and the distinct totals, as the sort by which
``_pairs`` drops repeated pairs leaves them.  One join, ``_under``, asks
per owner whether some row of its label lies under the owner's bound less
an offset; only rows of the outside total that the two leave qualify, so
it is one keyed lookup, ``_matches``.  It is the only comparison of
reachable rows with a bound.  The listing reads one weight table's stack
and keeps s_0..s_m: ``passing`` joins s_0 with every subset's bound and no
offset, and the walk asks, per image choice on embedding j, whether
s_{j+1} has a row under the bound less the choice's sum so far; s_m = {0}
answers the last embedding.

Most tables repeat one weight row: the replay's first point of step 3 is
parallel, every embedding carrying the same row, and so is every scan
table.  Where row j + 1 is row j in every table of the stack, a sum does
not depend on the order of the two embeddings' choices, so ``sums`` builds
each sum about once per multiset of choices, not once per ordering.  Each
row w of s_{j+1} carries top(w), its choice at embedding j + 1: the i of
the pair that made it.  Choice c pairs with w only when c <= top(w).  Every
sum u of s_j is still made.  Write u with the least smallest choice c over
embeddings j..b, the run of rows equal to row j, and let w = u - hodge_j[c],
a row of s_{j+1}.  The pair that made w writes u = hodge[c] + hodge[top(w)]
+ a row of s_{j+2} too, whose smallest choice in the run is at most top(w),
so c <= top(w) and (c, w) is paired.  So each s_j is the same set as with
every pair; where the rows differ, every pair is kept.  Choices are global
rows of ``hodge[j]``, laid out alike at every embedding, so they compare
across levels.  The listing, its order and every witness read only the
sets, so none of them changes.

``first_misaligned`` answers ``find_candidate(kappa, row, 1, 1, 0)`` for a
whole matrix of slope vectors without listing candidates: the scan's
question, whose weight rows are all equal and which passes e = D.  A pair
of a subset c and an image choice r on row 0 of one size that moves a
weight value fits a row when some s of s_1, the sums of the other
embeddings' vectors, has hodge_0[r] + s under c's bound: a passing
candidate already.  One join with offset hodge_0[r] decides every pair of
every row, in listing order, so a row's first fitting pair is its witness.
Set up once per stack, it builds s_{m-1}..s_1, keeps s_1 alone, builds no s_0;
at N = 1 no pair exists, and it sets up nothing.

Each reader builds a table once for what it serves: the flag pass per
stack, the listing per weight table in ``tables_for``, so consecutive calls
on one weight table (the tau of a datum, a replay and its verification)
build it once.  The tables keep the last slope vector's listing too, once
read to its end: a later call on that vector reads it without walking, and
a call that stops early keeps nothing and walks no further than it reads.
The slot drops its tables before another weight table's are built, so the
table of one weight table at most is alive, and it outlives its job.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import combinations, takewhile

import numpy as np

# Packed keys stay below this, so a sum of two keys cannot overflow int64.
_KEY_LIMIT = 1 << 62
# ``_matches`` yields at most this many matches per piece, and ``_sumset``
# pairs about this many rows at a time where labels allow, so no lookup's
# or sumset's arrays grow with all of its matches or pairs.
_JOIN_STATES = 1 << 15


def active_backend() -> str:
    """Name of the candidate kernel."""
    return "reachable-set"


@lru_cache(maxsize=None)
def _choices(n: int):
    """The k-subsets of range(n) of every size k <= n // 2, by size then
    lexicographic: (positions, bitmasks, starts, sizes).

    Each row of ``positions`` lists a subset's elements ascending and then
    its complement's; the subsets of size k are the rows [starts[k - 1],
    starts[k]), and ``sizes`` holds each row's k.
    """
    blocks = [np.zeros((0, n), dtype=bool)]
    for k in range(1, n // 2 + 1):
        subsets = np.fromiter(combinations(range(n), k), dtype=(np.int64, k))
        blocks.append(np.zeros((len(subsets), n), dtype=bool))
        np.put_along_axis(blocks[-1], subsets, True, axis=1)
    inside = np.concatenate(blocks)
    pos = np.argsort(~inside, axis=1, kind="stable")  # inside first, each part ascending
    sizes = inside.sum(axis=1, dtype=np.int64)
    pos.setflags(write=False)
    sizes.setflags(write=False)
    starts = np.searchsorted(sizes, np.arange(1, n // 2 + 2)).tolist()
    return pos, tuple((inside @ (1 << np.arange(n))).tolist()), starts, sizes


@lru_cache(maxsize=None)
def _same_size(n: int):
    """(positions, sizes, subsets, images, masks): ``_choices(n)``'s rows,
    every pair of them of one size and its (subset, image) bitmasks."""
    pos, masks, _, sizes = _choices(n)
    subset, image = np.nonzero(sizes[:, None] == sizes)
    return pos, sizes, subset, image, np.array(masks, dtype=np.int64)[np.stack([subset, image], axis=1)]


def _prefixes(values: np.ndarray, pos: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Inside prefix sums then outside prefix sums of ``values`` along each
    row of ``pos``, whose first k[row] positions are inside."""
    out = np.cumsum(values[..., pos], axis=-1)
    inside = out[..., np.arange(len(k)), k - 1][..., None]
    out -= (np.arange(pos.shape[-1]) >= k[:, None]) * inside
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


def _exact_rows(rows, n: int, scale: int = 1) -> np.ndarray:
    """``rows`` as a V x n int64 matrix, refused where the int64 search
    could lose exactness.

    Every vector the search builds is ``scale`` times a sum of distinct
    entries of one row, and it compares and packs differences of two such
    sums; ``scale * sum(|v|)`` below _KEY_LIMIT per row keeps all of them in
    int64.  The largest |v| of the whole matrix only decides whether rows
    must be summed one by one.
    """
    beyond = ValueError("weights or scaled slopes beyond the exact int64 range of the candidate kernel")
    try:
        S = np.asarray(rows, dtype=np.int64)
    except OverflowError:  # an entry past int64
        raise beyond from None
    # an unsigned array is cast by wrapping: its entries past int64 turn negative
    if S.size and np.asarray(rows).dtype.kind == "u" and S.min() < 0:
        raise beyond
    if S.ndim == 1 and S.size == 0:
        S = S.reshape(0, n)
    if S.ndim != 2 or S.shape[1] != n:
        raise ValueError(f"need {n} slopes per row, got shape {S.shape}")
    # |v| as uint64 is exact for every int64 v, -2**63 included
    if S.size and scale * n * int(np.abs(S).view(np.uint64).max()) >= _KEY_LIMIT:
        if any(scale * sum(map(abs, row)) >= _KEY_LIMIT for row in S.tolist()):
            raise beyond
    return S


def _sumset(a: np.ndarray, a_labels: np.ndarray, b, top: np.ndarray):
    """The distinct pairs (t, a[i] + s) with a_labels[i] = t, s a row of
    label t in ``b`` and i <= top[s], keyed as ``b`` is: (rows, keys,
    totals) by (label, outside total), and per row its top, the i of the
    pair that made it.  ``_pairs`` leaves the pairs in that order, so the
    keys only rank the totals."""
    rows, keys, totals = b
    b_labels = keys // totals.size
    i, j = _pairs(a, a_labels, rows, b_labels, top)
    out = _sum_rows(a, i, rows, j)
    totals, rank = np.unique(out[:, -1], return_inverse=True)
    return (out, b_labels[j] * totals.size + rank, totals), i


def _sum_rows(a: np.ndarray, i: np.ndarray, b: np.ndarray, j: np.ndarray) -> np.ndarray:
    """a[i] + b[j], built _JOIN_STATES rows at a time, so that no temporary
    array grows with the result."""
    out = np.empty((len(i), a.shape[1]), dtype=np.int64)
    for lo in range(0, len(i), _JOIN_STATES):
        piece = slice(lo, lo + _JOIN_STATES)
        np.add(a[i[piece]], b[j[piece]], out=out[piece])
    return out


def _pairs(a: np.ndarray, a_labels: np.ndarray, b: np.ndarray, b_labels: np.ndarray, top: np.ndarray):
    """(i, j): one pair per distinct (t, a[i] + b[j]) with a_labels[i] =
    b_labels[j] = t and i <= top[j], ascending by label, then last coordinate.

    The labels are 0..G-1, and each of a and b holds at least one row of
    every label, by label, however many; top[j] is a row of a of b[j]'s
    label.  Only the kept pairs are laid out: per row of b, the a rows of
    its label up to its top.  Pairs are told apart by an integer key that
    leads with the label and is linear in the row, so it is built from the
    keys of a[i] and b[j] and no sum row is built.  Coordinates are packed
    in mixed radix, the last first; where the next one would overflow the
    key, the key so far is replaced by its rank among the distinct keys,
    below the number of pairs.  A coordinate whose span times the number of
    pairs reaches _KEY_LIMIT is packed as base-2**w digits that each fit:
    their sums still tell distinct rows apart, and equal rows they keep
    apart are repeats.  Such a last coordinate is ranked instead, as digit
    sums do not keep order.  One row b per label gives every pair, whatever
    ``top`` (None for s_m = {0}), and so may a label with one row b when
    labels pair apart: pairs beyond the kept ones, and repeats, cost a
    little time later but change no set.
    """
    g = int(b_labels[-1]) + 1
    if b.shape[0] == g:  # one row b per label: every pair, sorted
        i = np.lexsort((a[:, -1], a_labels))
        return i, a_labels[i]
    lo = np.searchsorted(a_labels, b_labels)  # the first a row of each b row's label
    per_b = top - lo + 1  # the kept pairs of each row of b
    ends = np.cumsum(per_b)
    pairs = int(ends[-1])
    if pairs > _JOIN_STATES and g > 1:
        # labels apart, in runs of about _JOIN_STATES kept pairs (a larger
        # label alone), so no array grows with the pairs of every label
        run = (ends - per_b)[np.searchsorted(b_labels, np.arange(g))] // _JOIN_STATES
        if run[-1]:
            cut = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), g]
            at_a, at_b = np.searchsorted(a_labels, cut), np.searchsorted(b_labels, cut)
            parts = [
                _pairs(a[i:i1], a_labels[i:i1] - t, b[j:j1], b_labels[j:j1] - t, top[j:j1] - i)
                for t, i, i1, j, j1 in zip(cut, at_a, at_a[1:], at_b, at_b[1:])
            ]
            i = np.concatenate([part[0] + at for part, at in zip(parts, at_a)])
            return i, np.concatenate([part[1] + at for part, at in zip(parts, at_b)])
    # pair (i, j) at ends[j] - per_b[j] + i - lo[j]
    j = np.repeat(np.arange(len(b)), per_b)
    i = np.arange(pairs) - np.repeat(ends - per_b - lo, per_b)
    a_off = a - a.min(axis=0)
    b_off = b - b.min(axis=0)

    def spans():  # in Python ints: two offsets can sum past int64
        return [u + v + 1 for u, v in zip(a_off.max(axis=0).tolist(), b_off.max(axis=0).tolist())]

    span, limit = spans(), _KEY_LIMIT // pairs
    key, size = np.repeat(b_labels, per_b), g
    if span[-1] >= limit:  # digit sums would not keep its order: rank it
        last, rank = np.unique(a[i, -1] + b[j, -1], return_inverse=True)
        key, size = key * last.size + rank, g * last.size
        a_off, b_off, span = a_off[:, :-1], b_off[:, :-1], span[:-1]
    if max(span) >= limit:
        w = limit.bit_length() - 2  # a digit sum is below 2**(w + 1) <= limit
        shifts = np.arange(0, 63, w)

        def digits(off):
            return np.hstack([off[:, [x]] if s < limit else off[:, [x]] >> shifts & (1 << w) - 1 for x, s in enumerate(span)])

        a_off, b_off = digits(a_off), digits(b_off)
        span = spans()
    # coordinates [bounds[t + 1], bounds[t]) make the t-th packed key, the
    # last coordinate first and the most significant after the label
    bounds = [len(span)]
    for x in range(len(span) - 1, -1, -1):
        if size * span[x] >= _KEY_LIMIT:
            size = pairs
            bounds.append(x + 1)
        size *= span[x]
    bounds.append(0)
    for group, (stop, start) in enumerate(zip(bounds, bounds[1:])):
        if group:
            key = np.unique(key, return_inverse=True)[1]
        radix = np.cumprod([1] + span[start:stop], dtype=np.int64)
        key = key * radix[-1] + (a_off[:, start:stop] @ radix[:-1])[i] + np.repeat(b_off[:, start:stop] @ radix[:-1], per_b)
    # one pair of each distinct key, in key order: np.unique's return_index
    # without the unique values and the call's overhead.  Pairs of one key
    # sum to one row, so the unstable sort, several times faster than the
    # stable one, returns the same rows
    order = key.argsort()
    ordered = key[order]
    first = order[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    return i[first], j[first]


def _under(keyed, label, room: np.ndarray) -> np.ndarray:
    """Per owner o, whether some row of label label[o] (or ``label``, one
    for all) in ``keyed``, by (label, outside total), lies under room[o], a
    bound less an offset.  Only rows of the room's outside total qualify:
    the bound's two totals are floors summing to at most the full total of
    every row plus offset, so a row under the room meets both."""
    rows, keys, totals = keyed
    want = room[:, -1]
    at = np.searchsorted(totals[:-1], want)  # the first total >= want, or the last
    want = np.where(totals[at] == want, label * totals.size + at, -1)
    out = np.zeros(len(room), dtype=bool)
    for owner, state in _matches(keys, want):
        out[owner[(rows[state] <= room[owner]).all(axis=1)]] = True
    return out


class _Table:
    """The vectors and suffix sums of a stack of G weight tables of one
    shape, the rows of table t and size k <= N // 2 labelled
    t * (N // 2) + k - 1; the listing reads a stack of one."""

    def __init__(self, K: np.ndarray):
        g, m, n = K.shape
        # the walk reads one table, whose labels start where its sizes do
        self.pos, self.masks, self.starts, self.size = _choices(n)
        # per-embedding vectors, one row per (table, size, image choice): (m, G * R, N)
        self.hodge = _prefixes(K.transpose(1, 0, 2), self.pos, self.size).reshape(m, -1, n)
        self.label = (np.arange(g)[:, None] * (n // 2) + self.size - 1).ravel()
        self.groups = g * (n // 2)
        self.kappas = K

    def sums(self, last: int = 1):
        """s_m = {0} per label, s_{m-1}, ..., s_last, each keyed as (rows,
        keys, totals) by (label, outside total), s_j the distinct hodge[j] +
        s_{j+1} of one label: each is built from the one before, so a caller
        that keeps only the last holds s_1 alone.  Where row j is row j + 1,
        choice i pairs with a row w of s_{j+1} only when i <= top(w)."""
        keyed = np.zeros((self.groups, self.hodge.shape[2]), dtype=np.int64), np.arange(self.groups), np.zeros(1, dtype=np.int64)
        yield keyed
        top = None  # s_m holds one row per label, which pairs every choice
        for j in range(len(self.hodge) - 1, last - 1, -1):
            if top is not None and (self.kappas[:, j] != self.kappas[:, j + 1]).any():
                # rows j and j + 1 differ: every pair, up to each label's last row
                top = np.searchsorted(self.label, keyed[1] // keyed[2].size, side="right") - 1
            keyed, top = _sumset(self.hodge[j], self.label, keyed, top)
            yield keyed

    @cached_property
    def suffix(self):
        """[s_0, ..., s_m] by (label, outside total): ``passing`` reads s_0,
        every reachable vector, and the walk reads s_{j+1} at embedding j."""
        return list(self.sums(0))[::-1]

    def passing(self, bound: np.ndarray) -> np.ndarray:
        """Which subsets have a reachable vector of their size under their
        bound row; ``bound`` holds floor(Newton / D) per subset."""
        return _under(self.suffix[0], self.label, bound)  # no offset

    def choices(self, bound: np.ndarray, t: int, j: int = 0, acc=0, picked: tuple = ()):
        """Image bitmasks per embedding of every choice of label ``t``
        passing ``bound``, in order; ``j``, ``acc`` and ``picked`` carry the
        walk's state.

        The walk is depth first and keeps only choices that the suffix sums
        can still complete, each choice asking ``_under`` whether a row of
        s_{j+1} lies under the bound less the choice's sum so far, so every
        branch ends in a passing choice and the first one yielded is, per
        embedding, the smallest choice that can still be completed.
        """
        # a method, not a recursive closure: a closure that names itself is a
        # reference cycle per call, left to the cyclic collector, which made
        # the benchmark's scan workload about 7 % slower
        lo = self.starts[t]
        vec = acc + self.hodge[j, lo : self.starts[t + 1]]
        for c in np.flatnonzero(_under(self.suffix[j + 1], t, bound - vec)).tolist():
            img = picked + (self.masks[lo + c],)
            yield from self.choices(bound, t, j + 1, vec[c], img) if j + 1 < len(self.hodge) else (img,)

    def walk(self, S: np.ndarray, e: int, denom: int):
        """Every passing (subset_mask, image_masks) of size k <= N // 2 for
        the scaled slopes ``S``, in order; the bounds and the passing
        subsets of every size are found at the first item."""
        bound = (e * _prefixes(S, self.pos, self.size)) // denom
        for c in np.flatnonzero(self.passing(bound)).tolist():
            for img in self.choices(bound[c], int(self.label[c])):
                yield self.masks[c], img


class CandidateTables:
    """The reachable-set table of one weight table, built on first use, and
    the listing of the last slope vector read to its end.

    Callers get them from ``tables_for``, which keeps the last weight
    table's tables for the calls that follow on it.
    """

    def __init__(self, kappa):
        self.weights = tuple(tuple(int(v) for v in row) for row in kappa)
        m, n = np.shape(self.weights)
        self.kappa = _exact_rows([[v for row in self.weights for v in row]], m * n).reshape(m, n)
        self.total = int(self.kappa.sum())
        # (slope key, every candidate listed) of the last slope vector read
        # to its end: every tau of a datum, and the verification after its
        # replay, ask about the same one
        self._listing = None

    @cached_property
    def table(self) -> _Table:
        return _Table(self.kappa[None])

    def candidates(self, slopes_scaled, e: int, denom: int):
        """Every passing (subset_mask, image_masks) in order; a generator, so
        the input is checked at the first item.  Sizes above n // 2 are their
        complement sizes' lists, reversed and complemented."""
        n = self.kappa.shape[1]
        S = _exact_rows([slopes_scaled], n, e)[0]
        if denom >= _KEY_LIMIT:  # the bound's floor division runs in int64
            raise ValueError("slope denominator beyond the exact int64 range of the candidate kernel")
        # The inside and outside totals add up to the full ones, so both
        # equalities need the full totals to agree.  Then a reachable vector,
        # whose two totals add up to the Hodge total too, lies under the
        # bound floor(Newton / D) at both totals only when it meets both:
        # lying under the bound is passing.
        if e * int(S.sum()) != denom * self.total or n < 2:
            return
        key = (tuple(S.tolist()), e, denom)
        if self._listing is not None and self._listing[0] == key:
            listed = self._listing[1]
            yield from listed
        else:
            self._listing, listed = None, []
            for item in self.table.walk(S, e, denom):
                listed.append(item)
                yield item
            self._listing = key, listed  # kept once read to its end
        # size k > n // 2 is size n - k complemented, in reverse order: the
        # listing reversed, each size below n / 2 complemented
        full = (1 << n) - 1
        for mask, img in reversed(listed):
            if 2 * mask.bit_count() < n:
                yield mask ^ full, tuple(i ^ full for i in img)


_slot = None  # the tables of the last weight table asked for


def tables_for(kappa) -> CandidateTables:
    """The tables of ``kappa``: the slot's when built for it, else new ones,
    which replace them."""
    global _slot
    # rows compared as tuples, so a numpy table compares by value too
    if _slot is None or _slot.weights != tuple(map(tuple, kappa)):
        _slot = None  # the old table goes before the new one is built
        _slot = CandidateTables(kappa)
    return _slot


def first_misaligned(kappas):
    """The flag pass of a stack ``kappas`` of G weight tables of one shape,
    its table, s_1 and pairs built once: a function giving, per row v of a
    V x N matrix ``slopes``, the (subset mask, row-0 image mask) of
    ``find_candidate(kappas[labels[v]], row, 1, 1, 0)``, or (0, 0)."""
    g, m, n = np.shape(kappas)
    # each table one row, of exact Python ints, so no entry is rounded or wrapped
    K = _exact_rows(np.asarray(kappas, dtype=object).reshape(g, m * n), m * n).reshape(g, m, n)
    if n < 2:  # no subset of size <= N // 2, so no pair: nothing to set up
        return lambda slopes, labels: np.zeros((len(_exact_rows(slopes, n)), 2), dtype=np.int64)
    # (table, subset, image choice) of one size whose choice moves a value of
    # row 0, by table, in listing order; ``first`` indexes each table's first
    pos, size, subset, image, masks = _same_size(n)
    vals = K[:, 0][:, pos]
    pt, pair = np.nonzero((vals[:, subset] != vals[:, image]).any(axis=2))
    pc, img = subset[pair], pt * len(size) + image[pair]  # the image as a row of the stack
    count = np.bincount(pt, minlength=g)
    first = np.cumsum(count) - count
    # every live row against every pair of its table, in slices whose rooms,
    # N entries per (row, pair) owner, hold about _JOIN_STATES entries, so
    # no array grows with the rows
    step = max(1, _JOIN_STATES // max(1, int(count.max()) * n))
    if pt.size:  # ``flags`` reads no table without a pair
        table = _Table(K)
        for s_1 in table.sums():  # only the last, s_1, is kept
            pass

    def flags(slopes, labels) -> np.ndarray:
        S = _exact_rows(slopes, n)
        labels = np.asarray(labels, dtype=np.intp)
        out = np.zeros((S.shape[0], 2), dtype=np.int64)
        live = np.flatnonzero((S.sum(axis=1) == K.sum(axis=(1, 2))[labels]) & (count[labels] > 0))
        for lo in range(0, live.size, step):
            rows = live[lo : lo + step]
            per_row = count[labels[rows]]
            v = np.repeat(np.arange(rows.size), per_row)
            p = np.arange(v.size) + np.repeat(first[labels[rows]] - (np.cumsum(per_row) - per_row), per_row)
            # a pair passes when some s of s_1 of its label, the image's, lies
            # under its bound less hodge_0[r]
            room = _prefixes(S[rows], pos, size)[v, pc[p]]
            room -= table.hodge[0, img[p]]
            hit = np.flatnonzero(_under(s_1, table.label[img[p]], room))
            hit = hit[np.unique(v[hit], return_index=True)[1]]  # owners run by row, then pair
            out[rows[v[hit]]] = masks[pair[p[hit]]]  # the pair's witness
        return out

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
