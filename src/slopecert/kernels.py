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
lexicographic, last embedding fastest.

The kernel rests on one fact.  For a subset size k, write the Hodge side of
the system as one length-N vector: the inside prefixes followed by the
outside prefixes.  It is a sum over embeddings of a vector that depends only
on that embedding's image choice, so the set of vectors reachable by some
choice depends on neither the subset nor the slopes.  ``CandidateTables``
builds that set once per weight table and k, embedding by embedding, keeping
every deduplicated suffix sum.  A subset passes when some reachable vector
lies under its Newton vector with the same inside total; its passing image
choices are listed by a depth-first walk over the suffix sums that keeps only
choices that can still be completed, so no branch is a dead end.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

# Packed keys stay below this, so a sum of two keys cannot overflow int64.
_KEY_LIMIT = 1 << 62


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
    masks = np.array([sum(1 << b for b in t) for t in ins], dtype=np.int64)
    pos.setflags(write=False)
    masks.setflags(write=False)
    return pos, masks


def _prefixes(values: np.ndarray, pos: np.ndarray, k: int) -> np.ndarray:
    """Inside prefix sums then outside prefix sums of ``values`` along ``pos``."""
    out = np.cumsum(values[..., pos], axis=-1)
    out[..., k:] -= out[..., k - 1 : k]
    return out


def _sumset(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The distinct rows a[i] + b[j].

    Rows are told apart by an integer key that is linear in the row, so the
    key of a[i] + b[j] is key(a[i]) + key(b[j]) and no sum row is built
    before deduplication.  Coordinates are packed in mixed radix; where the
    next one would overflow the key, the key so far is replaced by its rank
    among the distinct keys, which is below the number of pairs.  A single
    row b leaves a's rows as they are: repeats cost a little time later but
    change no answer.
    """
    if b.shape[0] == 1:
        return a + b
    a_off = a - a.min(axis=0)
    b_off = b - b.min(axis=0)
    span = (a_off.max(axis=0) + b_off.max(axis=0) + 1).tolist()
    pairs = a.shape[0] * b.shape[0]
    groups, size = [], _KEY_LIMIT
    for x, s in enumerate(span):
        if size * s >= _KEY_LIMIT:
            size = pairs if groups else 1
            groups.append([])
        groups[-1].append(x)
        size *= s
    key = None
    for cols in groups:
        radix = np.cumprod([1] + [span[x] for x in cols], dtype=np.int64)
        part = ((a_off[:, cols] @ radix[:-1])[:, None] + (b_off[:, cols] @ radix[:-1])[None, :]).reshape(-1)
        if key is None:
            key = part
        else:
            key = np.unique(key, return_inverse=True)[1] * radix[-1] + part
    _, first = np.unique(key, return_index=True)
    i, j = np.divmod(first, b.shape[0])
    return a[i] + b[j]


class _Level:
    """Reachable Hodge-prefix vectors of one weight table at one subset size k."""

    def __init__(self, kappa: np.ndarray, k: int):
        m, n = kappa.shape
        self.k = k
        self.pos, self.masks = _choices(n, k)
        # per-embedding vectors, one row per image choice: (m, C, n)
        self.hodge = _prefixes(kappa, self.pos, k)
        self.suffix = self._suffix_sums(np.zeros((1, n), dtype=np.int64), 0, m)
        reach, self.suffix[0] = self.suffix[0], None  # choices() reads suffix[1:]
        order = np.argsort(reach[:, k - 1])
        self.reach = reach[order]
        self.totals = self.reach[:, k - 1]

    def _suffix_sums(self, tail: np.ndarray, start: int, stop: int, rows=None) -> list:
        """[s_start, ..., s_stop] with s_stop = ``tail`` and s_j the distinct
        sums of embedding j's vectors with s_{j+1}; ``rows`` restricts the
        choices of embedding stop - 1."""
        out = [tail]
        for j in range(stop - 1, start - 1, -1):
            h = self.hodge[j] if rows is None or j != stop - 1 else self.hodge[j][rows]
            out.append(_sumset(h, out[-1]))
        out.reverse()
        return out

    def passing(self, bound: np.ndarray) -> np.ndarray:
        """Which subsets have a reachable vector under their bound row.

        ``bound`` holds floor(Newton / D) per subset.  Only vectors whose
        inside total equals the bound's are compared: any other lies above
        the bound at one of the two totals.
        """
        k = self.k
        lo = np.searchsorted(self.totals, bound[:, k - 1], side="left")
        hi = np.searchsorted(self.totals, bound[:, k - 1], side="right")
        counts = hi - lo
        out = np.zeros(bound.shape[0], dtype=bool)
        total = int(counts.sum())
        if total == 0:
            return out
        owner = np.repeat(np.arange(bound.shape[0]), counts)
        state = np.arange(total) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        ok = (self.reach[state] <= bound[owner]).all(axis=1)
        out[owner[ok]] = True
        return out

    def choices(self, bound: np.ndarray, tau: int, rows=None):
        """Image bitmasks per embedding of every choice passing ``bound``, in order.

        ``rows`` restricts the choices of embedding ``tau`` and must not be
        empty.  The walk is depth first and keeps only choices that the
        suffix sums can still complete, so every branch ends in a passing
        choice and the first one yielded is, per embedding, the smallest
        choice that can still be completed.
        """
        suffix = self.suffix
        if rows is not None:
            # the walk reads suffix[1..m]; those up to tau change
            suffix = [None] + self._suffix_sums(suffix[tau + 1], 1, tau + 1, rows) + suffix[tau + 2 :]
        return self._walk(0, np.zeros_like(bound), (), bound, tau, rows, suffix)

    def _walk(self, j, acc, picked, bound, tau, rows, suffix):
        # a method, not a recursive closure: a closure that names itself is a
        # reference cycle per call, left to the cyclic collector, which made
        # the benchmark's scan workload about 7 % slower
        if j == len(self.hodge):
            yield picked
            return
        hodge = self.hodge[j]
        choice = rows if (rows is not None and j == tau) else np.arange(hodge.shape[0])
        full = (acc + hodge[choice])[:, None, :] + suffix[j + 1][None, :, :]
        for c in choice[(full <= bound).all(axis=2).any(axis=1)].tolist():
            yield from self._walk(j + 1, acc + hodge[c], picked + (int(self.masks[c]),), bound, tau, rows, suffix)


class CandidateTables:
    """Reachable-set tables of one weight table, built lazily per subset size.

    Hold one for as long as the weight table is in use (all tau of a datum,
    all slope vectors of a scan cell) and pass it to ``find_candidate``.
    """

    def __init__(self, kappa):
        self.weights = tuple(tuple(int(v) for v in row) for row in kappa)
        _check_range(v for row in self.weights for v in row)
        self.kappa = np.array(self.weights, dtype=np.int64).reshape(len(self.weights), -1)
        self.total = int(self.kappa.sum())
        self._levels = {}

    def _level(self, k: int) -> _Level:
        lv = self._levels.get(k)
        if lv is None:
            lv = self._levels[k] = _Level(self.kappa, k)
        return lv

    def candidates(self, slopes_scaled, e: int, denom: int, tau: int, require_misaligned: bool):
        """Every passing (subset_mask, image_masks) in order; a generator, so
        the input is checked at the first item.  ``require_misaligned`` keeps
        those whose image choice on row ``tau`` moves a weight value."""
        n = self.kappa.shape[1]
        _check_range(slopes_scaled, e)
        S = np.asarray(slopes_scaled, dtype=np.int64)
        if S.shape != (n,):
            raise ValueError(f"need {n} slopes, got {S.shape[0] if S.ndim else 0}")
        # The inside and outside totals add up to the full ones, so both
        # equalities need the full totals to agree.  Then a reachable vector,
        # whose two totals add up to the Hodge total too, lies under the
        # bound floor(Newton / D) at both totals only when it meets both:
        # lying under the bound is passing.
        if e * int(S.sum()) != denom * self.total:
            return
        row = self.kappa[tau] if require_misaligned else None
        for k in range(1, n):
            lv = self._level(k)
            bound = (e * _prefixes(S, lv.pos, k)) // denom
            for c in np.flatnonzero(lv.passing(bound)).tolist():
                rows = None
                if require_misaligned:
                    # image choices that move a weight value on row tau
                    rows = np.flatnonzero((row[lv.pos] != row[lv.pos[c]]).any(axis=1))
                    if rows.size == 0:
                        continue
                for img in lv.choices(bound[c], tau, rows):
                    yield int(lv.masks[c]), img


def tables_for(kappa, tables=None) -> CandidateTables:
    """``tables`` when built for ``kappa``, new tables when None."""
    if tables is None:
        return CandidateTables(kappa)
    if tables.weights != kappa and tables.weights != tuple(map(tuple, kappa)):
        raise ValueError("candidate tables were built for another weight table")
    return tables


def find_candidate(kappa, slopes_scaled, e, denom, tau, require_misaligned=True, tables=None):
    """First passing (optionally misaligned) candidate in enumeration order.

    ``kappa``: per-embedding ascending weight rows; ``slopes_scaled``: slopes
    times ``denom``; ``tau``: 0-based distinguished embedding; ``tables``: a
    ``CandidateTables`` built for ``kappa``, made here when None.  Returns
    (found, subset_mask, image_masks) with masks over 0-based bits, or
    (False, 0, ()) when no candidate qualifies.
    """
    found = tables_for(kappa, tables).candidates(slopes_scaled, int(e), int(denom), int(tau), require_misaligned)
    first = next(found, None)
    return (False, 0, ()) if first is None else (True, *first)
