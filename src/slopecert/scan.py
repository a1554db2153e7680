"""Exhaustive key-lemma scan over a desk-scale grid of Frobenius-module data.

The grid fixes one ascending weight tuple kappa in a box, replicated across
the e*f embeddings of each (e, f) shape, and walks every slope vector on the
(1/e)-grid whose deviations from the weight means stay inside the alignment
hypothesis band (optionally widened by ``band_scale``).  Weight rows with a
zero gap force zero deviations and therefore equal slopes, which the
distinctness requirement discards, so only strictly increasing kappa rows
contribute.

A datum counts as *misaligned* when some passing candidate moves a weight
value on the distinguished row.  With band_scale = 1 the alignment lemma
says the misaligned count is zero; with band_scale = 2 misaligned witnesses
exist and the first few are pinned into the report.

A cell's result depends only on (e, f) and on kappa's gaps.  Shifting kappa
by c leaves the gaps, and so the band radius, unchanged and shifts every
centre, hence every scaled slope, by m*c (m = e*f).  In each prefix
inequality the Newton side, e times a sum of x scaled slopes, and the Hodge
side, e times x weights on each of the m rows, then both move by e*m*x*c,
and so do the two totals.  The misaligned test compares weight values on one
row, which a common shift keeps equal or distinct.  So the scan runs once
per gap class (kappa[0] = 0; a class of span s has W - s cells in a box of
width W), scales the counts by that multiplicity, counts the cells in closed
form, and translates a class's witnesses back to each of its cells: kappa
and every scaled slope move, the subset and the images stay.

The classes of one length n run together, per m: ``kernels.first_misaligned``
sets up a chunk of classes once, building its table's s_{m-1}, ..., s_1
and keeping s_1, then flags the chunk's slope vectors a block at a time,
each labelled with its class, and returns each flagged vector's witness,
so the scan builds no ``kernels.CandidateTables``.  The
first ``max_witnesses`` flagged vectors of the length, classes in order and
product order within a class, are kept: the report's witnesses of one shape
and length translate no others.  A chunk's weight tables hold about
``kernels._JOIN_STATES`` vectors of s_1 and (subset, image) pairs at most,
a larger class runs alone, so memory follows one class's tables where they
are large.  The scan passes
denom = e, so e cancels from every bound and the band radius depends only
on the band: a class result depends on m, not on (e, f), and shapes of
equal m share it, with e, f and the slope denominators relabelled when the
witnesses are translated.  Before any class runs, the slope vectors the
grid lists are counted in closed form and refused above ``MAX_DATA``, and
the s_1 rows of the largest flag-pass table of each m, and the rows of
all its levels, are counted and their sums over the distinct m refused
above ``MAX_S1_ROWS`` and ``MAX_LEVEL_ROWS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, groupby, islice
from math import comb
from typing import List

import numpy as np

from . import kernels
from .errors import SlopecertError

DEFAULT_EF = ((1, 1), (1, 2), (2, 1), (2, 2))
# A grid listing more slope vectors than this, over its distinct shapes, is
# refused before any class runs.
MAX_DATA = 2_000_000
# A grid whose flag pass could hold more s_1 rows than this, summed over
# the largest class table of each distinct m = e*f, is refused before any
# class runs: the m run one after another, so their times add up.  Peak
# memory follows one table's rows, time the rows and m: at kappa in [-3, 3], band 1
# (Python 3.11, one shared core), ef [[6, 6]] at n_max 4 (658,008 rows)
# took 5.2 s and 73 MB, [[7, 7]] (2,869,685) 27 s and 154 MB, [[8, 8]]
# (10,424,128) 84 s and 335 MB, and [[3, 3]] at n_max 6 (2,220,075) 2.2 s
# and 109 MB.
MAX_S1_ROWS = 1_000_000
# A grid whose flag pass could build more rows than this over all the
# levels s_{m-1}, ..., s_1 of the largest class table of each distinct m,
# summed, is refused after MAX_S1_ROWS: a setup's time follows those rows.
# At kappa in [-3, 3], band 1, as a CLI child (Python 3.11, one shared
# core), ef [[6, 6]] at n_max 4 (4,496,387 rows) took 5.5-6.7 s, [[56, 56]]
# at n_max 2 (4,918,815) 6.3 s, [[17, 17]] at n_max 3 (4,064,784) 14.3 s,
# [[60, 60]] at n_max 2 (6,481,799) 8.5 s and [[70, 70]] (12,007,449)
# 17.6 s.
MAX_LEVEL_ROWS = 5_000_000
# A grid of more (e, f, kappa) cells than this is refused before its slope
# vectors are counted.  Each class lists at least one vector and costs about
# 7 us and 0.3 kB of results at band 0 (Python 3.11, one shared core), so
# MAX_DATA alone admits some 2 M classes.
MAX_CELLS = 2_000_000
# A chunk's slope vectors are listed and flagged this many at a time.
_BLOCK = 1024


@dataclass(frozen=True)
class ScanWitness:
    """A misaligned passing candidate, pinned with its full datum."""

    e: int
    f: int
    kappa: tuple
    slopes: tuple  # exact slope values as (num, den) pairs
    subset: tuple
    images_tau: tuple


@dataclass
class ScanReport:
    band_scale: Fraction
    cells: int = 0
    data_checked: int = 0
    certified: int = 0
    misaligned: int = 0
    witnesses: List[ScanWitness] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "band_scale": f"{self.band_scale.numerator}/{self.band_scale.denominator}",
            "cells": self.cells,
            "data_checked": self.data_checked,
            "certified": self.certified,
            "misaligned": self.misaligned,
            "witnesses": [
                {
                    "e": w.e,
                    "f": w.f,
                    "kappa": list(w.kappa),
                    "slopes": [f"{n}/{d}" for (n, d) in w.slopes],
                    "subset": list(w.subset),
                    "images_tau": list(w.images_tau),
                }
                for w in self.witnesses
            ],
        }


def _radius(n: int, gap: int, band_num: int, band_den: int) -> int:
    """Band radius in units of 1/e for weights of rank n and least gap ``gap``.

    |dev| <= band_scale * gap / (e n) with dev on the (1/e)-grid: integer
    units dev_e = e*dev, so |dev_e| <= band_scale * gap / n.  Rank 1 has a
    vacuous hypothesis; its deviation is pinned to 0.
    """
    return 0 if n == 1 else (band_num * gap) // (band_den * n)


def _multisets(c: int, r: int) -> int:
    """The multisets of r of c choices, C(c + r - 1, r)."""
    return comb(c + r - 1, r)


def _scan_length(m: int, classes: list, band_num: int, band_den: int, max_witnesses: int) -> list:
    """Scan the gap classes ``classes``, all of one length n, for m = e*f
    embeddings.

    Returns one (checked, misaligned, hits) per class: its misaligned slope
    vectors among the first ``max_witnesses`` of all the classes, in
    listing order, scaled by e, as (scaled, subset, images_tau).  No cell
    of the report reads more: a report keeps the first ``max_witnesses``
    witnesses of a shape and length, in cell order, which translate those
    vectors.  The scan passes denom = e, so e cancels from every
    bound and the classes run with e = 1.  The classes go to the kernel in
    chunks whose s_1 tables and pairs hold about _JOIN_STATES rows at most,
    a class above that alone, each set up once.  A chunk's slope vectors
    are listed class by class, in product order within a class, _BLOCK at
    a time, and each block is flagged as it is listed: a block may hold
    vectors of several classes.
    """
    n = len(classes[0])
    # per class and subset size k, one vector of s_1 per multiset of m - 1
    # image choices at most, as the caps count them, and C(n, k) ** 2
    # (subset, image) pairs
    rows = sum(_multisets(comb(n, k), m - 1) + comb(n, k) ** 2 for k in range(1, n // 2 + 1))
    size = max(1, kernels._JOIN_STATES // rows) if rows else len(classes)
    out, pinned = [], 0
    for chunk in (classes[i : i + size] for i in range(0, len(classes), size)):
        kappas = np.array([[g] * m for g in chunk], dtype=np.int64)
        gaps = [min((b - a for a, b in zip(g, g[1:])), default=0) for g in chunk]
        # run_scan runs no class of length >= 2 at a negative band
        radius = np.array([_radius(n, gap, band_num, band_den) for gap in gaps])
        side = 2 * radius + 1
        ends = np.cumsum(side**n)  # the listing's end per class
        starts = ends - side**n
        low = m * kappas[:, 0] - radius[:, None]  # e * weight-mean - radius
        checked = np.zeros(len(chunk), dtype=np.int64)
        bad = np.zeros(len(chunk), dtype=np.int64)
        hits = [[] for _ in chunk]
        flags = None  # the last chunk's tables go before this chunk's are built
        flags = kernels.first_misaligned(kappas)
        for start in range(0, int(ends[-1]), _BLOCK):
            index = np.arange(start, min(start + _BLOCK, int(ends[-1])))
            owner = np.searchsorted(ends, index, side="right")
            index = index - starts[owner]
            scaled = low[owner]
            for x in range(n - 1, -1, -1):  # the last coordinate runs fastest
                index, digit = np.divmod(index, side[owner])
                scaled[:, x] += digit
            ordered = np.sort(scaled, axis=1)
            keep = (ordered[:, 1:] != ordered[:, :-1]).all(axis=1)
            scaled, owner = scaled[keep], owner[keep]
            first = flags(scaled, owner)
            flagged = np.flatnonzero(first[:, 0])
            checked += np.bincount(owner, minlength=len(chunk))
            bad += np.bincount(owner[flagged], minlength=len(chunk))
            # the first flagged vectors of the length, in listing order
            pin = flagged[: max_witnesses - pinned]
            pinned += pin.size
            for row, c, (mask, img) in zip(scaled[pin].tolist(), owner[pin].tolist(), first[pin].tolist()):
                subset = tuple(b + 1 for b in range(n) if mask >> b & 1)
                images = tuple(b + 1 for b in range(n) if img >> b & 1)
                hits[c].append((tuple(row), subset, images))
        out += [(int(c), int(b), h) for c, b, h in zip(checked, bad, hits)]
    return out


def grid_cells(n_max: int, kappa_min: int, kappa_max: int, n_shapes: int) -> int:
    """The number of (e, f, kappa) cells: C(W + n_max, n_max) - 1 ascending
    kappa of length 1..n_max per shape, W = kappa_max - kappa_min + 1."""
    width = kappa_max - kappa_min + 1
    return n_shapes * (comb(width + n_max, n_max) - 1) if width > 0 and n_max > 0 else 0


def _gap_classes(n_max: int, width: int):
    """Strictly increasing gap tuples with g[0] = 0 and span below ``width``,
    by length, lexicographic within a length; none when ``width`` < 1."""
    for n in range(1, n_max + 1 if width > 0 else 1):
        for rest in combinations(range(1, width), n - 1):
            yield (0,) + rest


def data_count(n_max: int, kappa_min: int, kappa_max: int, band_scale) -> int:
    """Slope vectors, distinct or not, that one shape's gap classes list:
    the sum over classes of (2r + 1)^n.  The sum ends as soon as it passes
    MAX_DATA ** 2, and is then only a lower bound above it.

    A class's radius r depends only on n and its least gap d, and the
    classes of length n >= 2 with every gap >= d number
    C(W - 1 - (n - 1) d + n - 1, n - 1), so the sum runs over the runs of d
    of equal radius, where those counts telescope.  A negative band lists
    nothing beyond the class (0,), and otherwise each run adds at least
    (2r + 1)^n with r above the last run's: the sum ends after at most about
    15,000 runs whatever the box width W.
    """
    width = kappa_max - kappa_min + 1
    if width < 1 or n_max < 1:
        return 0
    scale = Fraction(band_scale)

    def at_least(n, d):
        slack = width - 1 - (n - 1) * d
        return comb(slack + n - 1, n - 1) if slack >= 0 else 0

    total = 1  # n = 1: the class (0,), radius 0
    for n in range(2, n_max + 1 if scale >= 0 else 2):
        top, d = (width - 1) // (n - 1), 1
        while d <= top:
            r = _radius(n, d, scale.numerator, scale.denominator)
            # the last d of radius r
            end = top if scale == 0 else min(top, ((r + 1) * scale.denominator * n - 1) // scale.numerator)
            total += (at_least(n, d) - at_least(n, end + 1)) * (2 * r + 1) ** n
            if total > MAX_DATA**2:
                return total
            d = end + 1
    return total


def _witnesses_in_cell_order(shapes, n_max, kappa_min, kappa_max, results):
    """Every cell's witnesses, translated from its class, in cell order.

    Cells run by shape, then length, then kappa lexicographic; within one
    length that is kappa[0] = c ascending, then the class lexicographic.
    A class result serves every shape of its m = e*f, so e, f and the slope
    denominators come from the shape.
    """
    for (e, f) in shapes:
        m = e * f
        for n in range(1, n_max + 1):
            found = [(g, hits) for g, (_, _, hits) in results[m].items() if hits and len(g) == n]
            for c in range(kappa_min, kappa_max + 1):
                found = [(g, hits) for (g, hits) in found if g[-1] <= kappa_max - c]
                if not found:
                    break
                for g, hits in found:
                    kappa = tuple(k + c for k in g)
                    for scaled, subset, images in hits:
                        slopes = tuple((s + m * c, e) for s in scaled)
                        yield ScanWitness(e, f, kappa, slopes, subset, images)


def run_scan(
    n_max: int = 4,
    kappa_min: int = -3,
    kappa_max: int = 3,
    ef_values=DEFAULT_EF,
    band_scale=1,
    max_witnesses: int = 5,
) -> ScanReport:
    """Run the exhaustive scan in this process, the gap classes of one
    length after another.

    Each gap class runs once per distinct m = e*f.  The grid is refused
    above MAX_CELLS cells, above MAX_DATA slope vectors over the distinct
    shapes, and above MAX_S1_ROWS s_1 rows or MAX_LEVEL_ROWS rows over all
    levels of the largest flag-pass table of each distinct m, summed.  Each
    (m, length) keeps at most ``max_witnesses`` witnesses; a shape's report
    lists its lengths in turn, and stops at ``max_witnesses``.
    """
    scale = Fraction(band_scale)
    shapes = [(e, f) for (e, f) in ef_values]
    cells = grid_cells(n_max, kappa_min, kappa_max, len(shapes))
    if cells > MAX_CELLS:
        raise SlopecertError(f"grid has {cells} cells, above scan.MAX_CELLS = {MAX_CELLS}")
    data = len(set(shapes)) * data_count(n_max, kappa_min, kappa_max, scale)
    if data > MAX_DATA:
        least = "at least " if data > MAX_DATA**2 else ""
        raise SlopecertError(f"grid lists {least}{data} slope vectors, above scan.MAX_DATA = {MAX_DATA}")
    width = kappa_max - kappa_min + 1
    # a negative band lists nothing in classes of length >= 2, so every
    # class that runs lists a vector and MAX_DATA bounds the classes too
    lengths = n_max if scale >= 0 else 1
    # every embedding carries the same weight row, so s_1 of subset size k
    # holds one row per multiset of m - 1 of the C(n, k) image choices at
    # most: most at the longest class, n <= W, and k = n // 2
    top = min(lengths, width)
    ms = list(dict.fromkeys(e * f for (e, f) in shapes))
    rows = sum(_multisets(comb(top, top // 2), m - 1) for m in ms) if top > 1 else 0
    if rows > MAX_S1_ROWS:
        raise SlopecertError(f"flag-pass tables hold up to {rows} s_1 rows over {len(ms)} distinct m = e*f, above scan.MAX_S1_ROWS = {MAX_S1_ROWS}")
    # s_1 is built through s_{m-1}, ..., s_2, s_j a row per multiset of m - j
    # choices at most: with a choice "none" added, those of m - 1 of C + 1
    # choices, the all-"none" one aside
    rows = sum(_multisets(comb(top, top // 2) + 1, m - 1) - 1 for m in ms) if top > 1 else 0
    if rows > MAX_LEVEL_ROWS:
        raise SlopecertError(f"flag-pass tables build up to {rows} rows over their m - 1 levels for {len(ms)} distinct m = e*f, above scan.MAX_LEVEL_ROWS = {MAX_LEVEL_ROWS}")
    results = {}
    for m in ms:
        results[m] = {}
        for _, classes in groupby(_gap_classes(lengths, width), len):
            classes = list(classes)
            runs = _scan_length(m, classes, scale.numerator, scale.denominator, max_witnesses)
            results[m].update(zip(classes, runs))
    report = ScanReport(band_scale=scale, cells=cells)
    for (e, f) in shapes:
        for g, (checked, bad, _) in results[e * f].items():
            report.data_checked += (width - g[-1]) * checked
            report.misaligned += (width - g[-1]) * bad
    report.certified = report.data_checked - report.misaligned
    if max_witnesses and any(hits for runs in results.values() for _, _, hits in runs.values()):
        found = _witnesses_in_cell_order(shapes, n_max, kappa_min, kappa_max, results)
        report.witnesses = list(islice(found, max_witnesses))
    return report
