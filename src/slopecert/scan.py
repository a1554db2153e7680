"""Exhaustive key-lemma scan over a desk-scale grid of Frobenius-module data.

The grid fixes one ascending weight tuple kappa in a box, replicated across
the e*f embeddings of each (e, f) shape, and walks every slope vector on the
(1/e)-grid whose deviations from the weight means stay inside the alignment
hypothesis band (optionally widened by ``band_scale``).  Weight rows with a
zero gap force zero deviations and therefore equal slopes, which the
distinctness requirement discards, so only strictly increasing kappa rows
contribute.

For each datum the candidate search runs on the integer kernel; a datum
counts as *misaligned* when some passing candidate moves a weight value on
the distinguished row.  With band_scale = 1 the alignment lemma says the
misaligned count is zero; with band_scale = 2 misaligned witnesses exist and
the first few are pinned into the report.

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
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice, product
from math import comb
from typing import List, Tuple

from . import kernels
from .errors import SlopecertError

DEFAULT_EF = ((1, 1), (1, 2), (2, 1), (2, 2))


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


def _scan_cell(args) -> Tuple[int, int, List[ScanWitness]]:
    """Scan one (e, f, kappa) cell; returns (checked, misaligned, witnesses)."""
    e, f, kappa, band_num, band_den, max_witnesses = args
    n = len(kappa)
    m = e * f
    weights = tuple(tuple(kappa) for _ in range(m))
    tables = kernels.CandidateTables(weights)
    centers = [m * kv for kv in kappa]  # e * weight-mean, an integer
    if n == 1:
        radius = 0  # rank 1 has a vacuous hypothesis; pin deviation 0
        gap = 0
    else:
        gap = min(kappa[j + 1] - kappa[j] for j in range(n - 1))
        # |dev| <= band_scale * gap / (e N) with dev on the (1/e)-grid:
        # integer units dev_e = e*dev, so |dev_e| <= band_scale * gap / N.
        radius = (band_num * gap) // (band_den * n)
    checked = 0
    bad = 0
    witnesses: List[ScanWitness] = []
    devs = range(-radius, radius + 1)
    for dev in product(devs, repeat=n):
        scaled = [centers[i] + dev[i] for i in range(n)]  # slope * e
        if len(set(scaled)) != n:
            continue
        checked += 1
        found, mask, img = kernels.find_candidate(
            weights, scaled, e, e, 0, require_misaligned=True, tables=tables
        )
        if found:
            bad += 1
            if len(witnesses) < max_witnesses:
                subset = tuple(b + 1 for b in range(n) if mask >> b & 1)
                images = tuple(b + 1 for b in range(n) if img[0] >> b & 1)
                witnesses.append(
                    ScanWitness(
                        e, f, tuple(kappa),
                        tuple((s, e) for s in scaled),
                        subset, images,
                    )
                )
    return checked, bad, witnesses


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


def _witnesses_in_cell_order(shapes, n_max, kappa_min, kappa_max, results):
    """Every cell's witnesses, translated from its class, in cell order.

    Cells run by shape, then length, then kappa lexicographic; within one
    length that is kappa[0] = c ascending, then the class lexicographic.
    """
    for (e, f) in shapes:
        m = e * f
        for n in range(1, n_max + 1):
            found = [(g, wits) for g, (_, _, wits) in results[e, f].items() if wits and len(g) == n]
            for c in range(kappa_min, kappa_max + 1):
                found = [(g, wits) for (g, wits) in found if g[-1] <= kappa_max - c]
                if not found:
                    break
                for g, wits in found:
                    kappa = tuple(k + c for k in g)
                    for w in wits:
                        slopes = tuple((s + m * c, d) for (s, d) in w.slopes)
                        yield ScanWitness(e, f, kappa, slopes, w.subset, w.images_tau)


def run_scan(
    n_max: int = 4,
    kappa_min: int = -3,
    kappa_max: int = 3,
    ef_values=DEFAULT_EF,
    band_scale=1,
    max_witnesses: int = 5,
    workers: int = 1,
    max_cells: int = 2_000_000,
) -> ScanReport:
    """Run the exhaustive scan; deterministic regardless of worker count.

    Each gap class runs once per distinct shape.  The pool has
    min(workers, CPU count, classes) processes; with one, the classes run
    in this process.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    scale = Fraction(band_scale)
    shapes = [(e, f) for (e, f) in ef_values]
    cells = grid_cells(n_max, kappa_min, kappa_max, len(shapes))
    if cells > max_cells:
        raise SlopecertError(f"grid has {cells} cells, above the cap {max_cells}")
    width = kappa_max - kappa_min + 1
    classes = [(e, f, g) for (e, f) in dict.fromkeys(shapes) for g in _gap_classes(n_max, width)]
    args = [(e, f, g, scale.numerator, scale.denominator, max_witnesses) for (e, f, g) in classes]
    pool_size = min(workers, os.cpu_count() or 1, len(args))
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            outcomes = list(pool.map(_scan_cell, args, chunksize=8))
    else:
        outcomes = [_scan_cell(a) for a in args]
    results = {shape: {} for shape in shapes}
    for (e, f, g), outcome in zip(classes, outcomes):
        results[e, f][g] = outcome
    report = ScanReport(band_scale=scale, cells=cells)
    for shape in shapes:
        for g, (checked, bad, _) in results[shape].items():
            report.data_checked += (width - g[-1]) * checked
            report.misaligned += (width - g[-1]) * bad
    report.certified = report.data_checked - report.misaligned
    if max_witnesses and any(wits for _, _, wits in outcomes):
        found = _witnesses_in_cell_order(shapes, n_max, kappa_min, kappa_max, results)
        report.witnesses = list(islice(found, max_witnesses))
    return report
