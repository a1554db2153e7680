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
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement, product
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
    """Scan one (e, f, N, kappa) cell; returns (checked, misaligned, witnesses)."""
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


def scan_cells(
    n_max: int = 4,
    kappa_min: int = -3,
    kappa_max: int = 3,
    ef_values=DEFAULT_EF,
) -> list:
    """The (e, f, kappa) cells of the scan grid, deterministic order."""
    cells = []
    for (e, f) in ef_values:
        for n in range(1, n_max + 1):
            for kappa in combinations_with_replacement(range(kappa_min, kappa_max + 1), n):
                cells.append((e, f, kappa))
    return cells


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

    The pool has min(workers, CPU count, cells) processes; with one, the
    cells run in this process.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    scale = Fraction(band_scale)
    cells = scan_cells(n_max, kappa_min, kappa_max, ef_values)
    if len(cells) > max_cells:
        raise SlopecertError(f"grid has {len(cells)} cells, above the cap {max_cells}")
    args = [
        (e, f, kappa, scale.numerator, scale.denominator, max_witnesses)
        for (e, f, kappa) in cells
    ]
    report = ScanReport(band_scale=scale, cells=len(cells))
    pool_size = min(workers, os.cpu_count() or 1, len(args))
    if pool_size > 1:
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            results = list(pool.map(_scan_cell, args, chunksize=64))
    else:
        results = [_scan_cell(a) for a in args]
    for checked, bad, wits in results:
        report.data_checked += checked
        report.misaligned += bad
        for w in wits:
            if len(report.witnesses) < max_witnesses:
                report.witnesses.append(w)
    report.certified = report.data_checked - report.misaligned
    return report
