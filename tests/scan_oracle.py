"""Per-cell, per-datum key-lemma scan: the oracle for the gap-class scan.

Runs one ``find_candidate`` per distinct slope vector of every (e, f, kappa)
cell of the grid, including the cells with a repeated kappa entry, and
merges the results in cell order.  It uses no shift invariance, no
multiplicities, no closed-form count, no sharing between shapes and no
batched flag pass.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

from slopecert import kernels
from slopecert.scan import DEFAULT_EF, ScanReport, ScanWitness


def scan_cells(n_max=4, kappa_min=-3, kappa_max=3, ef_values=DEFAULT_EF) -> list:
    """The (e, f, kappa) cells of the scan grid, in cell order."""
    cells = []
    for (e, f) in ef_values:
        for n in range(1, n_max + 1):
            for kappa in combinations_with_replacement(range(kappa_min, kappa_max + 1), n):
                cells.append((e, f, kappa))
    return cells


def scan_cell_per_datum(e, f, kappa, band_scale, max_witnesses):
    """(checked, misaligned, witnesses) of one cell, one kernel call per datum."""
    n = len(kappa)
    m = e * f
    weights = tuple(tuple(kappa) for _ in range(m))
    centers = [m * kv for kv in kappa]  # e * weight-mean, an integer
    if n == 1:
        radius = 0  # rank 1 has a vacuous hypothesis; pin deviation 0
    else:
        gap = min(kappa[j + 1] - kappa[j] for j in range(n - 1))
        # |dev| <= band_scale * gap / (e N) with dev on the (1/e)-grid:
        # integer units dev_e = e*dev, so |dev_e| <= band_scale * gap / N.
        radius = (band_scale.numerator * gap) // (band_scale.denominator * n)
    checked = 0
    bad = 0
    witnesses = []
    for dev in product(range(-radius, radius + 1), repeat=n):
        scaled = [centers[i] + dev[i] for i in range(n)]  # slope * e
        if len(set(scaled)) != n:
            continue
        checked += 1
        found, mask, img = kernels.find_candidate(weights, scaled, e, e, 0)
        if found:
            bad += 1
            if len(witnesses) < max_witnesses:
                subset = tuple(b + 1 for b in range(n) if mask >> b & 1)
                images = tuple(b + 1 for b in range(n) if img[0] >> b & 1)
                witnesses.append(ScanWitness(e, f, tuple(kappa), tuple((s, e) for s in scaled), subset, images))
    return checked, bad, witnesses


def scan_per_cell(n_max=4, kappa_min=-3, kappa_max=3, ef_values=DEFAULT_EF, band_scale=1, max_witnesses=5) -> ScanReport:
    scale = Fraction(band_scale)
    cells = scan_cells(n_max, kappa_min, kappa_max, ef_values)
    report = ScanReport(band_scale=scale, cells=len(cells))
    for (e, f, kappa) in cells:
        checked, bad, wits = scan_cell_per_datum(e, f, kappa, scale, max_witnesses)
        report.data_checked += checked
        report.misaligned += bad
        for w in wits:
            if len(report.witnesses) < max_witnesses:
                report.witnesses.append(w)
    report.certified = report.data_checked - report.misaligned
    return report
