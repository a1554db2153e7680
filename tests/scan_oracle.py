"""Per-cell key-lemma scan: the oracle for the gap-class scan.

Runs ``_scan_cell`` on every (e, f, kappa) cell of the grid, including the
cells with a repeated kappa entry, and merges the results in cell order.  It
uses no shift invariance, no multiplicities and no closed-form count.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

from slopecert.scan import DEFAULT_EF, ScanReport, _scan_cell


def scan_cells(n_max=4, kappa_min=-3, kappa_max=3, ef_values=DEFAULT_EF) -> list:
    """The (e, f, kappa) cells of the scan grid, in cell order."""
    cells = []
    for (e, f) in ef_values:
        for n in range(1, n_max + 1):
            for kappa in combinations_with_replacement(range(kappa_min, kappa_max + 1), n):
                cells.append((e, f, kappa))
    return cells


def scan_per_cell(n_max=4, kappa_min=-3, kappa_max=3, ef_values=DEFAULT_EF, band_scale=1, max_witnesses=5) -> ScanReport:
    scale = Fraction(band_scale)
    cells = scan_cells(n_max, kappa_min, kappa_max, ef_values)
    report = ScanReport(band_scale=scale, cells=len(cells))
    for (e, f, kappa) in cells:
        checked, bad, wits = _scan_cell((e, f, kappa, scale.numerator, scale.denominator, max_witnesses))
        report.data_checked += checked
        report.misaligned += bad
        for w in wits:
            if len(report.witnesses) < max_witnesses:
                report.witnesses.append(w)
    report.certified = report.data_checked - report.misaligned
    return report
