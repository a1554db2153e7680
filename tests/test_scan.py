import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import search_python
from scan_oracle import scan_cells, scan_per_cell

from slopecert import kernels
from slopecert import scan as scan_mod
from slopecert.admissibility import PhiModuleDatum, alignment_check, find_misaligned_candidate
from slopecert.errors import SlopecertError
from slopecert.scan import DEFAULT_EF, grid_cells, run_scan


def test_cells_cover_expected_shapes():
    cells = scan_cells(n_max=2, kappa_min=-1, kappa_max=1, ef_values=((1, 1),))
    # 3 rank-1 tuples + 6 sorted rank-2 tuples
    assert len(cells) == 9
    assert grid_cells(2, -1, 1, 1) == 9


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("width", [-2, 0, 1, 2, 5])
def test_closed_form_cell_count(n_max, width):
    kappa_min = -1
    kappa_max = kappa_min + width - 1
    expected = len(scan_cells(n_max, kappa_min, kappa_max, DEFAULT_EF))
    assert grid_cells(n_max, kappa_min, kappa_max, len(DEFAULT_EF)) == expected


@settings(max_examples=40, deadline=None)
@given(
    kappa_min=st.integers(-8, 8),
    width=st.integers(0, 8),
    n_max=st.integers(1, 4),
    ef_values=st.lists(st.sampled_from(DEFAULT_EF + ((3, 1),)), min_size=1, max_size=2).map(tuple),
    band_scale=st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(5, 2), Fraction(-1, 4)]),
    max_witnesses=st.integers(0, 7),
)
def test_class_scan_matches_per_cell_oracle(kappa_min, width, n_max, ef_values, band_scale, max_witnesses):
    kwargs = dict(
        n_max=n_max, kappa_min=kappa_min, kappa_max=kappa_min + width - 1,
        ef_values=ef_values, band_scale=band_scale, max_witnesses=max_witnesses,
    )
    assert run_scan(**kwargs).summary() == scan_per_cell(**kwargs).summary()


def test_each_gap_class_is_scanned_once(monkeypatch):
    """One flag pass per class of each distinct m, and kernel calls only to pin witnesses."""
    kwargs = dict(n_max=3, kappa_min=-2, kappa_max=3, ef_values=((1, 1), (2, 1), (1, 2)), band_scale=2)
    width, max_witnesses = 6, 5
    calls, passes, tables = [], [], []
    find_candidate, candidate_tables = kernels.find_candidate, kernels.CandidateTables
    misaligned_flags = candidate_tables.misaligned_flags

    def counting_find(*args, **kw):
        calls.append(args[0])
        return find_candidate(*args, **kw)

    def counting_flags(self, slopes):
        passes.append(self.weights)
        return misaligned_flags(self, slopes)

    def counting_tables(kappa):
        tables.append(kappa)
        return candidate_tables(kappa)

    monkeypatch.setattr(kernels, "find_candidate", counting_find)
    monkeypatch.setattr(candidate_tables, "misaligned_flags", counting_flags)
    monkeypatch.setattr(kernels, "CandidateTables", counting_tables)
    rep = run_scan(max_witnesses=max_witnesses, **kwargs)
    # (0,), then (0, a), (0, a, b) with b < 6; (2, 1) and (1, 2) share m = 2
    classes = 2 * sum(1 for _ in scan_mod._gap_classes(3, width))
    assert classes == 2 * (1 + 5 + 10)
    assert len(tables) == len(passes) == classes
    assert len(set(passes)) == classes
    assert rep.misaligned > 0 and 0 < len(calls) <= max_witnesses * classes
    for weights in set(calls):
        assert calls.count(weights) <= max_witnesses


def test_certified_class_builds_no_reachable_set(monkeypatch):
    """A class without witnesses runs only the flag join: no table builds s_0,
    the reachable set that pinning a witness reads."""
    made, candidate_tables = [], kernels.CandidateTables

    def recording_tables(kappa):
        made.append(candidate_tables(kappa))
        return made[-1]

    monkeypatch.setattr(kernels, "CandidateTables", recording_tables)
    for band, want in ((1, (81, 0, 0)), (2, (625, 1, 1))):
        made.clear()
        kernels._slot = None  # both bands scan one weight table: build it afresh
        checked, bad, hits = scan_mod._scan_class(2, (0, 4, 8, 12), band, 1, 5)
        assert (checked, bad, len(hits)) == want
        levels = [lv for tables in made for lv in tables._levels.values()]
        assert len(levels) == 2 and all("join" in lv.__dict__ for lv in levels)
        assert any("reach" in lv.__dict__ for lv in levels) == bool(hits)


def test_class_scan_in_small_blocks(monkeypatch):
    """Blocks of seven slope vectors: flags, counts and witnesses cross block ends."""
    kwargs = dict(n_max=3, kappa_min=-2, kappa_max=3, ef_values=((1, 1), (2, 1)), band_scale=2, max_witnesses=7)
    want = scan_per_cell(**kwargs).summary()
    monkeypatch.setattr(scan_mod, "_BLOCK", 7)
    assert want["misaligned"] > 0 and len(want["witnesses"]) == 7
    assert run_scan(**kwargs).summary() == want


def test_equal_m_shapes_share_one_class_result():
    """(1, 2) and (2, 1) read alike up to e, f and the slope denominators."""
    kwargs = dict(n_max=3, kappa_min=-2, kappa_max=2, band_scale=3)
    one = run_scan(ef_values=((1, 2),), **kwargs).summary()
    two = run_scan(ef_values=((2, 1),), **kwargs).summary()
    assert one["misaligned"] > 0
    for w in one["witnesses"]:
        w["e"], w["f"] = 2, 1
        w["slopes"] = [s.replace("/1", "/2") for s in w["slopes"]]
    assert one == two
    assert two == scan_per_cell(ef_values=((2, 1),), **kwargs).summary()


def test_data_count_matches_listing():
    grids = [(4, 0, 6, 1), (4, 0, 6, 2), (3, -2, 3, Fraction(5, 2)), (3, -2, 3, Fraction(-3, 2)), (2, 0, 0, 3), (0, 0, 4, 1)]
    grids += [(5, 0, 12, Fraction(2, 7)), (4, 0, 9, 0), (3, 0, 40, Fraction(9, 4))]  # long runs of one radius
    for n_max, lo, hi, band in grids:
        band = Fraction(band)
        listed = 0
        for g in scan_mod._gap_classes(n_max, hi - lo + 1):
            gap = min((b - a for a, b in zip(g, g[1:])), default=0)
            radius = scan_mod._radius(len(g), gap, band.numerator, band.denominator)
            listed += len(range(-radius, radius + 1)) ** len(g)
        assert scan_mod.data_count(n_max, lo, hi, band) == listed
    # the benchmark's grids, per shape, at bands 1 and 2; n_max=6 at band 3
    assert scan_mod.data_count(4, 0, 6, 1) == 180 and scan_mod.data_count(4, 0, 6, 2) == 824
    assert 4 * scan_mod.data_count(6, -5, 5, 3) == 94_856


def test_many_slope_vectors_refused_before_scanning(monkeypatch):
    start = time.perf_counter()
    monkeypatch.setattr(scan_mod, "MAX_CELLS", 400)
    with pytest.raises(SlopecertError, match="8121160 slope vectors, above scan.MAX_DATA = 2000000"):
        run_scan(n_max=4, kappa_min=0, kappa_max=6, ef_values=((1, 1),), band_scale=40)
    monkeypatch.undo()
    # distinct shapes count once each
    monkeypatch.setattr(scan_mod, "MAX_DATA", 359)
    with pytest.raises(SlopecertError, match="360 slope vectors, above scan.MAX_DATA = 359"):
        run_scan(n_max=4, kappa_min=0, kappa_max=6, ef_values=((1, 1), (1, 2), (1, 1)))
    assert time.perf_counter() - start < 1
    monkeypatch.setattr(scan_mod, "MAX_DATA", 360)
    assert run_scan(n_max=4, kappa_min=0, kappa_max=6, ef_values=((1, 1), (1, 2))).data_checked > 0


def test_data_count_stops_past_max_data_squared(monkeypatch):
    # exact up to MAX_DATA ** 2, a lower bound above it
    exact = scan_mod.data_count(4, 0, 6, 40)
    assert exact == 8_121_160
    monkeypatch.setattr(scan_mod, "MAX_DATA", 1000)
    monkeypatch.setattr(scan_mod, "MAX_CELLS", 400)
    assert 10**6 < scan_mod.data_count(4, 0, 6, 40) < exact
    with pytest.raises(SlopecertError, match=f"grid lists at least {scan_mod.data_count(4, 0, 6, 40)} slope vectors"):
        run_scan(n_max=4, kappa_min=0, kappa_max=6, ef_values=((1, 1),), band_scale=40)


def test_wide_box_counted_and_scanned_whatever_max_cells(monkeypatch):
    # the least gap d of a box of width 10**8 takes every value up to 10**8;
    # summing over them one by one did not end in 30 s
    monkeypatch.setattr(scan_mod, "MAX_CELLS", 10**20)
    start = time.perf_counter()
    with pytest.raises(SlopecertError, match=r"grid lists at least \d+ slope vectors, above scan.MAX_DATA"):
        run_scan(n_max=2, kappa_min=0, kappa_max=10**8, ef_values=((1, 1),))
    # a negative band lists nothing in the 300,000 classes of length 2, which
    # ran all the same and took 5.9 s; only the class (0,) runs
    rep = run_scan(n_max=2, kappa_min=0, kappa_max=300_000, ef_values=((1, 1),), band_scale=-1)
    assert time.perf_counter() - start < 1
    assert rep.summary() == {
        "band_scale": "-1/1", "cells": 45_000_750_002, "data_checked": 300_001,
        "certified": 300_001, "misaligned": 0, "witnesses": [],
    }


def test_wide_grid_refused_before_listing(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(SlopecertError, match="18030008 cells, above scan.MAX_CELLS = 2000000"):
        run_scan(n_max=2, kappa_min=0, kappa_max=3000)
    monkeypatch.setattr(scan_mod, "MAX_CELLS", 40)
    with pytest.raises(SlopecertError, match="above scan.MAX_CELLS = 40"):
        run_scan(n_max=6, kappa_min=-10**9, kappa_max=10**9)
    assert time.perf_counter() - start < 1


def test_band_zero_box_refused_by_the_cells_cap():
    # at band 0 every class of a box lists one vector, so MAX_DATA alone
    # admits about 2 M classes: box 0..1,999,998 lists 1,999,999 vectors and
    # would take minutes; its 2,000,000,999,999 cells are refused at once
    start = time.perf_counter()
    assert scan_mod.data_count(2, 0, 1_999_998, 0) == 1_999_999 <= scan_mod.MAX_DATA
    with pytest.raises(SlopecertError, match="2000000999999 cells, above scan.MAX_CELLS = 2000000"):
        run_scan(n_max=2, kappa_min=0, kappa_max=1_999_998, ef_values=((1, 1),), band_scale="0/1")
    assert time.perf_counter() - start < 1


def test_far_window_matches_per_cell_oracle():
    """Far from zero every slope moves by m*c; the class scan translates its witnesses there."""
    kwargs = dict(n_max=3, kappa_min=10**12, kappa_max=10**12 + 4, ef_values=((2, 2),), band_scale=2)
    far = run_scan(**kwargs)
    assert far.misaligned > 0 and far.witnesses[0].kappa[0] >= 10**12
    assert far.summary() == scan_per_cell(**kwargs).summary()


def test_band_one_certifies_small_grid():
    rep = run_scan(n_max=3, kappa_min=-2, kappa_max=2, ef_values=((1, 1), (2, 1)))
    assert rep.misaligned == 0
    assert rep.certified == rep.data_checked > 0


def test_doubled_band_finds_misalignment():
    rep = run_scan(n_max=2, kappa_min=-2, kappa_max=2, ef_values=((1, 1),), band_scale=2)
    assert rep.misaligned > 0
    assert rep.witnesses
    w = rep.witnesses[0]
    # re-check the pinned witness through the full alignment machinery
    slopes = [Fraction(n, d) for (n, d) in w.slopes]
    datum = PhiModuleDatum(w.e, 1, slopes, [list(w.kappa)] * (w.e * w.f))
    cand = find_misaligned_candidate(datum, 1)
    assert cand is not None and cand.subset == w.subset
    # and the original hypothesis rejects it
    assert alignment_check(datum, 1).status == "hypothesis_failed"


def test_pinned_regression_witness():
    """kappa = (0, 1), slopes (1, 0): the swap candidate passes the relaxed
    band but fails the strict hypothesis with deviation 1 > 1/2."""
    datum = PhiModuleDatum(1, 1, [1, 0], [[0, 1]])
    cand = find_misaligned_candidate(datum, 1)
    assert cand is not None
    assert cand.subset == (1,) and cand.theta_row(1) == (2, 1)
    assert alignment_check(datum, 1).status == "hypothesis_failed"


def test_grid_cap_guard(monkeypatch):
    monkeypatch.setattr(scan_mod, "MAX_CELLS", 10)
    with pytest.raises(SlopecertError):
        run_scan(n_max=4, kappa_min=-3, kappa_max=3)


def test_empty_grid_gives_empty_summary():
    for kappa_max in (0, -3):
        rep = run_scan(n_max=2, kappa_min=1, kappa_max=kappa_max, band_scale=2)
        assert rep.cells == 0 and rep.data_checked == 0 and rep.misaligned == 0
        assert rep.witnesses == []


def test_backend_summaries_agree(monkeypatch):
    """The scan reads the same with the plain-loop oracle in place of the
    flag pass and of the witness search."""
    kwargs = dict(n_max=3, kappa_min=-2, kappa_max=2, ef_values=((1, 1), (2, 1)), band_scale=2)
    fast = run_scan(**kwargs)

    def oracle_flags(self, slopes):
        return np.array([search_python(self.weights, s, 1, 1, 0, True)[0] for s in slopes.tolist()], dtype=bool)

    def oracle(kappa, scaled, e, denom, tau):
        return search_python(kappa, scaled, e, denom, tau, True)

    monkeypatch.setattr(kernels.CandidateTables, "misaligned_flags", oracle_flags)
    monkeypatch.setattr(kernels, "find_candidate", oracle)
    slow = run_scan(**kwargs)
    assert fast.misaligned > 0
    assert slow.summary() == fast.summary()
