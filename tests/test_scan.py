import time
import weakref
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from kernel_oracle import search_python
from scan_oracle import scan_cell_per_datum, scan_cells, scan_per_cell

from slopecert import kernels
from slopecert import scan as scan_mod
from slopecert.admissibility import PhiModuleDatum, alignment_check, find_misaligned_candidate
from slopecert.cli import run_job
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
    """One flag pass per chunk of each (m, length), each class of each
    distinct m in exactly one, and no other kernel call: the witnesses come
    from the flag pass."""
    kwargs = dict(n_max=3, kappa_min=-2, kappa_max=3, ef_values=((1, 1), (2, 1), (1, 2)), band_scale=2)
    width = 6
    calls, passes, tables = [], [], []
    find_candidate, candidate_tables = kernels.find_candidate, kernels.CandidateTables
    first_misaligned = kernels.first_misaligned

    def counting_find(*args, **kw):
        calls.append(args[0])
        return find_candidate(*args, **kw)

    def counting_flags(kappas):
        passes.append(tuple(tuple(map(tuple, kappa)) for kappa in kappas.tolist()))
        return first_misaligned(kappas)

    def counting_tables(kappa):
        tables.append(kappa)
        return candidate_tables(kappa)

    monkeypatch.setattr(kernels, "find_candidate", counting_find)
    monkeypatch.setattr(kernels, "first_misaligned", counting_flags)
    monkeypatch.setattr(kernels, "CandidateTables", counting_tables)
    rep = run_scan(max_witnesses=5, **kwargs)
    # (0,), then (0, a), (0, a, b) with b < 6; (2, 1) and (1, 2) share m = 2.
    # Every chunk fits the budget: one pass per (m, length), its stack the
    # length's classes in order
    classes = list(scan_mod._gap_classes(3, width))
    assert len(classes) == 1 + 5 + 10
    want = [tuple((g,) * m for g in classes if len(g) == n) for m in (1, 2) for n in (1, 2, 3)]
    assert passes == want
    assert rep.misaligned > 0 and len(rep.witnesses) == 5
    assert calls == [] and tables == []


def test_every_class_alone_reads_the_same(monkeypatch):
    """A chunk budget of one s_1 row: every class of length >= 2 runs in a
    chunk of its own, and the report does not change."""
    kwargs = dict(n_max=3, kappa_min=-2, kappa_max=3, ef_values=((1, 1), (2, 1)), band_scale=2, max_witnesses=7)
    want = run_scan(**kwargs).summary()
    stacks, first_misaligned = [], kernels.first_misaligned

    def recording_flags(kappas):
        stacks.append(len(kappas))
        return first_misaligned(kappas)

    monkeypatch.setattr(kernels, "_JOIN_STATES", 1)
    monkeypatch.setattr(kernels, "first_misaligned", recording_flags)
    assert run_scan(**kwargs).summary() == want
    assert want["misaligned"] > 0 and set(stacks) == {1}
    assert len(stacks) == 2 * sum(1 for _ in scan_mod._gap_classes(3, 6))


def test_chunks_count_s_1_rows_per_multiset(monkeypatch):
    """At m = 9 a chunk is sized by the s_1 rows the flag pass builds, one
    per multiset of the m - 1 other image choices, as the caps count them:
    each length runs in one chunk, and the report is that of every class
    alone."""
    kwargs = dict(n_max=4, kappa_min=-3, kappa_max=3, ef_values=((3, 3),), band_scale=1)
    stacks, first_misaligned = [], kernels.first_misaligned

    def recording_flags(kappas):
        stacks.append(len(kappas))
        return first_misaligned(kappas)

    monkeypatch.setattr(kernels, "first_misaligned", recording_flags)
    want = run_scan(**kwargs).summary()
    classes = list(scan_mod._gap_classes(4, 7))
    assert stacks == [sum(len(g) == n for g in classes) for n in (1, 2, 3, 4)]
    stacks.clear()
    monkeypatch.setattr(kernels, "_JOIN_STATES", 1)
    assert run_scan(**kwargs).summary() == want
    assert want["data_checked"] > 0 and stacks == [1] * len(classes)


def test_a_chunk_reads_as_its_classes_alone(monkeypatch):
    """Counts per class do not depend on the classes flagged beside it, and
    the pinned witnesses are the first three of the classes in order, each
    as its class pins it alone, in one block or in blocks of seven vectors
    that cross class ends."""
    classes = [g for g in scan_mod._gap_classes(3, 7) if len(g) == 3]
    alone = [scan_mod._scan_length(2, [g], 3, 1, 3)[0] for g in classes]
    assert sum(len(hits) > 1 for _, _, hits in alone) > 1
    want, room = [], 3
    for checked, bad, hits in alone:
        want.append((checked, bad, hits[:room]))
        room -= len(want[-1][2])
    assert sum(bool(hits) for _, _, hits in want) > 1
    assert scan_mod._scan_length(2, classes, 3, 1, 3) == want
    monkeypatch.setattr(scan_mod, "_BLOCK", 7)
    assert scan_mod._scan_length(2, classes, 3, 1, 3) == want


def test_pins_only_the_witnesses_a_report_reads(monkeypatch):
    """At most ``max_witnesses`` hits per (m, length), though the flagged
    vectors of a length span several classes and blocks of seven vectors
    cross class ends; each hit is the oracle's first misaligned candidate
    of its vector, and the report equals the per-cell oracle's, witnesses
    from several classes of one length among it."""
    kwargs = dict(n_max=3, kappa_min=-2, kappa_max=4, ef_values=((1, 1), (2, 1)), band_scale=3, max_witnesses=6)
    want = scan_per_cell(**kwargs).summary()
    kept, scan_length = [], scan_mod._scan_length

    def recording_length(m, classes, *args):
        runs = scan_length(m, classes, *args)
        kept.append((m, len(classes[0]), [(g, hits) for g, (_, _, hits) in zip(classes, runs)]))
        return runs

    monkeypatch.setattr(scan_mod, "_scan_length", recording_length)
    monkeypatch.setattr(scan_mod, "_BLOCK", 7)
    assert run_scan(**kwargs).summary() == want
    assert len({tuple(w["kappa"]) for w in want["witnesses"]}) == 6
    assert [(m, n) for m, n, _ in kept] == [(m, n) for m in (1, 2) for n in (1, 2, 3)]
    for m, n, runs in kept:
        assert sum(len(hits) for _, hits in runs) <= 6
        for g, hits in runs:
            for scaled, subset, images in hits:
                _, mask, img = search_python((g,) * m, scaled, 1, 1, 0)
                assert subset == tuple(b + 1 for b in range(n) if mask >> b & 1)
                assert images == tuple(b + 1 for b in range(n) if img[0] >> b & 1)
    # at m = 1 and length 3, several classes hold flagged vectors, more than
    # six in all: keeping six per class would keep more
    assert sum(len(hits) for _, hits in kept[2][2]) == 6
    classes = [g for g in scan_mod._gap_classes(3, 7) if len(g) == 3]
    bad = [scan_cell_per_datum(1, 1, g, Fraction(3), 0)[1] for g in classes]
    assert sum(b > 0 for b in bad) > 1 and sum(min(b, 6) for b in bad) > 6


def test_certified_class_builds_no_reachable_set(monkeypatch):
    """At band 1 and at band 2 the scan builds no candidate tables, and its
    flag-pass stacks build no s_0, the reachable set the listing reads."""
    made, candidate_tables = [], kernels.CandidateTables
    built, table = [], kernels._Table

    def recording_tables(kappa):
        made.append(candidate_tables(kappa))
        return made[-1]

    def recording_table(stack):
        built.append(table(stack))
        return built[-1]

    monkeypatch.setattr(kernels, "CandidateTables", recording_tables)
    monkeypatch.setattr(kernels, "_Table", recording_table)
    for band, want in ((1, (81, 0, 0)), (2, (625, 1, 1))):
        built.clear()
        [(checked, bad, hits)] = scan_mod._scan_length(2, [(0, 4, 8, 12)], band, 1, 5)
        assert (checked, bad, len(hits)) == want
        assert len(built) == 1 and "suffix" not in built[0].__dict__
    rep = run_scan(n_max=3, kappa_min=-2, kappa_max=2, ef_values=((1, 1), (2, 1)), band_scale=2)
    assert rep.witnesses and built and not any("suffix" in t.__dict__ for t in built)
    assert made == []


def test_class_scan_in_small_blocks(monkeypatch):
    """Blocks of seven slope vectors: flags, counts and witnesses cross
    block ends, and blocks cross class ends."""
    kwargs = dict(n_max=3, kappa_min=-2, kappa_max=3, ef_values=((1, 1), (2, 1)), band_scale=2, max_witnesses=7)
    want = scan_per_cell(**kwargs).summary()
    monkeypatch.setattr(scan_mod, "_BLOCK", 7)
    assert want["misaligned"] > 0 and len(want["witnesses"]) == 7
    assert run_scan(**kwargs).summary() == want
    # chunks of three classes at m = 1 and join pieces of three states:
    # blocks and pieces cross from one class to the next
    monkeypatch.setattr(kernels, "_JOIN_STATES", 3)
    assert run_scan(**kwargs).summary() == want


def test_one_table_per_chunk(monkeypatch):
    """Blocks of seven slope vectors and chunks of two or three classes:
    each chunk builds one table for all of its blocks, no chunk twice, and
    the last chunk's table and suffix sums are gone before the next chunk's
    table is built."""
    kwargs = dict(n_max=3, kappa_min=-2, kappa_max=3, ef_values=((1, 1), (2, 1)), band_scale=2, max_witnesses=7)
    want = run_scan(**kwargs).summary()
    stacks, alive, table, sums = [], [], kernels._Table, kernels._Table.sums

    def recording_table(stack):
        assert all(ref() is None for ref in alive)
        stacks.append(tuple(map(tuple, stack[:, 0].tolist())))
        alive.append(weakref.ref(built := table(stack)))
        return built

    def recording_sums(self, last=1):
        for keyed in sums(self, last):
            alive.append(weakref.ref(keyed[0]))
            yield keyed

    monkeypatch.setattr(scan_mod, "_BLOCK", 7)
    monkeypatch.setattr(kernels, "_JOIN_STATES", 30)
    monkeypatch.setattr(table, "sums", recording_sums)
    monkeypatch.setattr(kernels, "_Table", recording_table)
    assert run_scan(**kwargs).summary() == want
    # per m, the classes of length >= 2 in order, each in one stack, no
    # stack twice: length 2 in one chunk, length 3 in chunks of 3 (m = 1)
    # and 2 (m = 2)
    classes = [g for g in scan_mod._gap_classes(3, 6) if len(g) > 1]
    assert [len(stack) for stack in stacks] == [5, 3, 3, 3, 1] + [5, 2, 2, 2, 2, 2]
    assert [g for stack in stacks for g in stack] == classes + classes


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


def test_wide_shapes_refused_by_their_s_1_rows(monkeypatch):
    # ef [[10, 10]] at n_max 4 gave no answer within 150 s, and [[4, 4]] at
    # n_max 6 ran out of memory after 70 s at 2.7 GB; both list only 180
    # and 201 slope vectors, within MAX_DATA.  The (1, 1) shape adds its
    # one row of s_1 = {0} per label
    start = time.perf_counter()
    for ef, n_max, rows in (((10, 10), 4, 91_962_521), ((4, 4), 6, 1_855_967_521)):
        with pytest.raises(SlopecertError) as refused:
            run_scan(n_max=n_max, ef_values=(ef, (1, 1)))
        assert str(refused.value) == f"flag-pass tables hold up to {rows} s_1 rows over 2 distinct m = e*f, above scan.MAX_S1_ROWS = 1000000"
    assert time.perf_counter() - start < 1
    # the estimate takes the longest class that runs: a box of width 3 runs
    # none longer than 3, and a negative band none longer than 1
    monkeypatch.setattr(scan_mod, "_scan_length", lambda m, classes, *args: [(0, 0, [])] * len(classes))
    assert run_scan(n_max=4, kappa_min=0, kappa_max=2, ef_values=((10, 10),)).cells == 34
    assert run_scan(n_max=4, ef_values=((10, 10),), band_scale=-1).cells == 329


def test_shapes_at_the_s_1_row_cap_run(monkeypatch):
    # ef [[2, 2]] at n_max 4 holds up to C(8, 3) = 56 rows of s_1 and
    # [[1, 1]] one: run at a cap of 57, refused at 56.  ef [[6, 6]] (658,008
    # rows) stays under the cap, and so do the default shapes at n_max 6
    # (1 + 20 + 1,540 rows)
    kwargs = dict(n_max=4, kappa_min=-1, kappa_max=3, ef_values=((2, 2), (1, 1)), band_scale=2)
    want = scan_per_cell(**kwargs).summary()
    monkeypatch.setattr(scan_mod, "MAX_S1_ROWS", 57)
    assert want["misaligned"] > 0 and run_scan(**kwargs).summary() == want
    monkeypatch.setattr(scan_mod, "MAX_S1_ROWS", 56)
    with pytest.raises(SlopecertError, match="up to 57 s_1 rows over 2 distinct m = e\\*f, above scan.MAX_S1_ROWS = 56$"):
        run_scan(**kwargs)
    monkeypatch.undo()
    ran = []
    monkeypatch.setattr(scan_mod, "_scan_length", lambda m, classes, *args: ran.append(m) or [(0, 0, [])] * len(classes))
    run_scan(n_max=4, ef_values=((6, 6),))
    run_scan(n_max=6)
    assert set(ran) == {36, 1, 2, 4}


def test_many_levels_refused_by_their_rows(monkeypatch):
    # ef [[70, 70]] and [[100, 100]] at n_max 2 hold 4,900 and 10,000 rows
    # of s_1, far under MAX_S1_ROWS, and list 268 slope vectors each; but a
    # table builds its m - 1 levels on the way to s_1, C(m + 1, 2) - 1 rows
    # with C(2, 1) = 2 image choices: they took 13.8 and 58.5 s.  [[1000,
    # 1000]] sits at the s_1 cap itself
    start = time.perf_counter()
    for ef, rows in (((70, 70), 12_007_449), ((100, 100), 50_004_999), ((1000, 1000), 500_000_499_999)):
        job = {"command": "keylemma-scan", "params": {"n_max": 2, "ef": [list(ef)]}}
        with pytest.raises(SlopecertError) as refused:
            run_job(job)
        want = f"flag-pass tables build up to {rows} rows over their m - 1 levels for 1 distinct m = e*f, above scan.MAX_LEVEL_ROWS = 5000000"
        assert str(refused.value) == want
    assert time.perf_counter() - start < 1
    # ef [[2, 2]] at n_max 4 builds up to C(9, 3) - 1 = 83 rows and [[1, 1]]
    # none: run at a cap of 83, refused at 82
    kwargs = dict(n_max=4, kappa_min=-1, kappa_max=3, ef_values=((2, 2), (1, 1)), band_scale=2)
    want = scan_per_cell(**kwargs).summary()
    monkeypatch.setattr(scan_mod, "MAX_LEVEL_ROWS", 83)
    assert want["misaligned"] > 0 and run_scan(**kwargs).summary() == want
    monkeypatch.setattr(scan_mod, "MAX_LEVEL_ROWS", 82)
    with pytest.raises(SlopecertError, match="up to 83 rows over their m - 1 levels for 2 distinct m = e\\*f, above scan.MAX_LEVEL_ROWS = 82$"):
        run_scan(**kwargs)


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
    # would take some 15 s and 0.6 GB; its 2,000,000,999,999 cells are
    # refused at once
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
    flag pass."""
    kwargs = dict(n_max=3, kappa_min=-2, kappa_max=2, ef_values=((1, 1), (2, 1)), band_scale=2)
    fast = run_scan(**kwargs)

    def oracle_flags(kappas):
        def flags(slopes, labels):
            first = [search_python(kappas[t].tolist(), s, 1, 1, 0) for s, t in zip(slopes.tolist(), labels.tolist())]
            return np.array([[mask, img[0]] if found else [0, 0] for found, mask, img in first], dtype=np.int64).reshape(-1, 2)

        return flags

    monkeypatch.setattr(kernels, "first_misaligned", oracle_flags)
    slow = run_scan(**kwargs)
    assert fast.misaligned > 0
    assert slow.summary() == fast.summary()


def test_a_longer_length_pins_what_the_shorter_leave():
    """Length 2 reports fewer witnesses than asked for, so the report takes
    the rest from length 3: each hit of a class counts once per cell of the
    class."""
    kwargs = dict(n_max=3, kappa_min=0, kappa_max=2, ef_values=((1, 1), (1, 2)), band_scale=3, max_witnesses=4)
    want = scan_per_cell(**kwargs).summary()
    assert {len(w["kappa"]) for w in want["witnesses"]} == {2, 3}
    assert run_scan(**kwargs).summary() == want


def test_shapes_under_the_cap_alone_refused_together(monkeypatch):
    # m = 36, 35, 34 and 33 each stay under MAX_S1_ROWS, but the scan runs
    # them one after another: this job took 17.3 s when the cap held per m.
    # Their rows add up past the cap, so it is refused before any class runs
    ran = []
    monkeypatch.setattr(scan_mod, "_scan_length", lambda m, classes, *args: ran.append(m) or [(0, 0, [])] * len(classes))
    ef = ((6, 6), (5, 7), (2, 17), (3, 11))
    rows = [comb(m + 4, 5) for m in (36, 35, 34, 33)]
    assert max(rows) < scan_mod.MAX_S1_ROWS < sum(rows) == 2_171_604
    job = {"command": "keylemma-scan", "params": {"n_max": 4, "kappa_min": -3, "kappa_max": 3, "ef": [list(s) for s in ef]}}
    with pytest.raises(SlopecertError) as refused:
        run_job(job)
    assert str(refused.value) == "flag-pass tables hold up to 2171604 s_1 rows over 4 distinct m = e*f, above scan.MAX_S1_ROWS = 1000000"
    assert ran == []
    # a repeated shape counts once
    run_scan(n_max=4, ef_values=((6, 6), (6, 6), (4, 9)))
    assert ran and set(ran) == {36}
