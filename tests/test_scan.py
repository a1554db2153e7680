from fractions import Fraction

import pytest
from kernel_oracle import search_python

from slopecert import kernels
from slopecert import scan as scan_mod
from slopecert.admissibility import PhiModuleDatum, alignment_check, find_misaligned_candidate
from slopecert.errors import SlopecertError
from slopecert.scan import run_scan, scan_cells


def test_cells_cover_expected_shapes():
    cells = scan_cells(n_max=2, kappa_min=-1, kappa_max=1, ef_values=((1, 1),))
    # 3 rank-1 tuples + 6 sorted rank-2 tuples
    assert len(cells) == 9


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


def test_worker_sharding_is_deterministic():
    kwargs = dict(n_max=2, kappa_min=-2, kappa_max=2, ef_values=((1, 1), (1, 2)), band_scale=2)
    one = run_scan(workers=1, **kwargs)
    two = run_scan(workers=2, **kwargs)
    assert one.summary() == two.summary()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and maps in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers,cpus,expected",
    [(1000, 2, [2]), (1000, 64, [3]), (2, 64, [2]), (1000, None, []), (1, 64, [])],
)
def test_pool_is_capped_by_cpus_and_cells(monkeypatch, workers, cpus, expected):
    monkeypatch.setattr(scan_mod, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(scan_mod.os, "cpu_count", lambda: cpus)
    RecordingPool.sizes = []
    kwargs = dict(n_max=1, kappa_min=0, kappa_max=2, ef_values=((1, 1),))  # kappa (0,), (1,), (2,)
    assert len(scan_cells(**kwargs)) == 3
    assert run_scan(workers=workers, **kwargs).summary() == run_scan(**kwargs).summary()
    assert RecordingPool.sizes == expected


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_rejected(workers):
    with pytest.raises(ValueError, match="workers"):
        run_scan(n_max=1, workers=workers)


def test_grid_cap_guard():
    with pytest.raises(SlopecertError):
        run_scan(n_max=4, kappa_min=-3, kappa_max=3, max_cells=10)


def test_empty_grid_gives_empty_summary():
    rep = run_scan(n_max=2, kappa_min=1, kappa_max=0)
    assert rep.cells == 0 and rep.data_checked == 0 and rep.misaligned == 0
    assert rep.witnesses == []


def test_backend_summaries_agree(monkeypatch):
    """The scan reads the same with the plain-loop oracle in place of the kernel."""
    kwargs = dict(n_max=3, kappa_min=-2, kappa_max=2, ef_values=((1, 1), (2, 1)), band_scale=2)
    fast = run_scan(**kwargs)

    def oracle(kappa, scaled, e, denom, tau, require_misaligned=True, tables=None):
        return search_python(kappa, scaled, e, denom, tau, require_misaligned)

    monkeypatch.setattr(kernels, "find_candidate", oracle)
    slow = run_scan(**kwargs)
    assert fast.misaligned > 0
    assert slow.summary() == fast.summary()
