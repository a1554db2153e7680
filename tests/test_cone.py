from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import cone_oracle
from cone_oracle import LinearForm, gap_form, total_sum_form
from slopecert.cone import cone_find


def dominant_tables(rank, embeddings, max_val):
    """Exhaustive oracle: all dominant tables with entries <= max_val."""
    rows = [
        row
        for row in product(range(max_val + 1), repeat=rank)
        if all(row[i] >= row[i + 1] for i in range(rank - 1))
    ]
    return product(rows, repeat=embeddings)


def oracle_minimum(forms, bounds, rank, embeddings, max_val):
    """Grid-search the documented order: sum ascending, reading-order lex."""
    best = None
    for table in dominant_tables(rank, embeddings, max_val):
        if all(f.value(table) > b for f, b in zip(forms, bounds)):
            key = (sum(map(sum, table)), table)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]


def gap_cone_forms(rank, m, gap=None, column_gaps=(), total=None):
    """The linear forms and strict bounds of a gap cone, for the oracles."""
    forms, bounds = [], []
    if gap is not None:
        forms += [gap_form(m, rank, s, i) for s in range(1, m + 1) for i in range(1, rank + 1)]
        bounds += [gap] * (m * rank)
    for i, b in enumerate(column_gaps, 1):
        if i < rank:
            entries = {(s, j): c for s in range(1, m + 1) for j, c in ((i, 1), (i + 1, -1))}
        else:  # the last gap is k[sigma][rank] itself
            entries = {(s, rank): 1 for s in range(1, m + 1)}
        forms.append(LinearForm.from_entries(m, rank, entries))
        bounds.append(b)
    if total is not None:
        forms.append(total_sum_form(m, rank))
        bounds.append(total)
    return forms, bounds


def test_contract_examples():
    assert cone_find(2, column_gaps=[5, 3]).rows == ((10, 4),)
    assert cone_find(2).rows == ((0, 0),)
    assert cone_find(1, column_gaps=[Fraction(9, 2)]).rows == ((5,),)
    # the same cones as generic forms, through the oracle
    forms = [
        LinearForm.from_entries(1, 2, {(1, 1): 1, (1, 2): -1}),
        LinearForm.from_entries(1, 2, {(1, 2): 1}),
    ]
    assert cone_oracle.cone_find(forms, [5, 3], rank=2).rows == ((10, 4),)
    assert cone_oracle.cone_find([], [], rank=2).rows == ((0, 0),)
    form = LinearForm.from_entries(1, 1, {(1, 1): 1})
    assert cone_oracle.cone_find([form], [Fraction(9, 2)], rank=1).rows == ((5,),)


def test_postcondition_recheck():
    t = cone_find(3, gap=0, total=Fraction(25, 2))
    forms, bounds = gap_cone_forms(3, 1, gap=0, total=Fraction(25, 2))
    for f, b in zip(forms, bounds):
        assert f.value(t.rows) > b
    row = t.rows[0]
    assert row[0] >= row[1] >= row[2] >= 0


@pytest.mark.parametrize(
    "entries,bounds,rank,m",
    [
        ([{(1, 1): 2, (1, 2): 2}], [18], 2, 1),
        ([{(1, 1): 1, (1, 2): -1}, {(1, 2): 1}], [5, 3], 2, 1),
        ([{(1, 1): 1}, {(2, 1): 1}, {(1, 2): 1, (2, 2): 1}], [2, 1, 3], 2, 2),
        ([{(1, 1): 3, (1, 3): 1}], [Fraction(17, 2)], 3, 1),
    ],
)
def test_matches_grid_search_oracle(entries, bounds, rank, m):
    # generic forms, beyond any gap cone: this checks the generic search itself
    forms = [LinearForm.from_entries(m, rank, e) for e in entries]
    expected = oracle_minimum(forms, bounds, rank, m, max_val=14)
    got = cone_oracle.cone_find(forms, bounds, rank, m)
    assert got.rows == expected


@pytest.mark.parametrize(
    "rank,m,cone",
    [
        (2, 1, {"gap": 0, "total": 9}),
        (2, 2, {"gap": 0, "total": 10}),
        (3, 1, {"gap": 0, "column_gaps": [Fraction(3, 2), -2]}),
        (2, 2, {"gap": 0, "column_gaps": [-1, 3]}),
        (2, 2, {"gap": Fraction(1, 2)}),
        (3, 2, {"gap": -2, "column_gaps": [0, 2, Fraction(-1, 2)], "total": 8}),
    ],
)
def test_closed_form_matches_grid_search(rank, m, cone):
    forms, bounds = gap_cone_forms(rank, m, **cone)
    expected = oracle_minimum(forms, bounds, rank, m, max_val=8)
    assert cone_find(rank, m, **cone).rows == expected


def test_deterministic():
    a = cone_find(2, gap=0, total=9)
    b = cone_find(2, gap=0, total=9)
    assert a.rows == b.rows == ((6, 4),)


def test_empty_cone_within_radius():
    # the oracle takes any forms: -k1 > 0 has no nonnegative solution
    neg = LinearForm.from_entries(1, 1, {(1, 1): -1})
    with pytest.raises(cone_oracle.NoPoint):
        cone_oracle.cone_find([neg], [0], rank=1, radius=30)


def test_closed_form_has_no_ceiling():
    # a gap cone always has a first point, however deep: no radius, no error
    assert cone_find(1, column_gaps=[10**30]).rows == ((10**30 + 1,),)
    deep = cone_find(2, 3, gap=Fraction(7, 2) * 10**20)
    g = 35 * 10**19 + 1
    assert deep.rows == ((2 * g, g),) * 3


def test_two_embeddings_minimum():
    # one aggregate across both rows plus per-row regularity
    t = cone_find(2, 2, gap=0, total=10)
    forms, bounds = gap_cone_forms(2, 2, gap=0, total=10)
    assert t.rows == oracle_minimum(forms, bounds, 2, 2, max_val=12)
    assert 2 * t.total() > 20


def _bound(lo, hi):
    """Integers and halves in [lo, hi]."""
    return st.integers(2 * lo, 2 * hi).map(lambda n: Fraction(n, 2))


@st.composite
def gap_cones(draw):
    """A cone of one of the replay's three families, or all bounds at once.

    Bounds stay small because the oracle's search grows steeply with a
    non-positive column-gap bound ahead of a positive one.
    """
    rank = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["total", "columns", "gap", "all"]))
    cone = {"gap": draw(st.none() | _bound(-2, 2))}
    if family in ("total", "all"):
        cone["total"] = draw(_bound(-4, 12))
    if family in ("columns", "all"):
        cone["column_gaps"] = draw(st.lists(_bound(-2, 3), max_size=rank))
    return rank, m, cone


@settings(max_examples=200, deadline=None)
@given(gap_cones())
def test_matches_generic_search(case):
    rank, m, cone = case
    forms, bounds = gap_cone_forms(rank, m, **cone)
    expected = cone_oracle.cone_find(forms, bounds, rank, m)
    assert cone_find(rank, m, **cone).rows == expected.rows
