"""Generic depth-first cone search, kept as an independent oracle for
``slopecert.cone.cone_find``.

It accepts any integer linear forms with strict rational lower bounds on
top of dominance and returns the first dominant integral point in the
order: total coordinate sum ascending, then coordinates in reading order
(row 1 left to right, then row 2, ...) lexicographically ascending.  It
shares no code with the closed-form minimizer in the package; only the
``WeightTable`` result is common.  ``LinearForm``, ``gap_form`` and
``total_sum_form`` state the bounds; the search looks no further than
total coordinate sum ``radius`` and raises ``NoPoint`` past it.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from slopecert.lattice import WeightTable

DEFAULT_RADIUS = 1_000_000
_MAX_NODES = 5_000_000


class NoPoint(Exception):
    """No dominant integral point of the cone within the search radius or node budget."""


@dataclass(frozen=True)
class LinearForm:
    """An integer linear form on weight coordinates, coeffs[sigma-1][i-1]."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "coeffs", tuple(tuple(int(c) for c in row) for row in self.coeffs)
        )

    @staticmethod
    def from_entries(embeddings: int, rank: int, entries: dict) -> "LinearForm":
        """Build from a sparse {(sigma, i): coeff} mapping (1-based keys)."""
        rows = [[0] * rank for _ in range(embeddings)]
        for (sigma, i), c in entries.items():
            rows[sigma - 1][i - 1] = int(c)
        return LinearForm(tuple(tuple(row) for row in rows))

    def value(self, rows: Sequence[Sequence[int]]) -> int:
        return sum(
            c * k for crow, krow in zip(self.coeffs, rows) for c, k in zip(crow, krow)
        )


def gap_form(embeddings: int, rank: int, sigma: int, i: int) -> LinearForm:
    """k[sigma][i] - k[sigma][i+1] for i < rank, or k[sigma][rank] for i = rank."""
    if i < rank:
        return LinearForm.from_entries(embeddings, rank, {(sigma, i): 1, (sigma, i + 1): -1})
    return LinearForm.from_entries(embeddings, rank, {(sigma, rank): 1})


def total_sum_form(embeddings: int, rank: int, scale: int = 1) -> LinearForm:
    """scale * sum over all coordinates."""
    return LinearForm.from_entries(
        embeddings,
        rank,
        {(s, i): scale for s in range(1, embeddings + 1) for i in range(1, rank + 1)},
    )


def _lower_bounds(forms, bounds, embeddings, rank):
    """Per-coordinate lower bounds implied by the forms and dominance.

    Fixpoint propagation: a form c*x > b with a single positive coefficient
    (all other positive coefficients absent) forces that coordinate above
    (b + sum of -c'*L over negative coefficients)/c.  Chains of gap forms
    therefore resolve bottom-up.  Dominance then lifts L[sigma][i] to at
    least L[sigma][i+1].
    """
    L = [[0] * rank for _ in range(embeddings)]
    for _ in range(rank * embeddings + 2):
        changed = False
        for form, bnd in zip(forms, bounds):
            positives = [
                (s, i)
                for s in range(embeddings)
                for i in range(rank)
                if form.coeffs[s][i] > 0
            ]
            if len(positives) != 1:
                continue
            s0, i0 = positives[0]
            c = form.coeffs[s0][i0]
            rest = sum(
                form.coeffs[s][i] * L[s][i]
                for s in range(embeddings)
                for i in range(rank)
                if form.coeffs[s][i] < 0
            )
            # the negative part is at most sum c'*L (c' < 0, x' >= L), so any
            # feasible point needs c*x > bnd - rest
            need = Fraction(bnd) - rest
            lb = need / c
            lo = int(lb) + 1 if lb == int(lb) else -(-lb.numerator // lb.denominator)
            if lo > L[s0][i0]:
                L[s0][i0] = lo
                changed = True
        for s in range(embeddings):
            for i in range(rank - 2, -1, -1):
                if L[s][i] < L[s][i + 1]:
                    L[s][i] = L[s][i + 1]
                    changed = True
        if not changed:
            break
    return L


def _strict_int_above(b: Fraction) -> int:
    """Smallest integer strictly greater than b."""
    return b.numerator // b.denominator + 1


def _sum_lower_bound(forms, bounds, L, embeddings, rank) -> int:
    """A lower bound on the total coordinate sum of any feasible point.

    Beyond the per-coordinate minima, two structured form classes tighten it:
    a form +c on one column / -c on the next column (over any set of rows)
    chains lower bounds on the column sums; a form with one uniform positive
    coefficient everywhere bounds the total directly.
    """
    col_min = [sum(L[s][i] for s in range(embeddings)) for i in range(rank)]
    gap_min = [0] * rank  # strict column-sum gaps between columns i and i+1
    s_min = sum(col_min)
    for form, bnd in zip(forms, bounds):
        entries = {
            (s, i): form.coeffs[s][i]
            for s in range(embeddings)
            for i in range(rank)
            if form.coeffs[s][i]
        }
        if not entries:
            continue
        values = set(entries.values())
        cols = {i for (_, i) in entries}
        if values == {min(values)} and min(values) > 0 and len(cols) == rank:
            c = min(values)
            if all(entries.get((s, i), 0) == c for s in range(embeddings) for i in range(rank)):
                s_min = max(s_min, _strict_int_above(bnd / c))
            continue
        pos = {k for k, v in entries.items() if v > 0}
        neg = {k for k, v in entries.items() if v < 0}
        pos_cols = {i for (_, i) in pos}
        neg_cols = {i for (_, i) in neg}
        if len(pos_cols) == 1 and len(values | {-v for v in values}) <= 2:
            i = pos_cols.pop()
            c = entries[next(iter(pos))]
            if (not neg or neg_cols == {i + 1}) and all(v in (c, -c) for v in entries.values()):
                # sum over some rows of (k[.][i+1-gap]); concentrate soundly:
                # column sums satisfy C_i - C_{i+1} >= strict gap when the
                # form covers every row; a partial row set only bounds those
                # rows, so require full coverage for the chain step.
                rows_pos = {s for (s, i2) in pos}
                rows_neg = {s for (s, i2) in neg}
                if rows_pos == set(range(embeddings)) and (
                    not neg or rows_neg == set(range(embeddings))
                ):
                    g = _strict_int_above(bnd / c)
                    if neg:
                        gap_min[i] = max(gap_min[i], g)
                    else:
                        col_min[i] = max(col_min[i], g)
    # fold the strict column-sum gaps bottom-up
    total = 0
    running = 0
    for i in range(rank - 1, -1, -1):
        if i < rank - 1:
            running = max(col_min[i], running + gap_min[i])
        else:
            running = col_min[i]
        total += running
    return max(s_min, total)


def cone_find(
    forms: Sequence[LinearForm],
    strict_bounds: Sequence,
    rank: int,
    embeddings: int = 1,
    radius: int = DEFAULT_RADIUS,
) -> WeightTable:
    """Smallest dominant integral weight table strictly inside every constraint.

    Raises NoPoint when no point exists with total coordinate sum <= radius.
    """
    if rank < 1 or embeddings < 1:
        raise ValueError("rank and embeddings must be >= 1")
    forms = list(forms)
    bounds = [Fraction(b) for b in strict_bounds]
    if len(forms) != len(bounds):
        raise ValueError("need one strict bound per form")

    L = _lower_bounds(forms, bounds, embeddings, rank)
    if any(v > radius for row in L for v in row):
        raise NoPoint(f"implied lower bounds exceed search radius {radius}")
    s_min = _sum_lower_bound(forms, bounds, L, embeddings, rank)
    coords = [(s, i) for s in range(embeddings) for i in range(rank)]
    ncoord = len(coords)
    # Suffix minima of L along reading order, for the budget prune.
    suffix_min = [0] * (ncoord + 1)
    for idx in range(ncoord - 1, -1, -1):
        s, i = coords[idx]
        suffix_min[idx] = suffix_min[idx + 1] + L[s][i]

    nodes = 0

    def search(target: int):
        nonlocal nodes
        rows = [[0] * rank for _ in range(embeddings)]

        def ceiling(idx: int, j: int, remaining: int) -> int:
            """Largest value coordinate j may take, seen from frontier idx.

            Assignment is row-major, so at frontier idx every coordinate
            before idx is assigned.  An unassigned coordinate is capped by
            the last assigned entry of its own row (dominance), or only by
            the sum budget when its row is untouched.
            """
            s, i = coords[j]
            fs, fi = coords[idx] if idx < ncoord else (embeddings, 0)
            if s < fs:
                return rows[s][i]  # fully assigned row: exact value
            if s == fs and i < fi:
                return rows[s][i]
            anchor = fi - 1 if s == fs else -1
            if anchor >= 0:
                return min(rows[s][anchor], remaining)
            return remaining

        def feasible(idx: int, remaining: int) -> bool:
            # Sum budget: the rest must be able to consume exactly `remaining`.
            if remaining < suffix_min[idx]:
                return False
            cap = 0
            for j in range(idx, ncoord):
                cap += ceiling(idx, j, remaining)
                if cap >= remaining:
                    break
            if cap < remaining:
                return False
            # Optimistic form values: assigned part exactly, negative
            # coefficients at their lower bounds, positive coefficients
            # greedily fed from the remaining sum budget (capped per row).
            for form, bnd in zip(forms, bounds):
                val = 0
                for j in range(idx):
                    s, i = coords[j]
                    val += form.coeffs[s][i] * rows[s][i]
                pos = []
                for j in range(idx, ncoord):
                    s, i = coords[j]
                    c = form.coeffs[s][i]
                    if c > 0:
                        pos.append((c, j))
                    elif c < 0:
                        val += c * L[s][i]
                pos.sort(reverse=True)
                budget = remaining
                for c, j in pos:
                    take = min(ceiling(idx, j, budget), budget)
                    val += c * take
                    budget -= take
                    if budget <= 0:
                        break
                if val <= bnd:
                    return False
            return True

        def assign(idx: int, remaining: int):
            nonlocal nodes
            nodes += 1
            if nodes > _MAX_NODES:
                raise NoPoint("search budget exceeded; raise the radius or simplify the cone")
            if idx == ncoord:
                if remaining != 0:
                    return None
                for form, bnd in zip(forms, bounds):
                    if form.value(rows) <= bnd:
                        return None
                return [row[:] for row in rows]
            s, i = coords[idx]
            lo = max(L[s][i], 0)
            hi = rows[s][i - 1] if i > 0 else remaining
            hi = min(hi, remaining)
            for v in range(lo, hi + 1):
                rows[s][i] = v
                if feasible(idx + 1, remaining - v):
                    found = assign(idx + 1, remaining - v)
                    if found is not None:
                        return found
            rows[s][i] = 0
            return None

        if not feasible(0, target):
            return None
        return assign(0, target)

    for s_total in range(s_min, radius + 1):
        found = search(s_total)
        if found is not None:
            return WeightTable(found)
    raise NoPoint(f"no dominant integral point with coordinate sum <= {radius}")
