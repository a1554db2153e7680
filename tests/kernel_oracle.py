"""Plain-loop oracle for ``slopecert.kernels.CandidateTables.candidates``.

It walks every candidate in the kernel's order (subsets by size then
lexicographic; image sets lexicographic per embedding, last embedding
fastest) and shares no code with the kernel.
"""

from itertools import combinations, product


def _mask(bits):
    return sum(1 << b for b in bits)


def candidate_masks(candidate):
    """(subset_mask, image_masks) of an ``admissibility.SubmoduleCandidate``."""
    subset = candidate.subset
    return _mask(i - 1 for i in subset), tuple(_mask(row[i - 1] - 1 for i in subset) for row in candidate.theta)


def _passes(kappa, S, e, denom, inside, outside, images):
    n = len(S)
    for part, cols in (
        (inside, images),
        (outside, [[b for b in range(n) if b not in img] for img in images]),
    ):
        newt = hodge = 0
        for x, b in enumerate(part):
            newt += S[b]
            hodge += sum(kappa[s][cols[s][x]] for s in range(len(kappa)))
            if e * newt < denom * hodge:
                return False
        if e * newt != denom * hodge:
            return False
    return True


def _misaligned(row, inside, outside, img):
    comp = [b for b in range(len(row)) if b not in img]
    return any(row[c] != row[b] for c, b in zip(img, inside)) or any(
        row[c] != row[b] for c, b in zip(comp, outside)
    )


def candidates_python(kappa, slopes_scaled, e, denom, tau, require_misaligned=True):
    """Every passing (optionally misaligned at row tau) candidate, in order.

    Yields (subset_mask, image_masks) with masks over 0-based bits.
    """
    kappa = [[int(v) for v in row] for row in kappa]
    S = [int(v) for v in slopes_scaled]
    n = len(S)
    for k in range(1, n):
        for inside in combinations(range(n), k):
            outside = [b for b in range(n) if b not in inside]
            for images in product(list(combinations(range(n), k)), repeat=len(kappa)):
                if not _passes(kappa, S, e, denom, inside, outside, images):
                    continue
                if require_misaligned and not _misaligned(kappa[tau], inside, outside, images[tau]):
                    continue
                yield _mask(inside), tuple(_mask(img) for img in images)


def search_python(kappa, slopes_scaled, e, denom, tau, require_misaligned=True):
    """First element of ``candidates_python`` as (found, subset_mask,
    image_masks), or (False, 0, ()) when there is none."""
    first = next(candidates_python(kappa, slopes_scaled, e, denom, tau, require_misaligned), None)
    return (False, 0, ()) if first is None else (True, *first)
