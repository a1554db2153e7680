"""Subset-mask oracle for ``slopecert.replay.certify_splittings``.

It visits every subset mask of the extended index range, skips a mask whose
complement was already visited, and walks both sides' prefix sums in full.
It shares no code with the pruned walk.
"""

from fractions import Fraction


def extended_indices(schema, rank):
    """-rank..rank, without 0 for schema D."""
    return tuple(i for i in range(-rank, rank + 1) if i or schema == "C")


def certify_splittings_by_masks(schema, nu):
    """The survivors from all 2^N masks; N is the size of the index range."""
    idx = extended_indices(schema, nu.rank)
    n = len(idx)
    vals = [nu.slope(i) for i in idx]

    def walk_ok(positions) -> bool:
        total = Fraction(0)
        for p in positions:
            total += vals[p]
            if total < 0:
                return False
        return total == 0

    survivors = []
    seen = set()
    for mask in range(1, (1 << n) - 1):
        if mask in seen:
            continue
        comp = ((1 << n) - 1) ^ mask
        seen.add(comp)
        inside = [p for p in range(n) if mask >> p & 1]
        outside = [p for p in range(n) if comp >> p & 1]
        if walk_ok(inside) and walk_ok(outside):
            a = tuple(idx[p] for p in inside)
            b = tuple(idx[p] for p in outside)
            survivors.append(min((a, b), key=lambda t: (len(t), t)))
    survivors.sort(key=lambda t: (len(t), t))
    return survivors
