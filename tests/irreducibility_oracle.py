"""The pairwise irreducibility predicates the value-counter lookups replaced:
the test oracle for ``principal.sp_irreducible`` and
``principal.so_irreducible_sufficient``.

Each compares every pair of values directly, in O(n^2), and shares no code
with the package's lookups.
"""

from fractions import Fraction
from itertools import combinations


def sp_irreducible_by_pairs(values, q):
    """Tadic's conditions: no value -1 or q^{+-1}, no ratio or product q^{+-1}."""
    nu = Fraction(1, q)
    for v in values:
        if v == -1 or v == nu or v == 1 / nu:
            return False
    for a, b in combinations(values, 2):
        if a / b in (nu, 1 / nu) or a * b in (nu, 1 / nu):
            return False
    return True


def so_irreducible_by_pairs(values, q):
    """No value of square 1, no ratio or product in {1, q, 1/q}."""
    qf = Fraction(q)
    for v in values:
        if v * v == 1:
            return False
    for a, b in combinations(values, 2):
        if a * b in (1, qf, 1 / qf) or a / b in (1, qf, 1 / qf):
            return False
    return True
