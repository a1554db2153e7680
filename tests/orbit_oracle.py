"""Brute-force refinement orbit: the test oracle for ``principal.orbit_size``.

It walks the whole Weyl group, so it serves ranks up to about 5; the
closed form it checks shares none of its code.
"""

from typing import Sequence

from slopecert.principal import UnramChar
from slopecert.weyl import weyl_elements


def refinement_orbit(chars: Sequence[UnramChar], group: str) -> set:
    """Orbit of the value tuple under the signed-permutation action.

    w sends the tuple (v_1..v_n) to (v_{w^{-1}(1)}, ...) with negative
    indices acting by inversion.  The orbit has the full group order exactly
    when the 2n quantities {v_i, 1/v_i} are pairwise distinct.
    """
    vals = tuple(c.value for c in chars)
    n = len(vals)

    def act(w, tup):
        out = []
        winv = w.inverse()
        for i in range(1, n + 1):
            j = winv(i)
            out.append(tup[j - 1] if j > 0 else 1 / tup[-j - 1])
        return tuple(out)

    return {act(w, vals) for w in weyl_elements(group, n)}
