"""Congruence pinning, the integer endgame of trace comparisons.

A trace known modulo p^N and within distance t of a target is the target
once p^N exceeds t.
"""

from __future__ import annotations

from typing import Optional

from .lattice import is_prime


def congruence_pin(t_bound: int, p: int, N: int, target: int) -> Optional[int]:
    """Pin an integer known mod p^N and within t_bound of the target.

    Any t with t = target (mod p^N) and |t - target| <= t_bound equals the
    target precisely when p^N > t_bound; returns None (unpinned) otherwise.
    """
    if t_bound < 0:
        raise ValueError("t_bound must be nonnegative")
    if not is_prime(p) or N < 1:
        raise ValueError("need a prime p and N >= 1")
    return target if p**N > t_bound else None
