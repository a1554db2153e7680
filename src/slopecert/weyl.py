"""Signed-permutation Weyl groups of types C_n and D_n.

Elements are bijections w of {-n, ..., -1, 1, ..., n} with w(-i) = -w(i).
Type C is the full hyperoctahedral group (order 2^n n!); type D is the
index-two subgroup whose elements flip an even number of signs (order
2^(n-1) n!), equivalently those with prod_{i>0} w(i) > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator, Optional


@dataclass(frozen=True)
class SignedPerm:
    """A signed permutation, stored by the images of 1..n.

    ``family`` records which group the element is considered in ('C' or 'D');
    type D membership (even number of negative images) is enforced.
    """

    family: str
    images: tuple

    def __post_init__(self):
        if self.family not in ("C", "D"):
            raise ValueError("family must be 'C' or 'D'")
        n = len(self.images)
        if sorted(abs(v) for v in self.images) != list(range(1, n + 1)):
            raise ValueError(f"{self.images} is not a signed permutation of 1..{n}")
        if self.family == "D":
            flips = sum(1 for v in self.images if v < 0)
            if flips % 2:
                raise ValueError(f"{self.images} flips an odd number of signs: not in D_{n}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if i == 0:
            return 0
        if i > 0:
            return self.images[i - 1]
        return -self.images[-i - 1]

    def inverse(self) -> "SignedPerm":
        inv = [0] * self.n
        for i in range(1, self.n + 1):
            j = self.images[i - 1]
            if j > 0:
                inv[j - 1] = i
            else:
                inv[-j - 1] = -i
        return SignedPerm(self.family, tuple(inv))


def identity(family: str, n: int) -> SignedPerm:
    return SignedPerm(family, tuple(range(1, n + 1)))


def weyl_elements(family: str, n: int) -> Iterator[SignedPerm]:
    """Enumerate the Weyl group of the given type once each, deterministically."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    for perm in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            if family == "D" and signs.count(-1) % 2:
                continue
            yield SignedPerm(family, tuple(s * v for s, v in zip(signs, perm)))


def group_order(family: str, n: int) -> int:
    import math

    order = 2**n * math.factorial(n)
    return order // 2 if family == "D" else order


def minus_identity(family: str, n: int) -> Optional[SignedPerm]:
    """The element acting as -Id on the roots, or None when it is not in the group.

    In type C it always exists; in type D it flips all n signs, which has even
    parity exactly when n is even.
    """
    if family == "D" and n % 2:
        return None
    return SignedPerm(family, tuple(-i for i in range(1, n + 1)))


def shift_cycle(n: int, family: str = "C") -> SignedPerm:
    """The sign-free n-cycle 1 -> n, j -> j-1 (2 <= j <= n).

    Having no sign flips it lies in both C_n and D_n; ``family`` only tags
    which group it is used in.  For n = 1 this is the identity.
    """
    if n == 1:
        return identity(family, 1)
    return SignedPerm(family, (n,) + tuple(range(1, n)))
