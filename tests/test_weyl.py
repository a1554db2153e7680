import math
import random

import pytest

from slopecert.weyl import (
    SignedPerm,
    group_order,
    identity,
    minus_identity,
    shift_cycle,
    weyl_elements,
)


@pytest.mark.parametrize("n", range(1, 6))
def test_type_c_order(n):
    elems = list(weyl_elements("C", n))
    assert len(elems) == 2**n * math.factorial(n) == group_order("C", n)
    assert len({e.images for e in elems}) == len(elems)


@pytest.mark.parametrize("n", range(1, 6))
def test_type_d_order(n):
    elems = list(weyl_elements("D", n))
    assert len(elems) == 2 ** (n - 1) * math.factorial(n) == group_order("D", n)


def test_examples():
    assert group_order("C", 2) == 8
    assert group_order("D", 2) == 4
    assert group_order("C", 1) == 2


@pytest.mark.parametrize("n", range(1, 6))
def test_minus_identity_presence(n):
    w = minus_identity("D", n)
    members = {e.images for e in weyl_elements("D", n)}
    if n % 2 == 0:
        assert w is not None and w.images in members
    else:
        assert w is None
        assert tuple(-i for i in range(1, n + 1)) not in members
    wc = minus_identity("C", n)
    assert wc is not None and all(wc(i) == -i for i in range(1, n + 1))


def test_shift_cycle_images():
    w = shift_cycle(3)
    assert (w(1), w(2), w(3)) == (3, 1, 2)
    assert (w(-1), w(-2), w(-3)) == (-3, -1, -2)
    assert shift_cycle(1).images == (1,)
    w2 = shift_cycle(2)
    assert (w2(1), w2(2)) == (2, 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shift_cycle_in_both_types(n):
    assert shift_cycle(n, "C").images in {e.images for e in weyl_elements("C", n)}
    assert shift_cycle(n, "D").images in {e.images for e in weyl_elements("D", n)}


def test_oddness_and_inverse_relations():
    rng = random.Random(11)
    for family, n in (("C", 3), ("C", 4), ("D", 4)):
        elems = list(weyl_elements(family, n))
        for _ in range(50):
            w = rng.choice(elems)
            for i in range(-n, n + 1):
                assert w(-i) == -w(i)
                assert w.inverse()(w(i)) == i and w(w.inverse()(i)) == i


def test_d_parity_enforced():
    with pytest.raises(ValueError):
        SignedPerm("D", (-1, 2, 3))
    SignedPerm("D", (-1, -2, 3))  # even flips are fine


def test_identity():
    assert identity("C", 4).images == (1, 2, 3, 4)
    assert shift_cycle(2).images != identity("C", 2).images
