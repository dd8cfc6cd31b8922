"""Partition utilities: validation, conjugation, dominance, enumeration."""

import math
from fractions import Fraction

import pytest

from jackwalk.partitions import (
    arm,
    boxes,
    conjugate,
    contains,
    enumerate_all_partitions,
    enumerate_partitions,
    leg,
    length,
    make_partition,
    weight,
    z_lambda,
)


def dominance_leq(lam, mu):
    """Dominance order on a size class: every prefix sum of lam is <= mu's.

    Partitions of different sizes are incomparable (returns False).
    """
    if sum(lam) != sum(mu):
        return False
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a > b:
            return False
    return True


def test_make_partition():
    assert make_partition([3, 1]) == (3, 1)
    assert make_partition((2, 2, 1)) == (2, 2, 1)
    assert make_partition([]) == ()
    assert make_partition([2, 0, 0]) == (2,)
    with pytest.raises(ValueError):
        make_partition([1, 2])
    with pytest.raises(ValueError):
        make_partition([2, -1])


def test_weight_and_length():
    assert weight((3, 1)) == 4
    assert weight(()) == 0
    assert length((2, 2, 1)) == 3
    assert length(()) == 0


def test_conjugate_involution():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()
    for lam in enumerate_all_partitions(8):
        assert conjugate(conjugate(lam)) == lam
        assert weight(conjugate(lam)) == weight(lam)


def test_boxes_arm_leg():
    lam = (4, 2, 1)
    cells = list(boxes(lam))
    assert len(cells) == 7
    assert cells[0] == (1, 1)
    assert arm(lam, 1, 1) == 3
    assert leg(lam, 1, 1) == 2
    assert arm(lam, 2, 2) == 0
    assert leg(lam, 2, 2) == 0
    # arm/leg swap under conjugation
    for (i, j) in boxes(lam):
        assert arm(lam, i, j) == leg(conjugate(lam), j, i)


def test_contains():
    assert contains((3, 2), (2, 2))
    assert contains((3, 2), ())
    assert not contains((3, 2), (4,))
    assert not contains((3, 2), (1, 1, 1))


def test_dominance():
    assert dominance_leq((1, 1, 1), (3,))
    assert dominance_leq((2, 1), (3,))
    assert not dominance_leq((3,), (2, 1))
    # incomparable pair of weight 6
    assert not dominance_leq((3, 1, 1, 1), (2, 2, 2))
    assert not dominance_leq((2, 2, 2), (3, 1, 1, 1))
    for lam in enumerate_partitions(5):
        assert dominance_leq(lam, lam)


def test_enumerate_partitions_counts():
    counts = [sum(1 for _ in enumerate_partitions(n)) for n in range(10)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert sorted(enumerate_partitions(3)) == [(1, 1, 1), (2, 1), (3,)]
    assert sorted(enumerate_partitions(4, max_length=2)) == \
        sorted(lam for lam in enumerate_partitions(4) if length(lam) <= 2)
    assert sum(1 for _ in enumerate_all_partitions(4)) == 1 + 1 + 2 + 3 + 5


def test_z_lambda():
    assert z_lambda(()) == 1
    assert z_lambda((1,)) == 1
    assert z_lambda((2,)) == 2
    assert z_lambda((1, 1)) == 2
    assert z_lambda((2, 1)) == 2
    assert z_lambda((2, 2, 1)) == 8
    # conjugacy classes of S_n have size n!/z_lambda and partition S_n
    for n in range(1, 8):
        assert sum(Fraction(math.factorial(n), z_lambda(lam))
                   for lam in enumerate_partitions(n)) == math.factorial(n)
