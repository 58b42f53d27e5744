import math
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from dquiver.counting import (
    a_count,
    catalan,
    d_cluster_count,
    d_count,
    euler_phi,
    necklace_count,
)

KNOWN_D_COUNTS = {
    3: 4,
    4: 6,
    5: 26,
    6: 80,
    7: 246,
    8: 810,
    9: 2704,
    10: 9252,
    11: 32066,
    12: 112720,
}


def test_euler_phi_small_values():
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert euler_phi(12) == len({1, 5, 7, 11})


def test_euler_phi_rejects_zero():
    with pytest.raises(ValueError):
        euler_phi(0)


def _euler_phi_oracle(m):
    """The gcd count that trial division replaced."""
    return sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1)


def test_euler_phi_matches_the_gcd_count():
    for m in range(1, 3001):
        assert euler_phi(m) == _euler_phi_oracle(m)


@given(st.integers(1, 60), st.integers(1, 60))
def test_euler_phi_multiplicative(a, b):
    if math.gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_catalan_values():
    assert [catalan(i) for i in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_catalan_matches_recurrence():
    # independent route: C(m) = sum C(i) C(m-1-i)
    ref = [1]
    for m in range(1, 12):
        ref.append(sum(ref[i] * ref[m - 1 - i] for i in range(m)))
    assert [catalan(i) for i in range(12)] == ref


def test_necklace_values():
    assert necklace_count(1) == 1
    assert necklace_count(4) == 10
    assert necklace_count(5) == 26  # (4*2 + 252) / 10
    assert necklace_count(6) == 80  # (4 + 12 + 20 + 924) / 12


def test_d_count_table():
    assert {n: d_count(n) for n in KNOWN_D_COUNTS} == KNOWN_D_COUNTS


def test_d_count_special_case_at_four():
    # the plain necklace formula would overcount n = 4
    assert d_count(4) == 6
    assert necklace_count(4) == 10


def test_d_count_rejects_small_n():
    with pytest.raises(ValueError):
        d_count(2)


def test_d_cluster_count_values():
    # clusters of type D_n; D_3 = A_3 has catalan(4) of them
    assert [d_cluster_count(n) for n in range(3, 9)] == [14, 50, 182, 672, 2508, 9438]
    assert d_cluster_count(3) == catalan(4)
    with pytest.raises(ValueError):
        d_cluster_count(2)


# -- independent oracle for a_count: triangulations of a convex polygon ------


def _convex_triangulations(m):
    """All triangulations of a convex m-gon as frozensets of diagonals."""

    def chords_cross(c1, c2):
        (a, b), (c, d) = sorted(c1), sorted(c2)
        return a < c < b < d or c < a < d < b

    diags = [
        (i, j)
        for i, j in combinations(range(m), 2)
        if (j - i) % m not in (1, m - 1)
    ]
    out = []

    def extend(idx, chosen):
        if len(chosen) == m - 3:
            out.append(frozenset(chosen))
            return
        if len(chosen) + len(diags) - idx < m - 3:
            return
        for k in range(idx, len(diags)):
            d = diags[k]
            if all(not chords_cross(d, c) for c in chosen):
                chosen.append(d)
                extend(k + 1, chosen)
                chosen.pop()

    extend(0, [])
    return out


def _rotation_classes(triangulations, m):
    def canon(t):
        reprs = []
        for r in range(m):
            rotated = sorted(tuple(sorted(((i + r) % m, (j + r) % m))) for i, j in t)
            reprs.append(tuple(rotated))
        return min(reprs)

    return len({canon(t) for t in triangulations})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_a_count_against_polygon_enumeration(n):
    m = n + 3
    tris = _convex_triangulations(m)
    assert len(tris) == catalan(n + 1)
    assert a_count(n) == _rotation_classes(tris, m)


def test_a_count_values():
    assert a_count(1) == 1
    assert a_count(3) == 4  # 14/6 + 1 + 2/3
    assert a_count(5) == 19  # 132/8 + 5/2
