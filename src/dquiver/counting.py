"""Closed-form counts for quiver mutation classes of Dynkin types A and D.

Everything is arbitrary-precision integer arithmetic.  Each formula contains
divisions that are exact for valid inputs; a nonzero remainder means the
formula was applied outside its domain and raises ArithmeticError instead of
silently truncating.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["euler_phi", "catalan", "necklace_count", "d_count", "a_count", "d_cluster_count"]


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"expected exact division, got {a} / {b}")
    return q


def euler_phi(m: int) -> int:
    """Euler's totient: how many of 1..m are coprime to m (by trial division)."""
    if m < 1:
        raise ValueError(f"euler_phi needs m >= 1, got {m}")
    phi, rest, p = m, m, 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            phi -= phi // p
        p += 1
    if rest > 1:
        phi -= phi // rest
    return phi


def catalan(i: int) -> int:
    """Catalan number C(i) = binom(2i, i) / (i + 1)."""
    if i < 0:
        raise ValueError(f"catalan needs i >= 0, got {i}")
    return _exact_div(math.comb(2 * i, i), i + 1)


def necklace_count(n: int) -> int:
    """Number of star trees with n leaves up to rotation at the root.

    Equivalently the number of rooted planar trees with n+1 nodes where
    rotating at the root gives equivalent trees:

        sum over d | n of phi(n/d) * binom(2d, d), divided by 2n.
    """
    if n < 1:
        raise ValueError(f"necklace_count needs n >= 1, got {n}")
    total = sum(
        euler_phi(n // d) * math.comb(2 * d, d)
        for d in range(1, n + 1)
        if n % d == 0
    )
    return _exact_div(total, 2 * n)


def d_count(n: int) -> int:
    """Size of the mutation class of a quiver of Dynkin type D_n.

    Equals necklace_count(n) for n >= 5; n = 4 is a genuine exception and
    the count is 6 (the necklace formula would give 10).  n = 3 is accepted
    for convenience: D_3 coincides with A_3 and the formula value 4 is the
    correct class count there as well.
    """
    if n < 3:
        raise ValueError(f"d_count needs n >= 3, got {n}")
    if n == 4:
        return 6
    return necklace_count(n)


def a_count(n: int) -> int:
    """Size of the mutation class of a quiver of Dynkin type A_n.

    a(n) = C(n+1)/(n+3) + C((n+1)/2)/2 + (2/3)*C(n/3), where the second
    term is present only when (n+1)/2 is an integer and the third only when
    n/3 is.  This also counts triangulations of the disk with n diagonals,
    i.e. triangulations of a convex (n+3)-gon up to rotation.
    """
    if n < 1:
        raise ValueError(f"a_count needs n >= 1, got {n}")
    total = Fraction(catalan(n + 1), n + 3)
    if (n + 1) % 2 == 0:
        total += Fraction(catalan((n + 1) // 2), 2)
    if n % 3 == 0:
        total += Fraction(2, 3) * catalan(n // 3)
    if total.denominator != 1:
        raise ArithmeticError(f"a_count({n}) is not integral: {total}")
    return int(total)


def d_cluster_count(n: int) -> int:
    """Number of clusters of a cluster algebra of type D_n.

    (3n - 2) * binom(2n - 2, n - 1) / n (Fomin-Zelevinsky); equals the
    number of tagged triangulations of the once-punctured n-gon.
    """
    if n < 3:
        raise ValueError(f"d_cluster_count needs n >= 3, got {n}")
    return _exact_div((3 * n - 2) * math.comb(2 * n - 2, n - 1), n)
