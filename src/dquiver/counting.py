"""Closed-form counts for quiver mutation classes of Dynkin types A and D.

Everything is arbitrary-precision integer arithmetic.  Each formula contains
divisions that are exact for valid inputs; a nonzero remainder means the
formula was applied outside its domain and raises ArithmeticError instead of
silently truncating.

Central binomials binom(2d, d) are built from their prime factorization, as
in Goetgheluck, *Computing binomial coefficients*, Amer. Math. Monthly 94
(1987): by Legendre's formula the exponent of a prime p is the sum over k of
floor(2d/p^k) - 2 floor(d/p^k), and by Kummer's theorem (the exponent counts
the carries when adding d + d in base p) it is 0 or 1 once p^2 > 2d.  The
prime powers are multiplied as a balanced product tree, so the large
multiplications are few and of equal size.  One sieve of Eratosthenes per
count serves every binomial of that count and the factorization of n.
"""

from __future__ import annotations

import math
import sys
from itertools import compress

from .errors import BoundExceededError

__all__ = ["catalan", "necklace_count", "d_count", "a_count", "d_cluster_count"]


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"expected exact division, got {a} / {b}")
    return q


def _sieve(m: int) -> bytearray:
    """``sieve[k]`` is 1 exactly when k is a prime, for 0 <= k <= m."""
    if m + 1 > sys.maxsize:
        raise BoundExceededError(
            f"a prime sieve up to {m} needs more than sys.maxsize = {sys.maxsize} bytes"
        )
    sieve = bytearray([1]) * (m + 1)
    sieve[: min(2, m + 1)] = bytes(min(2, m + 1))
    for p in compress(range(math.isqrt(m) + 1), sieve):
        sieve[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    return sieve


def _central_binomial(d: int, sieve: bytearray) -> int:
    """binom(2d, d) from its prime exponents; ``sieve`` must reach 2d.

    The primes are read off the sieve lazily and the prime powers are
    multiplied through a binary-counter stack (a balanced product tree
    built as they stream in), so neither the primes nor the factors are
    ever held as a list.
    """
    m = 2 * d
    root = math.isqrt(m)
    stack: list[tuple[int, int]] = []  # (product, number of factors in it)
    for p in compress(range(m + 1), sieve):
        if p > root:
            if not (m // p) & 1:
                continue
            factor = p
        else:
            e, q = 0, p
            while q <= m:
                e += m // q - 2 * (d // q)
                q *= p
            if not e:
                continue
            factor = p**e
        size = 1
        while stack and stack[-1][1] == size:
            factor *= stack.pop()[0]
            size *= 2
        stack.append((factor, size))
    product = 1
    while stack:
        product *= stack.pop()[0]
    return product


def _factorization(n: int, sieve: bytearray):
    """Yield ``(p, a)`` for each prime power p^a exactly dividing n >= 1.

    ``sieve`` must reach sqrt(n).
    """
    rest = n
    for p in compress(range(math.isqrt(n) + 1), sieve):
        if p * p > rest:
            break
        if rest % p == 0:
            a = 0
            while rest % p == 0:
                rest //= p
                a += 1
            yield p, a
    if rest > 1:
        yield rest, 1


def _divisors_with_phi(n: int, sieve: bytearray) -> list[tuple[int, int]]:
    """Every ``(d, φ(n // d))`` for d | n, from n's factorization.

    φ is Euler's totient, and ``sieve`` must reach sqrt(n).  Both d and φ
    are multiplicative: where p^a exactly divides n, d takes p^b and n // d
    the rest, p^(a - b), whose φ is p^(a - b - 1) (p - 1), or 1 when b = a.
    """
    pairs = [(1, 1)]
    for p, a in _factorization(n, sieve):
        powers = [(p**b, p ** (a - b - 1) * (p - 1)) for b in range(a)] + [(p**a, 1)]
        pairs = [(d * q, phi * f) for d, phi in pairs for q, f in powers]
    return pairs


def catalan(i: int) -> int:
    """Catalan number C(i) = binom(2i, i) / (i + 1)."""
    if i < 0:
        raise ValueError(f"catalan needs i >= 0, got {i}")
    return _exact_div(_central_binomial(i, _sieve(2 * i)), i + 1)


def necklace_count(n: int) -> int:
    """Number of star trees with n leaves up to rotation at the root.

    Equivalently the number of rooted planar trees with n+1 nodes where
    rotating at the root gives equivalent trees:

        sum over d | n of phi(n/d) * binom(2d, d), divided by 2n.
    """
    if n < 1:
        raise ValueError(f"necklace_count needs n >= 1, got {n}")
    sieve = _sieve(2 * n)
    total = sum(phi * _central_binomial(d, sieve) for d, phi in _divisors_with_phi(n, sieve))
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
    # over the common denominator 6(n+3)
    total = 6 * catalan(n + 1)
    if (n + 1) % 2 == 0:
        total += 3 * (n + 3) * catalan((n + 1) // 2)
    if n % 3 == 0:
        total += 4 * (n + 3) * catalan(n // 3)
    return _exact_div(total, 6 * (n + 3))


def d_cluster_count(n: int) -> int:
    """Number of clusters of a cluster algebra of type D_n.

    (3n - 2) * binom(2n - 2, n - 1) / n (Fomin-Zelevinsky); equals the
    number of tagged triangulations of the once-punctured n-gon.
    """
    if n < 3:
        raise ValueError(f"d_cluster_count needs n >= 3, got {n}")
    return _exact_div((3 * n - 2) * _central_binomial(n - 1, _sieve(2 * n - 2)), n)
