"""Closed-form counts for quiver mutation classes of Dynkin types A and D.

Everything is arbitrary-precision integer arithmetic.  Each formula contains
divisions that are exact for valid inputs; a nonzero remainder means the
formula was applied outside its domain and raises ArithmeticError instead of
silently truncating.

Central binomials binom(2d, d) are built from their prime factorization, as
in Goetgheluck, *Computing binomial coefficients*, Amer. Math. Monthly 94
(1987): by Legendre's formula the exponent of a prime p is the sum over k of
floor(2d/p^k) - 2 floor(d/p^k), and by Kummer's theorem (the exponent counts
the carries when adding d + d in base p) it is 0 or 1 once p^2 > 2d, namely
floor(2d/p) mod 2.  So the large primes that divide binom(2d, d) are those
of the Kummer intervals (2d/(k+1), 2d/k] with k odd.  Each count builds one
table of the primes up to 2n, an ``array('Q')`` sieved over the odd numbers,
and every binomial of that count and the factorization of n read it by
index: an interval is a slice found by bisection, and its primes are
multiplied in runs by ``math.prod`` in C.  The runs and the small prime
powers are multiplied as a balanced product tree, so the large
multiplications are few and of equal size.

The counts take an int n only; a bool, a float or any other type is
rejected with ValueError before a prime table is built.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from collections.abc import Sequence
from itertools import compress

from .errors import BoundExceededError, _check_int

__all__ = ["catalan", "necklace_count", "d_count", "a_count", "d_cluster_count"]


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"expected exact division, got {a} / {b}")
    return q


def _primes(m: int) -> Sequence[int]:
    """The primes up to m, in increasing order, as an ``array('Q')``.

    A sieve of Eratosthenes over the odd numbers only, byte i standing for
    2i + 1, is scanned once into the table and then dropped: (m + 1) // 2
    bytes while the table is built, then 8 bytes per prime.
    """
    size = (m + 1) // 2
    if size > sys.maxsize:
        raise BoundExceededError(
            f"a prime sieve up to {m} needs more than sys.maxsize = {sys.maxsize} bytes"
        )
    from array import array

    # grown in place: on CPython 3.11, a failed ``bytearray([1]) * size``
    # leaves the new object's export count unset, and freeing it can print a
    # stray SystemError before the MemoryError is reported
    sieve = bytearray([1])
    sieve *= size
    sieve[:1] = bytes(min(1, size))  # 1 is not a prime
    for p in compress(range(1, math.isqrt(m) + 1, 2), sieve):
        sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, size, p)))
    primes = array("Q", [2] if m >= 2 else [])
    primes.extend(compress(range(1, m + 1, 2), sieve))
    return primes


def _binomial_factors(d: int, primes: Sequence[int]):
    """Yield factors whose product is binom(2d, d); ``primes`` must reach 2d.

    ``primes`` is a table from ``_primes``.  Each prime p <= sqrt(2d) gives
    its power p^e, e by Legendre's formula.  A prime p above sqrt(2d)
    divides binom(2d, d) once exactly when floor(2d/p) is odd (Kummer), that
    is when p lies in an interval (2d/(k+1), 2d/k] with k odd.  Each interval
    is an index range of the table, found by bisection, and its primes are
    multiplied in runs of 32 by ``math.prod``, so no Python code runs per
    large prime.
    """
    m = 2 * d
    root = math.isqrt(m)
    for p in primes[: bisect_right(primes, root)]:
        e, q = 0, p
        while q <= m:
            e += m // q - 2 * (d // q)
            q *= p
        if e:
            yield p**e
    # floor(2d/p) = k for the p in (2d/(k+1), 2d/k]; past k = 2d // (root + 1)
    # the interval lies below sqrt(2d)
    for k in range(1, m // (root + 1) + 1, 2):
        lo = bisect_right(primes, max(m // (k + 1), root))
        hi = bisect_right(primes, m // k)
        for a in range(lo, hi, 32):
            yield math.prod(primes[a : min(a + 32, hi)])


def _central_binomial(d: int, primes: Sequence[int]) -> int:
    """binom(2d, d) as the product of ``_binomial_factors(d, primes)``.

    The factors go through a binary-counter stack, a balanced product tree
    built as they stream in, so the large multiplications are few and of
    about equal size and the factors are never held as a list.
    """
    stack: list[tuple[int, int]] = []  # (product, number of factors in it)
    for factor in _binomial_factors(d, primes):
        size = 1
        while stack and stack[-1][1] == size:
            factor *= stack.pop()[0]
            size *= 2
        stack.append((factor, size))
    product = 1
    while stack:
        product *= stack.pop()[0]
    return product


def _factorization(n: int, primes: Sequence[int]):
    """Yield ``(p, a)`` for each prime power p^a exactly dividing n >= 1.

    ``primes`` must reach sqrt(n).
    """
    rest = n
    for p in primes:
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


def _divisors_with_phi(n: int, primes: Sequence[int]) -> list[tuple[int, int]]:
    """Every ``(d, φ(n // d))`` for d | n, from n's factorization.

    φ is Euler's totient, and ``primes`` must reach sqrt(n).  Both d and φ
    are multiplicative: where p^a exactly divides n, d takes p^b and n // d
    the rest, p^(a - b), whose φ is p^(a - b - 1) (p - 1), or 1 when b = a.
    """
    pairs = [(1, 1)]
    for p, a in _factorization(n, primes):
        powers = [(p**b, p ** (a - b - 1) * (p - 1)) for b in range(a)] + [(p**a, 1)]
        pairs = [(d * q, phi * f) for d, phi in pairs for q, f in powers]
    return pairs


def _catalan(i: int, primes: Sequence[int]) -> int:
    """C(i) = binom(2i, i) / (i + 1); ``primes`` must reach 2i."""
    return _exact_div(_central_binomial(i, primes), i + 1)


def catalan(i: int) -> int:
    """Catalan number C(i) = binom(2i, i) / (i + 1)."""
    _check_int("catalan", "i", i, 0)
    return _catalan(i, _primes(2 * i))


def necklace_count(n: int) -> int:
    """Number of star trees with n leaves up to rotation at the root.

    Equivalently the number of rooted planar trees with n+1 nodes where
    rotating at the root gives equivalent trees:

        sum over d | n of phi(n/d) * binom(2d, d), divided by 2n.
    """
    _check_int("necklace_count", "n", n, 1)
    primes = _primes(2 * n)
    total = sum(phi * _central_binomial(d, primes) for d, phi in _divisors_with_phi(n, primes))
    return _exact_div(total, 2 * n)


def d_count(n: int) -> int:
    """Size of the mutation class of a quiver of Dynkin type D_n.

    Equals necklace_count(n) for n >= 5; n = 4 is a genuine exception and
    the count is 6 (the necklace formula would give 10).  n = 3 is accepted
    for convenience: D_3 coincides with A_3 and the formula value 4 is the
    correct class count there as well.
    """
    _check_int("d_count", "n", n, 3)
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
    _check_int("a_count", "n", n, 1)
    primes = _primes(2 * n + 2)
    # over the common denominator 6(n+3)
    total = 6 * _catalan(n + 1, primes)
    if (n + 1) % 2 == 0:
        total += 3 * (n + 3) * _catalan((n + 1) // 2, primes)
    if n % 3 == 0:
        total += 4 * (n + 3) * _catalan(n // 3, primes)
    return _exact_div(total, 6 * (n + 3))


def d_cluster_count(n: int) -> int:
    """Number of clusters of a cluster algebra of type D_n.

    (3n - 2) * binom(2n - 2, n - 1) / n (Fomin-Zelevinsky); equals the
    number of tagged triangulations of the once-punctured n-gon.
    """
    _check_int("d_cluster_count", "n", n, 3)
    return _exact_div((3 * n - 2) * _central_binomial(n - 1, _primes(2 * n - 2)), n)
