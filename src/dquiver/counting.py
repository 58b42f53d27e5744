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
of the Kummer intervals (2d/(k+1), 2d/k] with k odd.  Each interval is read
off the sieve through a memoryview, and its primes are multiplied in runs by
``math.prod`` in C; no prime list and no copy of the sieve is made.  The
runs and the small prime powers are multiplied as a balanced product tree,
so the large multiplications are few and of equal size.  One sieve of
Eratosthenes per count serves every binomial of that count and the
factorization of n.

The counts take an int n only; a bool, a float or any other type is
rejected with ValueError before a sieve is built.
"""

from __future__ import annotations

import math
import sys
from itertools import compress, islice

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


def _binomial_factors(d: int, sieve: bytearray):
    """Yield factors whose product is binom(2d, d); ``sieve`` must reach 2d.

    Each prime p <= sqrt(2d) gives its power p^e, e by Legendre's formula.
    A prime p above sqrt(2d) divides binom(2d, d) once exactly when
    floor(2d/p) is odd (Kummer), that is when p lies in an interval
    (2d/(k+1), 2d/k] with k odd.  Those primes are read off a memoryview
    of the sieve interval by interval and multiplied in runs of 32 by
    ``math.prod``, so neither a copy of the sieve nor a list of primes is
    made and no Python code runs per large prime.
    """
    m = 2 * d
    root = math.isqrt(m)
    for p in compress(range(root + 1), sieve):
        e, q = 0, p
        while q <= m:
            e += m // q - 2 * (d // q)
            q *= p
        if e:
            yield p**e
    view = memoryview(sieve)
    # floor(2d/p) = k for the p in (2d/(k+1), 2d/k]; past k = 2d // (root + 1)
    # the interval lies below sqrt(2d)
    for k in range(1, m // (root + 1) + 1, 2):
        lo = max(m // (k + 1), root) + 1
        hi = m // k + 1
        primes = compress(range(lo, hi), view[lo:hi])
        while (run := math.prod(islice(primes, 32))) > 1:
            yield run


def _central_binomial(d: int, sieve: bytearray) -> int:
    """binom(2d, d) as the product of ``_binomial_factors(d, sieve)``.

    The factors go through a binary-counter stack, a balanced product tree
    built as they stream in, so the large multiplications are few and of
    about equal size and the factors are never held as a list.
    """
    stack: list[tuple[int, int]] = []  # (product, number of factors in it)
    for factor in _binomial_factors(d, sieve):
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


def _check_int(count: str, name: str, value: int, least: int) -> None:
    """ValueError unless ``value`` is an int (not a bool) of at least ``least``."""
    # type(...) is int: a bool or a float is rejected, not reinterpreted
    if type(value) is not int:
        raise ValueError(f"{count} needs an integer {name}, got {value!r}")
    if value < least:
        raise ValueError(f"{count} needs {name} >= {least}, got {value}")


def _catalan(i: int, sieve: bytearray) -> int:
    """C(i) = binom(2i, i) / (i + 1); ``sieve`` must reach 2i."""
    return _exact_div(_central_binomial(i, sieve), i + 1)


def catalan(i: int) -> int:
    """Catalan number C(i) = binom(2i, i) / (i + 1)."""
    _check_int("catalan", "i", i, 0)
    return _catalan(i, _sieve(2 * i))


def necklace_count(n: int) -> int:
    """Number of star trees with n leaves up to rotation at the root.

    Equivalently the number of rooted planar trees with n+1 nodes where
    rotating at the root gives equivalent trees:

        sum over d | n of phi(n/d) * binom(2d, d), divided by 2n.
    """
    _check_int("necklace_count", "n", n, 1)
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
    sieve = _sieve(2 * n + 2)
    # over the common denominator 6(n+3)
    total = 6 * _catalan(n + 1, sieve)
    if (n + 1) % 2 == 0:
        total += 3 * (n + 3) * _catalan((n + 1) // 2, sieve)
    if n % 3 == 0:
        total += 4 * (n + 3) * _catalan(n // 3, sieve)
    return _exact_div(total, 6 * (n + 3))


def d_cluster_count(n: int) -> int:
    """Number of clusters of a cluster algebra of type D_n.

    (3n - 2) * binom(2n - 2, n - 1) / n (Fomin-Zelevinsky); equals the
    number of tagged triangulations of the once-punctured n-gon.
    """
    _check_int("d_cluster_count", "n", n, 3)
    return _exact_div((3 * n - 2) * _central_binomial(n - 1, _sieve(2 * n - 2)), n)
