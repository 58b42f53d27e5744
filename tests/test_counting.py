import hashlib
import json
import math
from bisect import bisect_right
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dquiver import counting, polygon, quiver, trees
from dquiver.counting import (
    _central_binomial,
    _divisors_with_phi,
    _primes,
    a_count,
    catalan,
    d_cluster_count,
    d_count,
    necklace_count,
)
from dquiver.errors import BoundExceededError
from helpers import central_binomial_by_primes, euler_phi, prime_sieve

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"

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


# -- prime-exponent binomials against the math.comb oracle --------------------


def _necklace_oracle(n):
    """The divisor scan over 1..n with math.comb that the sieve replaced."""
    total = sum(
        euler_phi(n // d) * math.comb(2 * d, d)
        for d in range(1, n + 1)
        if n % d == 0
    )
    return total // (2 * n)


def _trial_division_primes(m):
    return [k for k in range(2, m + 1) if all(k % j for j in range(2, math.isqrt(k) + 1))]


def test_sieve_marks_exactly_the_primes():
    for m in range(0, 300):
        sieve = prime_sieve(m)
        assert len(sieve) == m + 1
        assert [k for k in range(m + 1) if sieve[k]] == _trial_division_primes(m)


def test_primes_are_exactly_the_primes():
    for m in range(0, 300):
        primes = _primes(m)
        assert primes.typecode == "Q"
        assert list(primes) == _trial_division_primes(m), m


def _primes_by_sieve(limit):
    sieve = prime_sieve(limit)
    return [k for k in range(limit + 1) if sieve[k]]


def test_primes_match_the_sieve():
    # every m up to 20000, against the primes up to m of one oracle sieve
    expected = _primes_by_sieve(20000)
    for m in range(20001):
        assert _primes(m).tolist() == expected[: bisect_right(expected, m)], m


def test_primes_match_the_sieve_next_to_prime_squares():
    # p^2 is the first multiple of an odd prime p that the odd sieve strikes out
    expected = _primes_by_sieve(447**2 + 1)
    for p in _odd_primes(447):
        for m in (p * p - 1, p * p, p * p + 1):
            assert _primes(m).tolist() == expected[: bisect_right(expected, m)], m


def test_central_binomial_matches_math_comb():
    # math.comb at every d would take seconds; the exact step
    # binom(2d + 2, d + 1) = binom(2d, d) * 2 (2d + 1) / (d + 1) walks
    # from one math.comb value to the next
    primes = _primes(10000)
    expected = math.comb(0, 0)
    for d in range(5001):
        if d % 500 == 0:
            assert expected == math.comb(2 * d, d)
        assert _central_binomial(d, primes) == expected, d
        expected = expected * 2 * (2 * d + 1) // (d + 1)


def test_central_binomial_matches_the_prime_loop():
    primes, sieve = _primes(10000), prime_sieve(10000)
    for d in range(5001):
        assert _central_binomial(d, primes) == central_binomial_by_primes(d, sieve), d


def _odd_primes(limit):
    return _primes_by_sieve(limit)[1:]


def test_central_binomial_where_the_root_moves():
    # at 2d = p^2 - 1 the largest small prime is below p and p is the first
    # Kummer-interval prime; at 2d = p^2 + 1 p has just become small
    primes, sieve = _primes(447**2 + 1), prime_sieve(447**2 + 1)
    for p in _odd_primes(447):
        for d in ((p * p - 1) // 2, (p * p + 1) // 2):
            assert _central_binomial(d, primes) == central_binomial_by_primes(d, sieve), d


@pytest.mark.parametrize("d", [55440, 100000])
def test_central_binomial_at_the_benchmark_sizes(d):
    assert _central_binomial(d, _primes(2 * d)) == central_binomial_by_primes(d, prime_sieve(2 * d))


def test_catalan_and_d_cluster_count_match_math_comb():
    for i in range(2001):
        assert catalan(i) == math.comb(2 * i, i) // (i + 1)
    for n in range(3, 2001):
        assert d_cluster_count(n) == (3 * n - 2) * math.comb(2 * n - 2, n - 1) // n


def test_necklace_count_matches_the_divisor_scan():
    for n in [*range(1, 2001), 5040, 7200]:
        assert necklace_count(n) == _necklace_oracle(n), n


def test_divisors_with_phi_match_the_scan():
    primes = _primes(2 * 3000)
    for n in range(1, 3001):
        assert sorted(_divisors_with_phi(n, primes)) == [
            (d, euler_phi(n // d)) for d in range(1, n + 1) if n % d == 0
        ]


@pytest.mark.parametrize("key", ["D 7100", "D 7200", "D 55440", "D 100000", "A 20000"])
def test_large_counts_match_the_benchmark_digests(key):
    expected = json.loads(REFERENCE.read_text(encoding="utf-8"))["large_counts"][key]
    kind, n = key.split()
    value = d_count(int(n)) if kind == "D" else a_count(int(n))
    digest = hashlib.sha256(value.to_bytes((value.bit_length() + 7) // 8, "big")).hexdigest()
    assert digest == expected["sha256"]


@pytest.mark.parametrize("count", [d_count, necklace_count, a_count, catalan, d_cluster_count])
def test_counts_past_the_sieve_reach_are_bound_errors(count):
    # a sieve of the odd numbers to 2n would need more than sys.maxsize
    # bytes: refused before anything is allocated
    with pytest.raises(BoundExceededError):
        count(10**19)


@pytest.mark.parametrize("count", [d_count, necklace_count, a_count, catalan, d_cluster_count])
@pytest.mark.parametrize("n", [True, False, 5.0, "5", None])
def test_counts_take_only_int(count, n, monkeypatch):
    # rejected before any prime table is built
    monkeypatch.setattr(counting, "_primes", None)
    with pytest.raises(ValueError, match="needs an integer"):
        count(n)


@pytest.mark.parametrize("count, n, remainder", [
    *((catalan, i, 1) for i in (1, 2, 7, 30)),
    *((necklace_count, n, n) for n in (1, 2, 6, 12, 31)),
    *((d_count, n, n) for n in (5, 6, 12)),
    # the first term's Catalan division is the first to fail
    *((a_count, n, 1) for n in (1, 3, 9, 20)),
    *((d_cluster_count, n, n - 2) for n in (3, 4, 10, 31)),
])
def test_an_inexact_division_raises_instead_of_truncating(count, n, remainder, monkeypatch):
    # one too many in every central binomial leaves a known remainder in
    # the count's division
    monkeypatch.setattr(counting, "_central_binomial", lambda d, primes: _central_binomial(d, primes) + 1)
    with pytest.raises(ArithmeticError, match="expected exact division") as error:
        count(n)
    a, b = map(int, str(error.value).rsplit(" got ", 1)[1].split(" / "))
    assert a % b == remainder


def _record_prime_tables(monkeypatch):
    tables = []

    def recording_primes(m):
        tables.append(m)
        return _primes(m)

    monkeypatch.setattr(counting, "_primes", recording_primes)
    return tables


def test_a_count_sieves_once(monkeypatch):
    tables = _record_prime_tables(monkeypatch)
    # n = 9 has all three terms: C(10), C(5) and C(3)
    assert a_count(9) == (6 * 16796 + 3 * 12 * 42 + 4 * 12 * 5) // (6 * 12)
    assert tables == [20]


def test_necklace_count_builds_one_prime_table(monkeypatch):
    tables = _record_prime_tables(monkeypatch)
    # 12 has six divisors, each with its binomial, and is factored on the
    # same table
    assert necklace_count(12) == _necklace_oracle(12)
    assert tables == [24]


# -- the enumeration routes never use the closed forms -------------------------


def test_routes_run_without_the_closed_forms(monkeypatch):
    def refuse(*args):
        raise AssertionError("a route called the closed forms")

    originals = {name: getattr(counting, name) for name in [*counting.__all__, "_central_binomial"]}
    for name in originals:
        monkeypatch.setattr(counting, name, refuse)
    # nor may a route hold its own reference to one of them
    for module in (trees, polygon, quiver):
        held = [v for v in vars(module).values() if any(v is f for f in originals.values())]
        assert held == [], module.__name__
    assert len(trees.star_tree_classes(7)) == KNOWN_D_COUNTS[7]
    assert len(list(polygon.enumerate_triangulations(6))) == 672
    assert len(quiver.mutation_class_representatives(quiver.dynkin_d(6))) == KNOWN_D_COUNTS[6]
