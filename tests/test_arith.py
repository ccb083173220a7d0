import random
import re
from math import gcd

import pytest

from convsum.arith import (_factorise, dim_spaces, divisors, euler_phi,
                           genus, prime_factors, sigma_factored,
                           sigma_factored_table, sigma_k, sigma_table)
from conftest import sigma_by_full_scan, sigma1_sieve


def test_divisors_structure():
    for n in (1, 2, 12, 44, 52, 97, 360):
        ds = divisors(n)
        assert ds[0] == 1 and ds[-1] == n
        assert all(n % d == 0 for d in ds)
        assert list(ds) == sorted(ds)


def test_sigma_examples():
    assert sigma_k(1, 1) == 1
    assert sigma_k(3, 2) == 9
    assert sigma_k(1, 0) == 0
    assert sigma_k(1, -7) == 0


def test_sigma_against_full_scan():
    for n in range(1, 400):
        assert sigma_k(1, n) == sigma_by_full_scan(1, n)
        assert sigma_k(3, n) == sigma_by_full_scan(3, n)


def test_sigma_factored_against_full_scan():
    for k in (0, 1, 3):
        assert [sigma_factored(k, m) for m in range(2001)] == [0] + [
            sigma_by_full_scan(k, m) for m in range(1, 2001)], k


@pytest.mark.parametrize("p, e", [
    (2, 1), (3, 2), (999_983, 1), (1_000_003, 1), (997, 2), (1009, 2),
    (2, 20), (3, 12), (7, 7), (31, 4), (101, 3)])
def test_sigma_factored_at_primes_and_prime_powers(p, e):
    """Primes, prime squares and prime powers near 10^6, alone and times a
    coprime factor: the geometric series, and divisor enumeration."""
    for k in (0, 1, 3):
        expected = sum(p ** (i * k) for i in range(e + 1))
        assert sigma_factored(k, p ** e) == expected, k
        assert sigma_factored(k, 5 * p ** e) == expected * (1 + 5 ** k)
        assert sigma_factored(k, p ** e) == sum(d ** k
                                                for d in divisors(p ** e))


def test_sigma_factored_edges():
    for m in (0, -1, -12):
        assert sigma_factored(1, m) == sigma_factored(0, m) == 0
    for k in (-1, -3):
        with pytest.raises(ValueError, match="need k >= 0"):
            sigma_factored(k, 12)
        with pytest.raises(ValueError, match="need k >= 0"):
            sigma_k(k, 12)


def test_sigma_k_is_the_cache_of_sigma_factored():
    assert sigma_k.__wrapped__ is sigma_factored
    assert prime_factors.__wrapped__ is _factorise
    for k in (0, 1, 2, 3):
        assert [sigma_k(k, m) for m in range(-2, 500)] == [
            sigma_factored(k, m) for m in range(-2, 500)]
    assert [prime_factors(n) for n in (0, 1, 2, 1024, 3 * 2 ** 10, 999_983,
                                       2 * 3 * 5 * 7 * 11 * 13)] == [
        (), (), ((2, 1),), ((2, 10),), ((2, 10), (3, 1)), ((999_983, 1),),
        ((2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1))]


def test_sigma_factored_table_is_sigma_factored():
    """Every limit to 60, so every square and prime power is an end point."""
    for k in (0, 1, 2, 3):
        for limit in range(61):
            assert sigma_factored_table(k, limit) == [
                sigma_factored(k, m) for m in range(limit + 1)], (k, limit)


def test_sigma_factored_table_against_the_sieve():
    """Two independent paths: factorization and the hyperbola sieve."""
    for k in (1, 3):
        assert tuple(sigma_factored_table(k, 10_000)) == sigma_table(k, 10_000)


def test_sigma_factored_table_edges():
    assert sigma_factored_table(1, 0) == [0]
    for k, limit in ((-1, 10), (1, -1)):
        with pytest.raises(ValueError, match="need k, limit >= 0"):
            sigma_factored_table(k, limit)


def test_sigma_against_sieve_to_10000():
    sieve = sigma1_sieve(10_000)
    for n in range(1, 10_001):
        assert sigma_k(1, n) == sieve[n]


def test_sigma_table_against_full_scan():
    for k in (0, 1, 3):
        assert sigma_table(k, 400) == (0, *(sigma_by_full_scan(k, n)
                                            for n in range(1, 401)))
    for k in (0, 1, 2, 3):  # every limit, so every square is an end point
        scan = (0, *(sigma_by_full_scan(k, n) for n in range(1, 65)))
        for limit in range(65):
            assert sigma_table(k, limit) == scan[:limit + 1], (k, limit)
    assert sigma_table(1, 10_000) == tuple(sigma1_sieve(10_000))
    assert sigma_table(3, 0) == (0,)


def test_sigma_table_is_one_shared_immutable_tuple():
    """sigma and sigma_3 at one limit are each sieved once; every caller
    gets the same tuple, which no caller can change for the next."""
    assert sigma_table.cache_parameters()["maxsize"] == 2
    sigma_table.cache_clear()
    first = sigma_table(1, 50)
    with pytest.raises(TypeError):
        first[6] = -1
    sigma_table(3, 50)
    assert sigma_table(1, 50) is first
    assert first == (0, *(sigma_by_full_scan(1, n) for n in range(1, 51)))
    info = sigma_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)


def test_sigma_multiplicative():
    rng = random.Random(20260809)
    checked = 0
    while checked < 200:
        a = rng.randint(1, 500)
        b = rng.randint(1, 500)
        if gcd(a, b) != 1:
            continue
        for k in (1, 2, 3):
            assert sigma_k(k, a * b) == sigma_k(k, a) * sigma_k(k, b)
        checked += 1


def test_euler_phi():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    with pytest.raises(ValueError):
        euler_phi(0)


def test_genus_values():
    # classical small genera of the Gamma0(N) curves
    assert [genus(n) for n in (1, 11, 22, 26, 44, 52)] == [0, 1, 2, 2, 4, 5]


def test_dim_spaces_pinned():
    assert dim_spaces(44, 4) == (21, 6, 15)
    assert dim_spaces(52, 4) == (24, 6, 18)
    assert dim_spaces(1, 4) == (1, 1, 0)
    assert dim_spaces(11, 4) == (4, 2, 2)
    assert dim_spaces(22, 4) == (11, 4, 7)
    assert dim_spaces(26, 4) == (13, 4, 9)


def test_dim_spaces_decomposition():
    for level in range(1, 80):
        for weight in (4, 6, 8):
            m, e, s = dim_spaces(level, weight)
            assert m == e + s
            assert s >= 0 and e >= 1


@pytest.mark.parametrize("weight", [2, 3, 5, 0, -4])
def test_dim_spaces_rejects_bad_weight(weight):
    with pytest.raises(ValueError):
        dim_spaces(44, weight)


@pytest.mark.parametrize("call, args, message", [
    (divisors, (0,), "divisors: need n >= 1, got 0"),
    (dim_spaces, (0, 4), "level must be positive, got 0"),
], ids=["divisors", "dim_spaces"])
def test_zero_is_refused(call, args, message):
    """Each refuses 0 with its own message, before it divides by it or
    factors it."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)
