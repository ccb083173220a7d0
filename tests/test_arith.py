import random
from math import gcd

import pytest

from convsum.arith import (dim_spaces, divisors, euler_phi, genus, sigma_k,
                           sigma_k_frac, sigma_table)
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
    assert sigma_k_frac(3, 10, 4) == 0
    assert sigma_k_frac(3, 12, 4) == sigma_k(3, 3)


def test_sigma_against_full_scan():
    for n in range(1, 400):
        assert sigma_k(1, n) == sigma_by_full_scan(1, n)
        assert sigma_k(3, n) == sigma_by_full_scan(3, n)


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
