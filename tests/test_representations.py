from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convsum.convolution import w_oracle
from convsum.representations import (default_w_provider, r4_enumerate,
                                     r4_jacobi, rep_count_closed,
                                     rep_count_enumerate)
from conftest import literal_r4, literal_sigma_quotient


def test_r4_examples():
    assert r4_jacobi(0) == 1
    assert r4_jacobi(1) == 8
    assert r4_jacobi(4) == 24
    assert r4_enumerate(0) == 1
    assert r4_enumerate(2) == 24  # (+-1, +-1, 0, 0) in all arrangements


def test_r4_identity():
    for n in range(0, 2001):
        assert r4_jacobi(n) == r4_enumerate(n)


def test_r4_enumerate_matches_literal_triples():
    """The two-square convolution against the triple loop over the sphere,
    which counts every lattice point one by one."""
    for n in range(0, 201):
        assert r4_enumerate(n) == literal_r4(n)


literal_r4_cached = cache(literal_r4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 80))
def test_rep_count_enumerate_matches_literal_filter_loop(a, b, n):
    """Visiting only the l with b | n - a l against testing every l."""
    assert rep_count_enumerate(a, b, n) == sum(
        literal_r4_cached(l) * literal_r4_cached((n - a * l) // b)
        for l in range(n // a + 1) if (n - a * l) % b == 0)


def test_r4_bounds_and_validation():
    with pytest.raises(ValueError):
        r4_jacobi(-1)
    with pytest.raises(ValueError, match="need n >= 0"):
        r4_enumerate(-1)


def test_query_validation():
    for count in (rep_count_closed, rep_count_enumerate):
        with pytest.raises(ValueError):
            count(0, 11, 5)
        with pytest.raises(ValueError, match="need n >= 0"):
            count(1, 11, -1)


def test_rep_count_examples():
    assert rep_count_closed(1, 11, 11) == 104
    assert rep_count_closed(1, 13, 1) == 8
    assert rep_count_closed(1, 11, 0) == 1
    # by four-square decomposition: r4(12) + r4(1)^2 = 96 + 64
    assert rep_count_enumerate(1, 11, 12) == 160
    assert rep_count_closed(1, 11, 12) == 160


def test_rep_count_unsupported_pair():
    with pytest.raises(ValueError, match="closed form unavailable"):
        rep_count_closed(1, 7, 5)


@pytest.mark.parametrize("b", [11, 13])
def test_closed_equals_enumeration(b):
    limit = 60
    w = default_w_provider(b, limit)
    for n in range(limit + 1):
        assert rep_count_closed(1, b, n, w) == rep_count_enumerate(1, b, n)


def test_counts_are_positive_multiples_of_eight():
    w = default_w_provider(11, 40)
    for n in range(1, 41):
        count = rep_count_closed(1, 11, n, w)
        assert count > 0 and count % 8 == 0


@pytest.mark.parametrize("b", [11, 13])
def test_substitution_identities(b):
    """Rescaling both summation variables by 4 gives the (1,b) sum at n/4;
    rescaling one of them is checked by verify.reps."""
    for n in range(1, 160):
        both_quarters = sum(
            literal_sigma_quotient(1, l, 4)
            * literal_sigma_quotient(1, (n - l) // b, 4)
            for l in range(1, n) if (n - l) % b == 0)
        assert both_quarters == (w_oracle(1, b, n // 4) if n % 4 == 0 else 0)


@pytest.mark.parametrize("b", [11, 13])
def test_closed_counts_at_small_n(b, fresh_expansions):
    """Default providers at n below the cusp rows' leading exponents."""
    for n in range(14):
        assert rep_count_closed(1, b, n) == rep_count_enumerate(1, b, n)
