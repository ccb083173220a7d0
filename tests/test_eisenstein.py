from math import gcd
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convsum import eisenstein, tables, verify
from convsum.arith import sigma_k
from convsum.convolution import w_oracle
from convsum.convolution import w_series_oracle
from convsum.eisenstein import (EisensteinPair, lhs_square, rhs_identity,
                                series_L, series_M)
from conftest import literal_rhs_identity


def test_pair_validation():
    EisensteinPair(1, 44)
    with pytest.raises(ValueError):
        EisensteinPair(2, 44)  # not coprime
    with pytest.raises(ValueError):
        EisensteinPair(11, 4)  # wrong order
    with pytest.raises(ValueError):
        EisensteinPair(0, 3)
    assert EisensteinPair(4, 13).level == 52


@pytest.mark.parametrize("pair, message", [
    ((2, 4), r"alpha and beta must be coprime, got \(2, 4\)"),
    ((0, 5), "alpha and beta must be positive"),
    ((5, 3), r"need alpha < beta, got \(5, 3\)"),
])
def test_pair_validation_messages(pair, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EisensteinPair(*pair)


def test_series_L_coefficients():
    l = series_L(10)
    assert l[0] == 1
    assert l[1] == -24
    assert l[6] == -288  # sigma(6) = 12
    assert all(l[n] == -24 * sigma_k(1, n) for n in range(1, 11))


def test_series_M_coefficients():
    m = series_M(10)
    assert m[0] == 1
    assert m[1] == 240
    assert m[2] == 2160  # sigma_3(2) = 9
    assert all(m[n] == 240 * sigma_k(3, n) for n in range(1, 11))
    assert all(type(c) is int for c in m.coeffs)


@pytest.mark.parametrize("pair,constant", [
    ((1, 44), 1849), ((4, 11), 49), ((1, 52), 2601), ((4, 13), 81)])
def test_lhs_constants(pair, constant):
    square = lhs_square(EisensteinPair(*pair), 8)
    assert square[0] == constant
    assert all(type(c) is int for c in square.coeffs)


def test_rhs_first_coefficient():
    pair = EisensteinPair(1, 44)
    rhs = rhs_identity(pair, lambda n: w_oracle(1, 44, n), 4)
    assert rhs[0] == 1849
    assert rhs[1] == 240 + 48 * 38  # sigma_3(1) term plus the linear term


def test_rhs_identity_reads_neither_the_sieve_nor_the_sigma_cache(
        no_sigma_sieve):
    """The divisor sums come from tables by factorization: with every
    binding of the sieve made to raise, the expansion still equals the
    per-n formula and leaves the cache of ``sigma_k`` as it was."""
    pair = EisensteinPair(4, 13)
    w = w_series_oracle(4, 13, 300)
    before = sigma_k.cache_info()
    assert rhs_identity(pair, w.__getitem__, 300) == literal_rhs_identity(
        pair, w.__getitem__, 300)
    assert sigma_k.cache_info() == before


# every coprime alpha < beta in [1, 60], drawn directly rather than filtered
COPRIME_PAIRS = [(a, b) for b in range(1, 61) for a in range(1, b)
                 if gcd(a, b) == 1]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(COPRIME_PAIRS), st.integers(1, 300))
@example((7, 11), 5)  # precision below alpha
@example((7, 11), 9)  # alpha < precision < beta
@example((1, 44), 300)
@example((4, 13), 52)
def test_rhs_identity_matches_the_per_n_formula(alpha_beta, precision):
    """Any coprime pair, any precision, and convolution values that are not
    those of the pair, so each term must sit at its own n."""
    pair = EisensteinPair(*alpha_beta)

    def w(n):
        return n * 7919 % 101 - 50

    assert (rhs_identity(pair, w, precision)
            == literal_rhs_identity(pair, w, precision))


@pytest.mark.parametrize("alpha,beta", list(tables.EXPANSION_COEFFS))
def test_identity_against_brute_force(alpha, beta):
    assert verify.identity(150, alpha, beta).ok


@pytest.mark.parametrize("half", [{"alpha": 1}, {"beta": 44}])
def test_identity_needs_both_or_neither_of_the_pair(monkeypatch, half):
    """Half a pair is refused before any work starts."""
    for name in ("lhs_square", "rhs_identity", "EisensteinPair"):
        monkeypatch.setattr(eisenstein, name, mock.Mock(
            side_effect=AssertionError("work started")))
    with pytest.raises(ValueError,
                       match="^--alpha and --beta must be given together$"):
        verify.identity(60, **half)
