from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convsum.arith import sigma_k
from convsum.qseries import QSeries, pack, unpack
from conftest import naive_series_mul


coefficients = st.integers(min_value=-2 ** 40, max_value=2 ** 40)


def series_at(p):
    return st.lists(coefficients, min_size=0, max_size=p + 1).map(
        lambda cs: QSeries(p, cs))


def series(max_precision=20):
    return st.integers(1, max_precision).flatmap(series_at)


def same_precision(count, max_precision):
    """count series sharing one drawn precision."""
    return st.integers(1, max_precision).flatmap(
        lambda p: st.tuples(*[series_at(p)] * count))


def test_construction_and_access():
    s = QSeries(4, [1, -2])
    assert s.coeffs == (1, -2, 0, 0, 0)
    assert s[1] == -2
    with pytest.raises(IndexError):
        s[5]
    with pytest.raises(ValueError):
        QSeries(0)
    with pytest.raises(ValueError):
        QSeries(1, [1, 2, 3])


def test_coefficients_must_be_integers():
    with pytest.raises(TypeError):
        QSeries(3, [Fraction(1, 2)])
    with pytest.raises(TypeError):
        QSeries(3, [1, 0.5])
    with pytest.raises(TypeError):
        QSeries(3, [1, 2]).scale(Fraction(1, 3))
    assert all(type(c) is int for c in QSeries(3, [True, 2]).coeffs)


def test_immutability():
    s = QSeries(3, [1])
    with pytest.raises(AttributeError):
        s.precision = 5


def test_add_sub_scale_examples():
    one_plus = QSeries(5, [1, 1])
    one_minus = QSeries(5, [1, -1])
    assert one_plus - one_minus == QSeries(5, [0, 2])
    assert one_plus.scale(0) == QSeries(5)
    assert one_minus.scale(-3) == QSeries(5, [-3, 3])
    s = QSeries(7, [3, 10 ** 30, 0, 1])
    assert s - s == QSeries(7)


def test_mul_examples():
    one_plus = QSeries(5, [1, 1])
    one_minus = QSeries(5, [1, -1])
    assert one_plus * one_minus == QSeries(5, [1, 0, -1])
    s = QSeries(9, [2, 0, 7, 1])
    assert s * QSeries(9, [1]) == s
    assert (s * QSeries(4, [0, 1])).coeffs == (0, 2, 0, 7, 1)


def test_pack_round_trips_the_slot_range_and_refuses_beyond_it():
    """At every width the extremes of a w-byte slot survive packing, and one
    more in either direction raises instead of wrapping into a neighbour."""
    for w in range(1, 10):
        top = 2 ** (8 * w - 1)
        fits = [top - 1, -(top - 1), -top, 0, 1, -1, top - 1]
        assert unpack(pack(fits, w), len(fits), w) == fits
        for bad in (top, -top - 1):
            for coeffs in ([bad], [1, bad, -1]):
                with pytest.raises(OverflowError):
                    pack(coeffs, w)


def test_mul_gives_convolution_sums():
    p = 8
    sig = QSeries(p, [0] + [sigma_k(1, n) for n in range(1, p + 1)])
    sq = sig * sig
    # pair sums l + m = 5 with l, m >= 1
    assert sq[5] == 38


@settings(max_examples=60, deadline=None)
@given(series(), series())
# 21 products of (2^31 - 1)^2 in one slot need 9 bytes where one needs 8
@example(QSeries(20, [2 ** 31 - 1] * 21), QSeries(20, [1 - 2 ** 31] * 21))
def test_mul_matches_naive_product(s, t):
    assert s * t == naive_series_mul(s, t)


@settings(max_examples=40, deadline=None)
@given(same_precision(3, 12))
def test_ring_axioms(abc):
    a, b, c = abc
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b - c) == a * b - a * c
    assert (a - b) - c == (a - c) - b


def test_dilate_examples():
    s = QSeries(6, [1, 1])
    assert s.dilate(2) == QSeries(6, [1, 0, 1])
    assert s.dilate(1) == s
    t = QSeries(16, [1, 2, 3, 4])
    assert t.dilate(2).dilate(2) == t.dilate(4)
    assert QSeries(5, [1, 2, 3]).dilate(3) == QSeries(5, [1, 0, 0, 2])
    with pytest.raises(ValueError):
        s.dilate(0)


@settings(max_examples=40, deadline=None)
@given(same_precision(2, 10), st.integers(1, 4))
def test_dilate_is_ring_homomorphism(st_pair, k):
    s, t = st_pair
    assert (s * t).dilate(k) == s.dilate(k) * t.dilate(k)
