import copy
import pickle
from fractions import Fraction
from operator import sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convsum.arith import sigma_k
from convsum.qseries import (QSeries, combine_packed, pack, pack_narrow,
                             place_narrow, slot_width, unpack)
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
    assert all(type(c) is int for c in QSeries(3, [True, 2]).coeffs)


def test_immutability():
    s = QSeries(3, [1])
    with pytest.raises(AttributeError):
        s.precision = 5


def test_value_semantics():
    """A series is neither a tuple nor addable: + raises instead of
    concatenating, it equals only a series, and hashes by value."""
    s = QSeries(3, [1])
    with pytest.raises(TypeError):
        s + QSeries(3, [1])
    assert s != (3, (1, 0, 0, 0))
    assert s == QSeries(3, (1, 0)) and hash(s) == hash(QSeries(3, (1, 0)))
    assert s != QSeries(4, [1])
    assert repr(s) == "QSeries(precision=3, coeffs=(1, 0, 0, 0))"
    with pytest.raises(AttributeError):
        del s.coeffs
    assert copy.copy(s) == s and pickle.loads(pickle.dumps(s)) == s


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=12))
@example([127])
@example([128, -5])
@example([-128])
@example([2 ** 63, -1])
def test_pack_narrow_round_trips_on_the_narrowest_slots(coeffs):
    """pack_narrow reports the largest magnitude and its slot width, and
    one byte less refuses every coefficient list but those whose only
    magnitude beyond it is the most negative slot value."""
    x, w, top = pack_narrow(coeffs)
    assert top == max(map(abs, coeffs), default=0) and w == slot_width(top)
    assert unpack(x, len(coeffs), w) == coeffs
    if w > 1:
        edge = 2 ** (8 * w - 9)  # -edge fits w - 1 bytes, edge does not
        if top == edge and edge not in coeffs:
            assert unpack(pack(coeffs, w - 1), len(coeffs), w - 1) == coeffs
        else:
            with pytest.raises(OverflowError):
                pack(coeffs, w - 1)


@st.composite
def placements(draw):
    """(coeffs, w, e, g, precision): the coefficients a product places at
    q^e, q^(e+g), ... up to q^precision, on w-byte slots at least as wide
    as they need, with up to two slots beyond that the kernel must not
    read; precision may lie below e."""
    e, g = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    precision = draw(st.integers(0, 30))
    n = len(range(e, precision + 1, g)) + draw(st.integers(0, 2))
    coeffs = draw(st.lists(st.integers(-2 ** 70, 2 ** 70) | st.integers(
        -300, 300), min_size=n, max_size=n))
    w = slot_width(max(map(abs, coeffs), default=0)) + draw(st.integers(0, 3))
    return coeffs, w, e, g, precision


@settings(max_examples=200, deadline=None)
@given(placements())
# the most negative 1-byte value takes 2 bytes, as pack_narrow packs it,
# also when it arrives on 1-byte slots
@example(([5, -128, 3], 3, 2, 3, 8))
@example(([-128, 1], 1, 1, 2, 3))
# the largest 3-byte value stays on 3 of its 5 bytes
@example(([2 ** 23 - 1, -7], 5, 3, 2, 5))
@example(([4], 1, 3, 2, 3))  # precision = e
@example(([9, 9], 2, 5, 2, 3))  # precision < e: nothing placed
def test_place_narrow_packs_as_pack_narrow(case):
    """The bytes path packs the placed series exactly as pack_narrow packs
    the literal list: the same int, width and top."""
    coeffs, w, e, g, precision = case
    dense = [0] * (precision + 1)
    dense[e::g] = coeffs[:len(range(e, precision + 1, g))]
    assert place_narrow(pack(coeffs, w), w, e, g,
                        precision) == pack_narrow(dense)


weights = st.sampled_from((0, 1, -1, 2 ** 40, -2 ** 40)) | st.integers(
    -2 ** 40, 2 ** 40)


@st.composite
def packed_combinations(draw):
    """A dense list of n coefficients and up to four terms (m, coeffs, w):
    coeffs on w-byte slots, w from 1 to 9 whatever their magnitude, with up
    to three slots beyond n that the kernel must not read."""
    n = draw(st.integers(1, 12))
    dense = draw(st.lists(coefficients, min_size=n, max_size=n))
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        w = draw(st.integers(1, 9))
        top = 2 ** (8 * w - 1) - 1
        size = n + draw(st.integers(0, 3))
        terms.append((draw(weights), draw(st.lists(
            st.integers(-top, top), min_size=size, max_size=size)), w))
    return dense, terms


@settings(max_examples=200, deadline=None)
@given(packed_combinations())
# the bound 2^63 crosses from 8 to 9 bytes, so the sum unpacks slot by slot
@example(([2 ** 62, -2 ** 62], [(1, [2 ** 62, 1 - 2 ** 62], 8)]))
# a 9-byte term with m = 0 beside a result that needs 1 byte
@example(([3, -1], [(0, [2 ** 70, -2 ** 70], 9), (-2, [1, 1], 1)]))
# terms on slots wider than the result needs, one with m < 0
@example(([3, -1], [(2, [5, -7, 2 ** 70], 9), (-1, [-2, 60], 4)]))
# m < 0 on the most negative and the largest slot values of a byte
@example(([0, 0], [(-3, [-128, 127], 1)]))
def test_combine_packed_matches_list_fold(case):
    dense, terms = case
    expected = list(dense)
    for m, coeffs, _ in terms:
        expected = [a + m * c for a, c in zip(expected, coeffs)]
    packed = [(m, pack(coeffs, w), w, max(map(abs, coeffs)))
              for m, coeffs, w in terms]
    assert combine_packed(list(dense), packed) == expected


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
    def minus(s, t):
        return QSeries(s.precision, map(sub, s.coeffs, t.coeffs))

    a, b, c = abc
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * minus(b, c) == minus(a * b, a * c)
    assert minus(minus(a, b), c) == minus(minus(a, c), b)


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
