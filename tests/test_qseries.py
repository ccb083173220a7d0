import ast
import copy
import pickle
from fractions import Fraction
from operator import sub
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import convsum
from convsum import qseries
from convsum.arith import sigma_k
from convsum.qseries import (QSeries, combine_packed, pack, slot_bound,
                             unpack)
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
    """At every width the extremes of a w-byte slot survive packing, a
    prefix of the slots reads alone, and one more in either direction
    raises, naming the width, instead of wrapping into a neighbour."""
    for w in range(1, 10):
        top = 2 ** (8 * w - 1)
        fits = [top - 1, -(top - 1), -top, 0, 1, -1, top - 1]
        data = pack(fits, w)
        assert type(data) is bytes and len(data) == len(fits) * w
        assert unpack(data, len(fits), w) == fits
        assert unpack(data, 3, w) == fits[:3]
        for bad in (top, -top - 1):
            for coeffs in ([bad], [1, bad, -1]):
                with pytest.raises(OverflowError,
                                   match=f"^a coefficient exceeds {w} bytes$"):
                    pack(coeffs, w)


@pytest.mark.parametrize("c, w", [(128, 1), (2 ** 71, 9)])
def test_overflow_names_the_slot_width(monkeypatch, c, w):
    """A coefficient one byte too wide raises the same OverflowError on
    the struct path (w <= 8) and the to_bytes path (w > 8) of pack, and
    where sparse_product writes its first factor on slots that a
    slot_width patched one byte short chose."""
    message = f"^a coefficient exceeds {w} bytes$"
    with pytest.raises(OverflowError, match=message):
        pack([c], w)
    real = qseries.slot_width
    monkeypatch.setattr(qseries, "slot_width", lambda bound: real(bound) - 1)
    with pytest.raises(OverflowError, match=message):
        qseries.sparse_product([[(0, 1), (2, c)]], [], 3)


def qseries_imports():
    """module name -> the names each other module of the package imports
    from convsum.qseries."""
    imported = {}
    for path in Path(convsum.__file__).parent.glob("*.py"):
        if path.stem == "qseries":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "qseries", "convsum.qseries"):
                imported.setdefault(path.stem, set()).update(
                    alias.name for alias in node.names)
    return imported


def test_only_qseries_handles_packed_rows():
    """The packed-row layout is decided in one module: no other module
    imports a private name of qseries or bounds a row with slot_bound, and
    eta, which plans expansions, makes each with sparse_product and reads
    it with unpack.  convolution packs its sigma tables only with pack on
    slot_width and sums each closed form with combine_packed."""
    imported = qseries_imports()
    assert {(module, name) for module, names in imported.items()
            for name in names if name.startswith("_")
            or name == "slot_bound"} == set()
    assert imported["eta"] == {"QSeries", "sparse_product", "unpack"}
    assert imported["convolution"] == {"combine_packed", "dense_product",
                                       "pack", "slot_width"}


def slot_bytes(coeffs, w):
    """The literal signed little-endian w-byte slots of coeffs."""
    return b"".join(c.to_bytes(w, "little", signed=True) for c in coeffs)


@st.composite
def slotted(draw):
    """(coeffs, w): coefficients that fit w-byte slots, w from 1 to 8."""
    w = draw(st.integers(1, 8))
    top = 2 ** (8 * w - 1)
    return draw(st.lists(st.integers(-top, top - 1) | st.integers(-2, 1),
                         max_size=12)), w


@settings(max_examples=200, deadline=None)
@given(slotted())
# the extremes of 1- and 8-byte slots, -1 and 0 alone, and no slot at all
@example(([-128, 3], 1))
@example(([127, -1], 1))
@example(([-2 ** 63], 8))
@example(([2 ** 63 - 1, 0], 8))
@example(([-1, -1, 0], 3))
@example(([0, 0], 2))
@example(([], 4))
def test_slot_bound_is_a_power_of_two_within_twice_the_max(case):
    """The bound read from the bytes is a power of two at least max|c|
    and at most 2 max|c|, and it is 1 just when every c is 0 or -1."""
    coeffs, w = case
    top, exact = slot_bound(slot_bytes(coeffs, w), w), max(map(abs, coeffs),
                                                           default=0)
    assert top > 0 and top & (top - 1) == 0
    assert exact <= top <= max(1, 2 * exact)
    assert (top == 1) == (set(coeffs) <= {0, -1})


weights = st.sampled_from((0, 1, -1, 2 ** 40, -2 ** 40)) | st.integers(
    -2 ** 40, 2 ** 40)


@st.composite
def packed_combinations(draw):
    """n and up to five terms (m, coeffs, w, e, g): coeffs placed at q^e,
    q^(e+g), ... on w-byte slots, w from 1 to 9 whatever their magnitude,
    with up to three slots beyond n that the kernel must not read; e may
    lie at or beyond n."""
    n, terms = draw(st.integers(1, 12)), []
    for _ in range(draw(st.integers(0, 5))):
        w, e, g = draw(st.integers(1, 9)), draw(st.integers(0, 14)), draw(
            st.integers(1, 4))
        top = 2 ** (8 * w - 1) - 1
        size = len(range(e, n, g)) + draw(st.integers(0, 3))
        terms.append((draw(weights), draw(st.lists(
            st.integers(-top, top), min_size=size, max_size=size)), w, e, g))
    return n, terms


@settings(max_examples=200, deadline=None)
@given(packed_combinations())
# the bound 2^63 crosses from 8 to 9 bytes, so the sum unpacks slot by slot
@example((2, [(1, [2 ** 62, -2 ** 62], 8, 0, 1),
              (1, [2 ** 62, 1 - 2 ** 62], 8, 0, 1)]))
# a 9-byte term with m = 0 beside a result that needs 1 byte
@example((2, [(1, [3, -1], 1, 0, 1), (0, [2 ** 70, -2 ** 70], 9, 0, 1),
              (-2, [1, 1], 1, 0, 1)]))
# terms on slots wider than the result needs, one with m < 0, and placed
@example((3, [(1, [3, -1, 0], 1, 0, 1), (2, [5, 2 ** 70], 9, 1, 1),
              (-1, [-2, 60], 4, 0, 2)]))
# m < 0 on the most negative and the largest slot values of a byte
@example((2, [(1, [0, 0], 1, 0, 1), (-3, [-128, 127], 1, 0, 1)]))
# a term starting at or beyond the last coefficient, and at g = 4
@example((3, [(1, [1, 2, 3], 1, 0, 1), (5, [7], 2, 3, 1),
              (1, [-1, 9], 1, 2, 4)]))
@example((9, [(1, [1] * 9, 1, 0, 1), (-1, [-128, 127, 1], 1, 0, 4)]))
# small slots read, and past them unread slots at the extremes of 2 and 9
# bytes, which the sum's 1-byte slots could not hold
@example((3, [(1, [5, -3, 0], 1, 0, 1),
              (3, [2, -2, 2 ** 15 - 1, -2 ** 15], 2, 1, 1),
              (-1, [1, -1, -2 ** 71, 2 ** 71 - 1], 9, 0, 2)]))
# sigma(0..10), a dilated table: placed from q^0 at g = 4, it reads only
# sigma(0), sigma(1) and sigma(2) of its 11 slots
@example((9, [(-7, [0, 1, 3, 4, 7, 6, 12, 8, 15, 13, 18], 1, 0, 4)]))
# no term at all gives n zeros; n = 1 reads one slot of each term
@example((5, []))
@example((1, [(2, [-5, 9], 1, 0, 1), (1, [7], 1, 1, 1)]))
def test_combine_packed_matches_list_fold(case):
    n, terms = case
    expected = [0] * n
    for m, coeffs, _, e, g in terms:
        for k, c in zip(range(e, n, g), coeffs):
            expected[k] += m * c
    placed = [(m, slot_bytes(coeffs, w), w, e, g)
              for m, coeffs, w, e, g in terms]
    assert combine_packed(n, placed) == expected


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
