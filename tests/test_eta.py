import hashlib
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convsum import eta, qseries, tables, verify
from convsum.arith import divisors
from convsum.eta import (_CUBE, _EULER, _THETAS, BasisError, EtaQuotient,
                         _plan, _plan_chain, basis_rows, check_ligozat,
                         evaluation_rows, expand, table_rows)
from convsum.qseries import (QSeries, _joined, _slots, div_sparse,
                             mul_packed, pack, slot_width, sparse_product,
                             unpack)
from conftest import (LEVEL20_ROWS, literal_eta_expansion,
                      literal_euler_product, literal_euler_quotient,
                      literal_plan_chain, mul_lists, naive_div_sparse,
                      naive_eta_expansion, naive_mul_sparse, partition_numbers)


def dense(terms, limit):
    """Coefficient list of a sparse (exponent, coefficient) series."""
    out = [0] * (limit + 1)
    for e, c in terms:
        out[e] = c
    return out


def order(s):
    """Index of the first nonzero coefficient of a nonzero series."""
    return next(n for n, c in enumerate(s.coeffs) if c)


def test_euler_product_examples():
    assert _EULER.terms(1, 12) == [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1),
                                   (12, -1)]
    assert _EULER.terms(2, 5) == [(0, 1), (2, -1), (4, -1)]
    for delta in (1, 3, 44):
        assert _EULER.terms(delta, 30)[0] == (0, 1)


def test_euler_product_matches_literal_product():
    precision = 200
    for delta in range(1, 53):
        literal = literal_euler_product(delta, precision)
        assert dense(_EULER.terms(delta, precision), precision) == literal


def test_jacobi_cube():
    limit = 120
    assert dense(_CUBE.terms(1, limit), limit) == dense(
        [(k * (k + 1) // 2, (-1) ** k * (2 * k + 1))
         for k in range(0, 20) if k * (k + 1) // 2 <= limit], limit)
    for delta in (1, 2, 7, 44):
        literal = literal_euler_product(delta, limit)
        cube = mul_lists(mul_lists(literal, literal, limit), literal, limit)
        assert dense(_CUBE.terms(delta, limit), limit) == cube


@pytest.mark.parametrize("factor", _THETAS, ids=lambda f: str(f.vector))
def test_theta_factors_match_literal_quotients(factor):
    """Each theta series equals the quotient of Euler products its vector
    names, on chains starting at 1, 2, 11 and 13."""
    limit = 80
    for delta in (1, 2, 11, 13):
        exponents = {delta << i: r for i, r in enumerate(factor.vector)}
        assert dense(factor.terms(delta, limit), limit) == \
            literal_euler_quotient(exponents, limit)


def test_division_gives_geometric_series():
    assert div_sparse([1] + [0] * 6, [(0, 1), (1, -1)], 6) == [1] * 7


def test_division_gives_partition_numbers():
    limit = 40
    assert div_sparse([1] + [0] * limit, _EULER.terms(1, limit),
                       limit) == partition_numbers(limit)


FACTORS = (_EULER, _CUBE) + _THETAS


@st.composite
def kernel_case(draw):
    """Coefficients up to 2^3, 2^12 or 2^28, which put the slot bound of a
    step below 8 bytes, up to 2^40, or up to 2^62, which pushes it past 63
    bits into the wider slots."""
    limit = draw(st.integers(1, 400))
    top = draw(st.sampled_from((2 ** 3, 2 ** 12, 2 ** 28, 2 ** 40, 2 ** 62)))
    dense = draw(st.lists(st.integers(-top, top), min_size=limit + 1,
                          max_size=limit + 1))
    terms = draw(st.sampled_from(FACTORS)).terms(draw(st.integers(1, 60)),
                                                 limit)
    return dense, terms, limit


def step(dense, terms, n, w):
    """mul_packed on the int of dense's w-byte slots in reversed order
    (slot j holds the coefficient of q^(n-1-j)), read back ascending."""
    x = _joined(pack(dense[::-1], w), n, w)
    return unpack(_slots(mul_packed(x, terms, n, w), n, w), n, w)[::-1]


def packed_step(dense, terms, limit):
    """One packed multiplication step, from a list and back, with the slot
    width from the bound max |dense| * sum |c|."""
    n = limit + 1
    w = slot_width(max(map(abs, dense)) * sum(abs(c) for _, c in terms))
    return step(dense, terms, n, w)


# Steps whose shifts drop negative slots, so that the floor of x >> 8we
# is 1 too low and the correction counts: on 1, 8 and 9-byte slots, a
# negative slot just below the shift (q^3 under the shift by 2), and on
# 1 byte a negative slot under a zero one (q^2 under q^4 and q^3, both
# dropped by the shift by 3); a lone term at q^0, which drops nothing;
# and a lone term at q^limit, which keeps one slot.
FLOOR_CASES = [
    ([0, 0, 0, -1, 0], [(0, 1), (2, -1)], 4),
    ([5, 2 ** 60, -7, -2 ** 60, 0], [(0, 1), (2, -1)], 4),
    ([1, -3, 2 ** 62, -2 ** 62, 0], [(0, 1), (2, -2)], 4),
    ([1, 2, -1, 0, 0], [(0, 1), (1, 1), (3, -1)], 4),
    ([-3, 1, -4, 1, -5], [(0, 1)], 4),
    ([-3, 1, -4, 1, -5], [(0, 1), (4, -1)], 4),
]


@settings(max_examples=80, deadline=None)
@given(kernel_case())
@example(([2 ** 62, -2 ** 62, 3], _CUBE.terms(1, 2), 2))
@example(FLOOR_CASES[0])
@example(FLOOR_CASES[1])
@example(FLOOR_CASES[2])
@example(FLOOR_CASES[3])
@example(FLOOR_CASES[4])
@example(FLOOR_CASES[5])
def test_sparse_kernels_match_naive(case):
    """The packed step and the division against the per-coefficient
    oracles, on narrow, 8-byte and wider slots."""
    dense, terms, limit = case
    assert packed_step(dense, terms, limit) == naive_mul_sparse(
        dense, terms, limit)
    assert div_sparse(dense, terms, limit) == naive_div_sparse(
        dense, terms, limit)


@pytest.mark.parametrize("terms", [
    _THETAS[0].terms(1, 40), _THETAS[0].terms(3, 40), [(0, 1)], [(0, -5)],
    [(7, 2)], [(40, 3)], [(0, 1), (40, -1)], []],
    ids=["phi", "phi-dilated", "one", "lone-at-0", "lone-at-7",
         "lone-at-limit", "edge", "none"])
def test_shifted_sum_step_matches_naive(terms):
    """The shifted sums against the per-coefficient product, on slots of
    alternating sign, so that most shifts drop a negative slot: phi(-q)
    with its coefficients -2 and 2, one, lone terms at q^0, q^7 and the
    last slot, 1 - q^limit, and no terms, which gives 0."""
    limit = 40
    dense = [(-1) ** i * (i * i + 3) for i in range(limit + 1)]
    n, l1 = limit + 1, sum(abs(c) for _, c in terms)
    w = slot_width(max(map(abs, dense)) * max(1, l1))
    assert step(dense, terms, n, w) == naive_mul_sparse(dense, terms, limit)


def test_packed_step_slot_widths():
    """A bound of 2^(8w-1) - 1 takes w-byte slots and 2^(8w-1) takes w + 1,
    for w = 1..9.  Steps whose product reaches a bound just below and just
    above 2^(8w-1), and steps on coefficients up to 2^40 and 2^62, give the
    naive product."""
    limit = 30
    terms = _CUBE.terms(1, limit)
    total = sum(abs(c) for _, c in terms)
    cases = [(2 ** 40, 6), (2 ** 62, 9)]
    for w in range(1, 10):
        edge = 2 ** (8 * w - 1)
        assert (slot_width(edge - 1), slot_width(edge)) == (w, w + 1)
        cases += [((edge - 1) // total, w), (-(-edge // total), w + 1)]
    for top, width in cases:
        # the signs of the terms, reversed, so the product at q^limit is
        # top * total, the bound itself
        dense = [1] * (limit + 1)
        for e, c in terms:
            dense[limit - e] = top if c > 0 else -top
        assert slot_width(top * total) == width
        product = packed_step(dense, terms, limit)
        assert product == naive_mul_sparse(dense, terms, limit)
        assert product[limit] == top * total


def steps_up_to(n):
    """Up to n multiplication steps (factor, d)."""
    return st.lists(st.tuples(st.sampled_from(FACTORS), st.integers(1, 60)),
                    max_size=n)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300).flatmap(lambda limit: st.tuples(
    st.just(limit), steps_up_to(6), steps_up_to(3))))
@example((300, [(_THETAS[4], 1)] * 6 + [(_CUBE, 1)], []))
@example((200, [(_CUBE, 1)], [(_EULER, 1)] * 3))
@example((40, [], [(_THETAS[4], 2)]))
def test_sparse_product_matches_naive(case):
    """The packed product of 0-6 factors divided by 0-3 denominators
    against the literal product, folded over 1 one factor at a time, then
    divided one denominator at a time.  The record is (data, w), one slot
    per coefficient, and a quotient sits on the slots of its exact largest
    coefficient.  The first example's running bound re-slots six times,
    from 1 byte up to 9 at its last factor, so the result is unpacked slot
    by slot (``test_sparse_product_slot_widths``)."""
    limit, steps, divs = case
    factors = [f.terms(d, limit) for f, d in steps]
    denominators = [f.terms(d, limit) for f, d in divs]
    expected = [1] + [0] * limit
    for terms in factors:
        expected = naive_mul_sparse(expected, terms, limit)
    for terms in denominators:
        expected = naive_div_sparse(expected, terms, limit)
    data, w = sparse_product(factors, denominators, limit)
    assert unpack(data, limit + 1, w) == expected
    assert type(data) is bytes and len(data) == (limit + 1) * w
    if denominators:
        assert w == slot_width(max(map(abs, expected)))


@pytest.mark.parametrize("limit", [0, 5, 40])
def test_sparse_product_drops_terms_past_the_limit(limit):
    """Factors listed past q^limit, as the first (longest) factor and as
    later ones, give the product of the factors cut at q^limit (on slots
    that may be wider, as the bounds count every term).  The longest
    factor, -1 + q + q^2 + ..., makes the packed product negative, so that
    a shift past every slot would leave -1."""
    factors = [f.terms(d, limit + 12) for f, d in
               [(_THETAS[0], 1), (_EULER, 2), (_CUBE, 1)]]
    factors.append([(0, -1)] + [(e, 1) for e in range(1, limit + 20)])
    expected = [1] + [0] * limit
    for terms in factors:
        expected = naive_mul_sparse(
            expected, [(e, c) for e, c in terms if e <= limit], limit)
    data, w = sparse_product(factors, [], limit)
    assert unpack(data, limit + 1, w) == expected


def slot_widths(monkeypatch, factors, limit):
    """The product as a list, and the slot widths of the first factor's
    packing (the first call of ``qseries._joined``, which reads the slot
    bytes the first factor's terms were written into) and of each
    shift-add step."""
    widths, first = [], []
    for name, seen in (("_joined", first), ("mul_packed", widths)):
        real = getattr(qseries, name)

        def recording(*args, real=real, seen=seen):
            seen.append(args[-1])
            return real(*args)
        monkeypatch.setattr(qseries, name, recording)
    data, w = sparse_product(factors, [], limit)
    assert widths[-1:] in ([], [w])
    return unpack(data, limit + 1, w), first[:1] + widths


def test_sparse_product_slot_widths(monkeypatch):
    """The example of ``test_sparse_product_matches_naive`` passes through
    1, 3, 4, 5, 6, 8 and 9 bytes under the bound of max |x| by the l1 chain
    and Cauchy-Schwarz, with ||x||_2 by Young's inequality and the slot
    count; the last width takes the path for slots wider than 8 bytes."""
    limit = 300
    factors = [f.terms(1, limit) for f in [_THETAS[4]] * 6 + [_CUBE]]
    product, widths = slot_widths(monkeypatch, factors, limit)
    assert widths == [1, 3, 4, 5, 6, 8, 9]
    assert slot_width(max(map(abs, product))) == 6


@pytest.mark.parametrize("k, width", [(127, 1), (128, 2)])
def test_sparse_product_bound_is_tight(monkeypatch, k, width):
    """Two factors of k ones: the product peaks at exactly k, at q^(k-1),
    and the bound is k, so 127 stays on one byte and 128 takes two.  A
    bound one below the peak would put 128 on one byte, where it wraps to
    -128."""
    ones = [(e, 1) for e in range(k)]
    limit = 2 * k
    product, widths = slot_widths(monkeypatch, [ones, ones], limit)
    assert product == naive_mul_sparse(dense(ones, limit), ones, limit)
    assert product[k - 1] == max(product) == k
    assert widths == [1, width]


def test_term_lists_are_cut_from_one_list_per_step(monkeypatch):
    """Every step's terms, asked at a growing, a shrinking and a repeated
    limit, equal a fresh ``terms``; a step is built again only when its
    limit grows, and the cache, cleared when full, keeps at most 64
    steps."""
    real, built = eta._Factor.terms, []

    def counting(factor, d, limit):
        built.append(limit)
        return real(factor, d, limit)
    monkeypatch.setattr(eta, "_TERMS", {})
    monkeypatch.setattr(eta._Factor, "terms", counting)
    for factor in FACTORS:
        for limit in (30, 200, 7, 200, 0):
            assert eta._terms(factor, 2, limit) == real(factor, 2, limit)
    assert built == [30, 200] * len(FACTORS)
    for d in range(1, 100):
        assert eta._terms(_EULER, d, 50) == real(_EULER, d, 50)
        assert len(eta._TERMS) <= 64


@settings(max_examples=40, deadline=None)
@given(kernel_case())
@example(FLOOR_CASES[0])
@example(FLOOR_CASES[1])
@example(FLOOR_CASES[2])
@example(FLOOR_CASES[3])
@example(FLOOR_CASES[4])
@example(FLOOR_CASES[5])
def test_sparse_division_inverts_multiplication(case):
    dense, terms, limit = case
    assert div_sparse(packed_step(dense, terms, limit), terms,
                       limit) == dense


@st.composite
def random_row(draw):
    """A row at level 6, 12, 44 or 52 with exponents from [-4, 4] except at
    divisor 1, whose exponent is the least from -4 on that makes the
    leading exponent a non-negative integer."""
    level = draw(st.sampled_from((6, 12, 44, 52)))
    rest = draw(st.lists(st.integers(-4, 4), min_size=len(divisors(level)) - 1,
                         max_size=len(divisors(level)) - 1))
    s = sum(d * r for d, r in zip(divisors(level)[1:], rest))
    low = max(-4, -s)
    return EtaQuotient.of(level, [low + (-s - low) % 24] + rest)


@settings(max_examples=60, deadline=None)
@given(random_row(), st.integers(1, 60), st.integers(1, 60))
def test_expand_ints_random_rows_against_naive(row, low, high):
    """Each row at two precisions from an empty entry, high then low (an
    expansion, then a read of the packed cache) and low then high (two
    expansions)."""
    low, high = sorted((low, high))
    expected = naive_eta_expansion(row, high)
    for precisions in ((high, low), (low, high)):
        eta._EXPANSION_CACHE.pop(row, None)
        for precision in precisions:
            assert list(expand(row, precision).coeffs) == \
                expected[:precision + 1]


def test_expand_ints_against_naive_order(fresh_expansions):
    """The planned packed expansion against one pentagonal step per unit of
    exponent in divisor order, on every table row and the repaired row,
    four of which still divide."""
    precision = 400
    rows = set(table_rows(44) + table_rows(52) + basis_rows(52))
    assert len(rows) == 34
    assert sum(1 for row in rows if _plan(row)[2]) == 4
    for row in rows:
        assert list(expand(row, precision).coeffs) == naive_eta_expansion(
            row, precision)


def test_plan_divides_only_three_basis_rows():
    """Structural guard: every basis row but three expands without a
    division, each of those three and the printed level-52 row 7 divides
    once, and every row's slot bound fits 8-byte slots through precision
    20000."""
    dividing = {}
    for row in basis_rows(44) + basis_rows(52) + table_rows(52):
        g, steps, divs = _plan(row)
        if divs:
            dividing[row.as_row()] = len(divs)
        bound = prod(sum(abs(c) for _, c in f.terms(d, 20000 // g))
                     for f, d in steps)
        assert bound.bit_length() <= 63, row
    assert dividing == {(0, -3, 5, 0, 5, 1): 1, (1, -3, 4, -3, 5, 4): 1,
                        (0, 1, -1, 0, 3, 5): 1, (1, -1, 0, 3, 5, 0): 1}


def test_evaluation_rows_swap_in_cuspidal_division_free_quotients():
    """The evaluation rows are the basis rows with the swaps of
    ``DIVISION_FREE_ROWS``: each swapped row is a strictly cuspidal
    weight-4 form of its level, and no evaluation row plans a division."""
    for level in tables.levels():
        swaps = tables.DIVISION_FREE_ROWS[level]
        basis, rows = basis_rows(level), evaluation_rows(level)
        assert [i for i, (b, r) in enumerate(zip(basis, rows), 1)
                if b != r] == list(swaps)
        for i, (old, new, _, _) in swaps.items():
            assert (basis[i - 1].as_row(), rows[i - 1].as_row()) == (old, new)
            rep = check_ligozat(rows[i - 1])
            assert rep.in_modular_space and rep.cond_v_prime
            assert rep.weight == 4
        assert not any(_plan(row)[2] for row in rows)


def test_level_without_swaps_evaluates_over_its_basis_rows(monkeypatch):
    monkeypatch.setitem(tables.CUSP_EXPONENTS, 20, LEVEL20_ROWS)
    assert 20 not in tables.DIVISION_FREE_ROWS
    assert evaluation_rows(20) == basis_rows(20)


def _swap(level, i, key=None, **fields):
    """(level, key, entry): the swap of row i with fields replaced, keyed
    by i or by the key given."""
    old, new, den, nums = tables.DIVISION_FREE_ROWS[level][i]
    entry = {**dict(old=old, new=new, den=den, nums=nums), **fields}
    return level, key or i, tuple(entry.values())


@pytest.mark.parametrize("level, i, entry, message", [
    (*_swap(44, 7, old=(0, -3, 5, 0, 5, 2)),
     r"DIVISION_FREE_ROWS\[44\]\[7\]: basis row 7 is \(0, -3, 5, 0, 5, 1\), "
     r"not \(0, -3, 5, 0, 5, 2\)"),
    (*_swap(52, 14, key=19),
     r"DIVISION_FREE_ROWS\[52\]\[19\]: basis row 19 is None"),
    (*_swap(44, 11, new=(0, 0, 6, 0, 4, -1)),
     r"DIVISION_FREE_ROWS\[44\]\[11\]: \(0, 0, 6, 0, 4, -1\) is not a "
     "weight-4 form of level 44"),
    (*_swap(44, 11, new=(0, -3, -3, 0, 13, 1)),
     r"DIVISION_FREE_ROWS\[44\]\[11\]: \(0, -3, -3, 0, 13, 1\) is not a "
     "weight-4 form of level 44"),
    (*_swap(44, 7, new=(-2, 6, 0, 6, 2, 0)),
     r"DIVISION_FREE_ROWS\[44\]\[7\]: \(-2, 6, 0, 6, 2, 0\) is not a "
     "weight-4 form of level 44"),
    (*_swap(52, 14, new=(0, 1, -1, 0, 3, 5)),
     r"DIVISION_FREE_ROWS\[52\]\[14\]: \(0, 1, -1, 0, 3, 5\) expands with "
     "a division"),
    (*_swap(52, 14, new=(0, -1, 3, 0, 5)),
     r"DIVISION_FREE_ROWS\[52\]\[14\]: row of 5 exponents"),
], ids=["stale", "past-the-table", "weight-9/2", "not-holomorphic",
        "weight-6", "divides", "malformed"])
def test_bad_swap_is_a_basis_error(monkeypatch, level, i, entry, message):
    """A relation that names a row the basis no longer holds, or whose
    swapped row fails Ligozat or plans a division, fails where the
    evaluation rows are built."""
    monkeypatch.setitem(tables.DIVISION_FREE_ROWS, level, {i: entry})
    with pytest.raises(BasisError, match=f"^{message}"):
        evaluation_rows(level)


@st.composite
def chain_exponents(draw):
    """A chain d, 2d, 4d, ... of length 1-4 over an odd d, and an exponent
    from [-6, 6] on each of its divisors."""
    d = draw(st.sampled_from((1, 3, 11, 13)))
    length = draw(st.integers(1, 4))
    exps = draw(st.lists(st.integers(-6, 6), min_size=length,
                         max_size=length))
    return [d << i for i in range(length)], exps


@settings(max_examples=300, deadline=None)
@given(chain_exponents())
@example(([1, 2, 4], [1, -3, 4]))
@example(([11, 22, 44], [2, -4, 8]))
def test_plan_chain_matches_literal_planner(case):
    """The same steps in the same order, and the same divisors, as the
    planner that scores every node afresh; the examples are the two
    costliest basis chains."""
    chain, exps = case
    assert _plan_chain(chain, exps) == literal_plan_chain(chain, exps)


def test_each_quotient_is_planned_once(fresh_expansions):
    """The suites that expand at several precisions plan each of the 37
    table, basis and division-free quotients once."""
    _plan.cache_clear()
    verify.basis()
    verify.lemma32(120)
    verify.closed_forms(200)
    assert _plan.cache_info().misses == 37


def test_expand_below_leading_exponent(fresh_expansions):
    """A precision below the leading exponent gives precision + 1 zeros,
    the cache entry holds its precision first, and it never holds more
    slots than the exponents e, e + g, ... up to that precision."""
    (i, _), = tables.REPAIRED_ROWS[52].items()
    row = basis_rows(52)[i - 1]
    for precision in (1, 3, 6, 7):
        coeffs = expand(row, precision).coeffs
        assert coeffs == (0,) * precision + (precision == 7,)
        cached_precision, data, w, e, g = eta._EXPANSION_CACHE[row]
        assert (cached_precision, e) == (precision, 7)
        assert len(data) == len(range(e, precision + 1, g)) * w
    assert expand(row, 3).coeffs == (0,) * 4


def literal_slots(data, w):
    """The signed little-endian w-byte slots of data, one at a time."""
    return [int.from_bytes(data[i:i + w], "little", signed=True)
            for i in range(0, len(data), w)]


def test_expansion_cache_holds_narrow_packed_ints(fresh_expansions):
    """Guard on the cache layout: after the closed-form suite every entry
    of the 33 evaluation rows is the slot bytes of its product, at most 6
    bytes wide at P = 2000, one slot per exponent e, e + g, ..., and no
    bound: qseries reads that from the bytes."""
    verify.closed_forms(2000)
    assert len(eta._EXPANSION_CACHE) == 33
    for precision, data, w, e, g in eta._EXPANSION_CACHE.values():
        coeffs = literal_slots(data, w)
        assert type(data) is bytes and precision == 2000 and w <= 6
        assert len(coeffs) == len(range(e, precision + 1, g))


@pytest.mark.parametrize("precision, digest", [
    (1000, "20fec8c71638ccd8265d9341178d9aa85a60a25281620e44f4c0b9525675079f"),
    (5000, "bd9b0d80e68577a2952998b362f670a2b0b88b339242b94b2440bf306172f4be"),
], ids=["1000", "5000"])
def test_cached_slot_bytes_are_pinned(precision, digest, fresh_expansions):
    """Pin: the SHA-256 of the slot width, byte count and slot bytes of
    each of the 37 table, basis and division-free quotients, in that order
    level by level, each expanded to the precision; a change to a cached
    byte or width fails it."""
    rows = dict.fromkeys(row for level in tables.levels() for rows in (
        table_rows(level), basis_rows(level), evaluation_rows(level))
        for row in rows)
    assert len(rows) == 37
    h = hashlib.sha256()
    for row in rows:
        data, w, _, _ = eta.expand_packed(row, precision)
        h.update(bytes([w]) + len(data).to_bytes(8, "little") + data)
    assert h.hexdigest() == digest


@pytest.mark.parametrize("precision", [120, 1000])
def test_dividing_rows_are_cached_on_their_narrowest_slots(precision,
                                                           fresh_expansions):
    """The three basis rows that divide, 44#7, 44#11 and 52#14, are cached
    on the slot width of their exact largest coefficient, not of the bound
    of the product they were divided out of."""
    dividing = [(level, i) for level in tables.levels()
                for i, row in enumerate(basis_rows(level), 1) if _plan(row)[2]]
    assert dividing == [(44, 7), (44, 11), (52, 14)]
    for level, i in dividing:
        data, w, _, _ = eta.expand_packed(basis_rows(level)[i - 1],
                                          precision)
        assert w == slot_width(max(map(abs, literal_slots(data, w))))


@settings(max_examples=40, deadline=None)
@given(random_row(), st.integers(1, 60), st.integers(0, 60))
def test_expand_places_the_cached_slots(row, high, cut):
    """expand of a cached entry, at its precision or below, is the literal
    placement of the entry's slots at q^e, q^(e+g), ... and 0 elsewhere."""
    eta._EXPANSION_CACHE.pop(row, None)
    eta.expand_packed(row, high)
    cached = eta._EXPANSION_CACHE[row]
    for precision in {high, max(1, high - cut)}:
        placed = [0] * (precision + 1)
        _, data, w, e, g = cached
        for n, c in zip(range(e, precision + 1, g), literal_slots(data, w)):
            placed[n] = c
        assert expand(row, precision).coeffs == tuple(placed)
        assert eta._EXPANSION_CACHE[row] is cached


def test_quotient_construction():
    eq = EtaQuotient.of(44, (6, -2, 0, 6, -2, 0))
    assert eq.exponent(1) == 6 and eq.exponent(4) == 0
    assert eq.as_row() == (6, -2, 0, 6, -2, 0)
    assert eq.weight == 4
    assert eq.leading_exponent == 1
    with pytest.raises(ValueError, match="3 does not divide level 44"):
        EtaQuotient(44, ((3, 1),))
    with pytest.raises(ValueError, match="^level must be positive$"):
        EtaQuotient(0, ())
    for row in ((4, 0, 0, 4, 0), (4, 0, 0, 4, 0, 0, 99)):
        with pytest.raises(ValueError, match="6 divisors of level 44"):
            EtaQuotient.of(44, row)


def test_quotients_are_cache_keys_by_value(fresh_expansions):
    """EtaQuotient.of and the constructor build equal keys with equal
    hashes, so expanding one fills the cache entry the other reads."""
    row = (1, -3, 4, -3, 5, 4)
    built, direct = EtaQuotient.of(44, row), EtaQuotient(44, tuple(
        (d, r) for d, r in zip(divisors(44), row) if r))
    assert built is not direct
    assert built == direct and hash(built) == hash(direct)
    first = expand(built, 30)
    entry = eta._EXPANSION_CACHE[direct]
    assert expand(direct, 30) == first
    assert list(eta._EXPANSION_CACHE) == [built]
    assert eta._EXPANSION_CACHE[built] is entry


def test_expand_trivial_and_errors():
    assert expand(EtaQuotient.of(6, (0, 0, 0, 0)), 8) == QSeries(8, [1])
    with pytest.raises(ValueError, match="not divisible by 24"):
        expand(EtaQuotient.of(1, (1,)), 8)
    with pytest.raises(ValueError, match="negative leading exponent"):
        expand(EtaQuotient.of(1, (-24,)), 8)


def test_expand_against_literal_oracle():
    precision = 50
    for level in (44, 52):
        for row in table_rows(level):
            literal = literal_eta_expansion(
                level, dict(row.exponents), precision)
            assert list(expand(row, precision).coeffs) == literal


def test_expand_weight4_level11_square():
    # fourth powers at arguments z and 11z: leading exponent 2, then -4, 2, ...
    eq = EtaQuotient.of(44, (4, 0, 0, 4, 0, 0))
    s = expand(eq, 10)
    assert list(s.coeffs[:7]) == [0, 0, 1, -4, 2, 8, -5]


def test_leading_coefficients_are_one():
    for level in (44, 52):
        for row in table_rows(level):
            e = int(row.leading_exponent)
            s = expand(row, 40)
            assert order(s) == e
            assert s[e] == 1


def test_expansions_are_integral():
    for row in basis_rows(44) + basis_rows(52):
        assert all(type(c) is int for c in expand(row, 60).coeffs)


def test_expansion_cache_consistency():
    eq = EtaQuotient.of(52, (1, 5, 0, 3, -1, 0))
    high = expand(eq, 80)
    low = expand(eq, 25)
    assert low.coeffs == high.coeffs[:26]


def test_table_rows_pinned():
    rows44 = table_rows(44)
    rows52 = table_rows(52)
    assert len(rows44) == 15 and len(rows52) == 18
    assert rows52[0].as_row() == (1, 5, 0, 3, -1, 0)
    assert rows44[6].as_row() == (0, -3, 5, 0, 5, 1)
    with pytest.raises(ValueError):
        table_rows(26)


def test_ligozat_all_rows_modular_weight_four():
    assert verify.ligozat().ok  # conditions (i)-(v) at weight 4
    assert all(check_ligozat(row).leading_exponent >= 1
               for row in table_rows(44) + table_rows(52))


def test_ligozat_strictness_profile():
    """The strict cusp condition fails on exactly the known rows.

    Those rows have order exactly zero at the recorded cusps, so they are
    holomorphic modular forms but not cusp forms; everything else is
    strictly cuspidal.
    """
    assert verify.ligozat().ok
    for level in (44, 52):
        for i, zero_cusps in tables.NONSTRICT_ROWS[level].items():
            rep = check_ligozat(table_rows(level)[i - 1])
            assert tuple(c for c, v in rep.cusp_orders if v == 0) == zero_cusps


@settings(max_examples=60, deadline=None)
@given(random_row())
def test_cusp_orders_match_per_term_fractions(row):
    """The order at each cusp c is the sum over the divisors d of
    gcd(d, c)^2 r_d / d, one Fraction per term."""
    assert check_ligozat(row).cusp_orders == tuple(
        (c, sum((Fraction(gcd(d, c) ** 2, d) * r for d, r in row.exponents),
                Fraction(0)))
        for c in divisors(row.level))


def test_ligozat_examples():
    rep = check_ligozat(EtaQuotient.of(1, (1,)))
    assert not rep.cond_i
    row9 = table_rows(52)[8]
    assert check_ligozat(row9).weight == 4
    row1 = check_ligozat(table_rows(44)[0])
    assert row1.in_modular_space and row1.cond_v_prime and row1.weight == 4


def test_dilation_observations():
    """Rows that are dilations: coefficients shift exponents by a factor 2."""
    precision = 200
    rows44 = [expand(r, precision) for r in table_rows(44)]
    rows52 = [expand(r, precision) for r in table_rows(52)]
    for i in (2, 3, 4, 5):
        assert rows44[2 * i - 1] == rows44[i - 1].dilate(2)
    for j in (4, 5, 6, 7):
        assert rows52[2 * j - 1] == rows52[j - 1].dilate(2)
    assert rows52[15] == rows52[14].dilate(2)
    assert rows52[17] == rows52[16].dilate(2)


def test_repaired_rows():
    assert basis_rows(44) == table_rows(44)
    repaired = basis_rows(52)
    printed = table_rows(52)
    changed = [i for i, (a, b) in enumerate(zip(repaired, printed), 1) if a != b]
    assert changed == list(tables.REPAIRED_ROWS[52]) == [7]
    replacement = repaired[7 - 1]
    assert replacement.as_row() == tables.REPAIRED_ROWS[52][7]
    rep = check_ligozat(replacement)
    assert rep.in_modular_space and rep.cond_v_prime and rep.weight == 4
    assert replacement.leading_exponent == 7
