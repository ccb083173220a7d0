from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convsum.spaces as spaces_module
from convsum import eta, tables, verify
from convsum.arith import _index, divisors, sigma_k
from convsum.eisenstein import EisensteinPair, lhs_square, series_M
from convsum.eta import EtaQuotient, basis_rows, evaluation_rows, table_rows
from convsum.qseries import QSeries
from convsum.spaces import (BasisError, DerivationError,
                            InconsistentSystemError, SingularSystemError,
                            SpaceBasis, _solve, build_basis,
                            derive_coefficients, verify_independence)
from conftest import (LEVEL52_DEPENDENCY, fraction_solve,
                      literal_determinant, literal_sigma_quotient)

PRECISION = 120


@pytest.fixture(scope="module")
def basis44():
    return build_basis(44, PRECISION)


@pytest.fixture(scope="module")
def basis52():
    return build_basis(52, PRECISION, table_rows(52))


@pytest.fixture(scope="module")
def basis52_repaired():
    return build_basis(52, PRECISION)


def test_basis_shapes(basis44, basis52):
    assert len(basis44.eisenstein_part) == 6
    assert len(basis44.cusp_part) == 15
    assert len(basis52.eisenstein_part) == 6
    assert len(basis52.cusp_part) == 18
    for s in basis44.cusp_part + basis52.cusp_part:
        assert s[0] == 0
    # the fourth-power row starts at q^2
    assert basis44.cusp_part[1].coeffs[:3] == (0, 0, 1)


def test_basis_precision_guard():
    with pytest.raises(ValueError):
        build_basis(44, 10)


def test_independence_certificates(basis44, basis52, basis52_repaired):
    assert verify_independence(basis44) == tables.CUSP_DETERMINANTS[44] == -396
    assert (verify_independence(basis52) == tables.CUSP_DETERMINANTS[52]
            == -1966080)
    assert verify_independence(basis52_repaired) != 0


def test_eisenstein_matrix_off_the_triangle_is_a_basis_error(basis44,
                                                             monkeypatch):
    """One sigma_3 value off by one in the table the check reads moves the
    entries sigma_3(t/u) at t = 2u off the built matrix and fails the
    check, though the cusp minor is regular."""
    real = spaces_module.sigma_factored_table

    def off_by_one(k, limit):
        table = real(k, limit)
        table[2] += 1
        return table

    monkeypatch.setattr(spaces_module, "sigma_factored_table", off_by_one)
    with pytest.raises(BasisError, match="not unit lower triangular"):
        verify_independence(basis44)


def test_independence_reads_neither_the_sieve_nor_the_sigma_cache(
        basis44, no_sigma_sieve):
    """The Eisenstein check takes sigma_3 from one table by factorization:
    with every binding of the sieve made to raise, a basis built before it
    still passes, and the cache of ``sigma_k`` is left as it was."""
    before = sigma_k.cache_info()
    assert verify_independence(basis44) == -396
    assert sigma_k.cache_info() == before


@pytest.mark.parametrize("pair", [(1, 44), (4, 11)])
def test_derivation_level44(basis44, pair):
    solution = derive_coefficients(EisensteinPair(*pair), basis44)
    assert solution[:2] == tables.EXPANSION_COEFFS[pair]
    assert solution.solving_indices == (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                        12, 13, 14, 15, 16, 17, 19, 20, 22)


def test_derived_weights_are_fractions(basis44, basis52_repaired):
    """The solve runs in integers and returns Fraction weights; a float
    anywhere would show up as a non-Fraction weight."""
    for pair, basis in (((4, 11), basis44), ((1, 52), basis52_repaired)):
        sol = derive_coefficients(EisensteinPair(*pair), basis)
        weights = sol.sigma3 + sol.cusp_weights
        assert all(type(w) is Fraction for w in weights)


def test_solve_builds_one_fraction_per_weight(basis44, monkeypatch):
    """Rationals appear only in the returned weights: the elimination, the
    back substitution and the residual check all run in integers."""
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(spaces_module, "Fraction", counting)
    derive_coefficients(EisensteinPair(1, 44), basis44)
    assert len(built) == basis44.dimension == 21


@st.composite
def integer_rows(draw, n_rows, width):
    """Integer rows of a given width.  A fresh row may start with a run of
    zeros, and its other entries lie in [-50, 50]; one row in four is
    instead the difference of two earlier rows, a dependent row, with its
    last entry sometimes shifted so that, as a right-hand side, it becomes
    inconsistent."""
    entry = st.integers(-50, 50)
    rows = []
    for _ in range(n_rows):
        if rows and draw(st.integers(0, 3)) == 0:
            i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
            row = [a - b for a, b in zip(rows[i], rows[j])]
            row[-1] += draw(st.sampled_from((0, 1, -3)))
        else:
            lead = draw(st.sampled_from((0, 0, 0, 0, 0, 1, width // 2)))
            row = [0] * lead + [draw(entry) for _ in range(width - lead)]
        rows.append(row)
    return rows


@st.composite
def integer_system(draw):
    """1-6 columns and 1-12 rows; the last entry of each row is the target."""
    m = draw(st.integers(1, 6))
    rows = draw(integer_rows(draw(st.integers(1, 12)), m + 1))
    return [list(c) for c in zip(*rows)][:m], [r[m] for r in rows]


@settings(max_examples=400, deadline=None)
@given(integer_system())
def test_row_reduction_solves_like_fraction_elimination(system):
    """The fraction-free solve picks the same rows as Gauss elimination over
    Fraction and reaches the same outcome: the same solution, the same
    rank, or the same incompatible constraint 0 = v at the same q^n."""
    columns, target = system
    expected = fraction_solve(columns, target)
    if expected[0] == "solved":
        used, x, den = _solve(columns, target, "system")
        assert (used, [Fraction(xj, den) for xj in x]) == expected[1:]
    elif expected[0] == "singular":
        used = expected[1]
        with pytest.raises(SingularSystemError) as info:
            _solve(columns, target, "system")
        assert str(info.value) == (
            f"rank {len(used)} of {len(columns)} after scanning "
            f"n <= {len(target) - 1} (rows used: {used})")
    else:
        _, n, v, used = expected
        with pytest.raises(InconsistentSystemError) as info:
            _solve(columns, target, "system")
        assert str(info.value).startswith(
            f"system: the coefficient constraint at q^{n} reduces to "
            f"0 = {v} over rows {used}; ")


@st.composite
def square_matrix(draw):
    k = draw(st.integers(1, 6))
    return draw(integer_rows(k, k))


@settings(max_examples=300, deadline=None)
@given(square_matrix())
def test_cusp_determinant_is_the_literal_one(mat):
    """The returned determinant, sign included, is the Leibniz sum of the
    leading minor; a zero determinant is a BasisError."""
    k = len(mat)
    basis = SpaceBasis(level=1, divisors=(), eisenstein_part=(),
                       cusp_part=tuple(QSeries(k, [0, *row]) for row in mat),
                       cusp_rows=(), precision=k)
    det = literal_determinant(mat)
    if det == 0:
        with pytest.raises(BasisError, match="singular"):
            verify_independence(basis)
    else:
        assert verify_independence(basis) == det


def test_derivation_spot_values(basis44):
    sol = derive_coefficients(EisensteinPair(1, 44), basis44)
    assert sol.sigma3[0] == Fraction(124464, 61)  # at delta = 1
    assert sol.cusp_weights[0] == Fraction(1440, 61)
    sol2 = derive_coefficients(EisensteinPair(4, 11), basis44)
    assert sol2.cusp_weights[0] == Fraction(110880, 61)


def test_reconstruction_spot_check(basis44):
    sol = derive_coefficients(EisensteinPair(1, 44), basis44)
    lhs = lhs_square(EisensteinPair(1, 44), PRECISION)
    for n in (1, 17, 44, 96, PRECISION):
        value = sum(c * literal_sigma_quotient(3, n, d)
                    for d, c in zip(basis44.divisors, sol.sigma3))
        value += sum(y * s[n]
                     for y, s in zip(sol.cusp_weights, basis44.cusp_part))
        assert value == lhs[n]


def test_level52_printed_rows_inconsistent(basis52):
    """The printed level-52 rows cannot express the squared combinations.

    Together with the six dilated Eisenstein series they satisfy a linear
    relation (rank 23 of 24), and elimination runs into a constraint of the
    form 0 = nonzero at q^22 for both pairs.
    """
    for pair in ((1, 52), (4, 13)):
        with pytest.raises(InconsistentSystemError, match="q\\^22"):
            derive_coefficients(EisensteinPair(*pair), basis52)


def test_level52_rank_deficiency(basis52):
    """One exact dependency among the 24 printed columns, none among 23."""
    columns = [[Fraction(240 * literal_sigma_quotient(3, n, d))
                for n in range(1, PRECISION + 1)] for d in basis52.divisors]
    columns += [[s[n] for n in range(1, PRECISION + 1)]
                for s in basis52.cusp_part]

    def rank(cols):
        rows = [list(r) for r in zip(*cols)]
        r = 0
        for col in range(len(cols)):
            piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = rows[r][col]
            rows[r] = [x / inv for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][col]:
                    f = rows[i][col]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
        return r

    assert rank(columns) == 23
    assert rank(columns[:6] + columns[7:]) == 23  # dropping one Eisenstein column


def test_level52_dependency_certificate(basis52):
    """The pinned relation among the printed columns holds identically.

    It vanishes for every n up to the working precision, far past the
    degree bound of the weight-4 space, so it is an exact identity; the
    nonzero weight on row 7 is why swapping that row restores full rank.
    """
    eis_w, cusp_w = LEVEL52_DEPENDENCY
    assert sum(eis_w) == 0  # constant terms cancel
    assert cusp_w[6] != 0
    for n in range(1, PRECISION + 1):
        total = sum(w * literal_sigma_quotient(3, n, d)
                    for w, d in zip(eis_w, basis52.divisors))
        total += sum(w * s[n] for w, s in zip(cusp_w, basis52.cusp_part))
        assert total == 0, f"dependency fails at n = {n}"


@pytest.mark.parametrize("pair", [(1, 52), (4, 13)])
def test_derivation_level52_repaired(basis52_repaired, pair):
    solution = derive_coefficients(EisensteinPair(*pair), basis52_repaired)
    assert solution[:2] == tables.EXPANSION_COEFFS[pair]


def test_repaired_solution_keeps_reported_spot_value(basis52_repaired):
    # the b_9 weight is insensitive to the repair and matches the reported one
    sol = derive_coefficients(EisensteinPair(4, 13), basis52_repaired)
    assert sol.cusp_weights[8] == -7488


def test_duplicated_row_breaks_derivation():
    # the squared combination needs the dropped direction, so elimination
    # hits an incompatible constraint
    rows = list(table_rows(44))
    rows[3] = rows[2]
    basis = build_basis(44, 100, cusp_rows=tuple(rows))
    with pytest.raises(InconsistentSystemError, match="not in the span"):
        derive_coefficients(EisensteinPair(1, 44), basis)


def test_rank_deficiency_with_target_in_span(monkeypatch):
    # against a target inside the deficient span, the scan exhausts all rows
    # without reaching full rank
    rows = list(table_rows(44))
    rows[3] = rows[2]
    basis = build_basis(44, 90, cusp_rows=tuple(rows))
    monkeypatch.setattr(spaces_module, "lhs_square",
                        lambda pair, precision: basis.cusp_part[2])
    with pytest.raises(SingularSystemError, match="rank 20 of 21"):
        derive_coefficients(EisensteinPair(1, 44), basis)


def test_residual_check_catches_a_late_coefficient():
    # the solving rows stop well below q^100, so only the residual check
    # over every coefficient sees a change there
    basis = build_basis(44, 100)
    last = basis.cusp_part[-1]
    changed = QSeries(100, last.coeffs[:100] + (last.coeffs[100] + 1,))
    broken = basis._replace(cusp_part=basis.cusp_part[:-1] + (changed,))
    with pytest.raises(DerivationError, match=r"residual at q\^100 "):
        derive_coefficients(EisensteinPair(1, 44), broken)


def test_wrong_row_count_rejected():
    with pytest.raises(BasisError):
        build_basis(44, 100, cusp_rows=table_rows(44)[:-1])


def test_cusp_row_with_a_constant_term_rejected():
    """The empty quotient expands to 1, which is not a cusp form."""
    rows = (EtaQuotient(44, ()),) + table_rows(44)[1:]
    with pytest.raises(BasisError,
                       match="^cusp expansion 1 has a constant term$"):
        build_basis(44, 60, cusp_rows=rows)


def test_derivation_needs_residual_headroom():
    """A basis at one coefficient below twice its dimension is refused
    before any row is solved."""
    basis = build_basis(44, 41)
    with pytest.raises(ValueError, match=(
            "^precision 41 leaves no residual headroom; need at least 42$")):
        derive_coefficients(EisensteinPair(1, 44), basis)


def test_independence_needs_the_cusp_dimension(basis44):
    """A basis whose precision is below dim S has no leading minor."""
    with pytest.raises(ValueError, match="^precision below cusp dimension$"):
        verify_independence(basis44._replace(precision=14))


def test_pair_level_mismatch(basis44):
    with pytest.raises(ValueError):
        derive_coefficients(EisensteinPair(1, 52), basis44)


RELATIONS = [(level, i) for level, swaps in tables.DIVISION_FREE_ROWS.items()
             for i in swaps]


@pytest.mark.parametrize("level, i", RELATIONS)
def test_division_free_relation_holds_far_past_the_sturm_bound(level, i):
    """The frozen numerators, summed over M(q^t) and the swapped rows
    without any solve, give d times the replaced row at every q^n to 600."""
    _, _, den, nums = tables.DIVISION_FREE_ROWS[level][i]
    m = series_M(600)
    columns = [m.dilate(t).coeffs for t in divisors(level)] + [
        eta.expand(row, 600).coeffs for row in evaluation_rows(level)]
    target = eta.expand(basis_rows(level)[i - 1], 600).coeffs
    assert [sum(x * c[n] for x, c in zip(nums, columns))
            for n in range(601)] == [den * t for t in target]


def test_lemma32_checks_the_relations_past_the_sturm_bound():
    """The least precision of ``lemma32``, 2 max dim M = 48, is past the
    Sturm bound 4 mu / 12 of weight 4 at every level, 24 at 44 and 28 at
    52, so a relation of weight-4 forms that holds there holds exactly.
    At that floor every relation holds and prints no line."""
    floor = 2 * max(m for m, _, _ in tables.DIMENSIONS.values())
    sturm = {level: Fraction(4 * _index(level), 12)
             for level in tables.levels()}
    assert (floor, sturm) == (48, {44: 24, 52: 28})
    assert all(floor > bound for bound in sturm.values())
    with pytest.raises(ValueError, match=(
            "^lemma32 precision must be at least 48, got 47$")):
        verify.lemma32(47)
    check = verify.lemma32(48)
    assert check.ok is True
    assert [x.split()[0] for x in check.lines] == ["pair"] * 4 + ["lemma32:"]


def test_relation_residual_check_catches_a_late_coefficient(monkeypatch):
    """``lemma32`` checks each relation at every coefficient of its basis,
    not only up to the Sturm bound: a replaced row changed at q^100 fails
    the relation there, and each pair over that row its own residual."""
    real = eta.expand
    replaced = basis_rows(44)[6]

    def changed(row, precision):
        series = real(row, precision)
        if row != replaced:
            return series
        return QSeries(precision, series.coeffs[:100]
                       + (series.coeffs[100] + 1,) + series.coeffs[101:])

    monkeypatch.setattr(eta, "expand", changed)
    check = verify.lemma32(120)
    assert check.ok is False
    assert check.lines[0::2] == (
        "reconstruction residual at q^100 for pair (1,44)",
        "reconstruction residual at q^100 for pair (4,11)",
        "reconstruction residual at q^100 for level 44 row 7")
    assert check.lines[-1] == "lemma32: FAILED"
