"""Shared oracles for the test suite.

The oracles here deliberately avoid the library's fast paths: the eta
oracle multiplies out the literal product factor by factor with Fraction
arithmetic, the sparse-series kernels and the series product run one
coefficient at a time, the convolution-sum table adds the double sum one
slice at a time, the squared-combination expansion takes its divisor sums
one value at a time, the divisor-sum oracles enumerate divisors
directly, the four-square oracle visits the lattice points of the sphere,
and the linear-algebra oracles are Gauss elimination over
Fraction and the Leibniz determinant.  The eta-quotient chain planner is
kept as first written, scoring every node afresh.  The previously reported
coefficient lists, the level-52 dependency certificate and the cusp rows of
level 20, which only the tests read, are kept here verbatim too.
``run_cli`` runs one command line in process, as a shell would, for the
command-line tests.
"""

from __future__ import annotations

import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from itertools import permutations, repeat
from math import isqrt
from operator import add, mul
from unittest import mock

import pytest

from convsum import cli, eta
from convsum.arith import sigma_factored, sigma_k
from convsum.eta import _CUBE, _EULER, _THETAS
from convsum.qseries import QSeries


@dataclass(frozen=True)
class CliResult:
    """What one command line left: its exit code, stdout as bytes and
    stderr as text."""

    exit_code: int
    stdout_bytes: bytes
    stderr: str

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode()

    @property
    def output(self) -> str:
        """Stdout, then stderr: all the text a terminal shows."""
        return self.stdout + self.stderr


def run_cli(*args: str, env: dict[str, str] | None = None) -> CliResult:
    """``convsum ARGS`` in process, with the variables of env set for the
    call only.  An exception other than the exit itself propagates."""
    out, err = StringIO(), StringIO()
    with mock.patch.dict(os.environ, env or {}), redirect_stdout(out), \
            redirect_stderr(err):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
        else:
            raise AssertionError("cli.main returned without exiting")
    return CliResult(code, out.getvalue().encode(), err.getvalue())


def mul_lists(a, b, precision):
    """Product of two coefficient lists, truncated at the precision."""
    out = [Fraction(0)] * (precision + 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj and i + j <= precision:
                    out[i + j] += ai * bj
    return out


def literal_euler_product(delta, precision):
    """prod over n of (1 - q^{delta n}) multiplied out literally."""
    factor = [Fraction(0)] * (precision + 1)
    factor[0] = Fraction(1)
    for n in range(1, precision // delta + 1):
        binom = [Fraction(0)] * (precision + 1)
        binom[0] = Fraction(1)
        binom[delta * n] = Fraction(-1)
        factor = mul_lists(factor, binom, precision)
    return factor


def literal_euler_quotient(exponents, precision):
    """prod of literal Euler products F(q^delta)^r, as a Fraction list."""

    def invert(a):
        out = [Fraction(0)] * (precision + 1)
        out[0] = 1 / a[0]
        for n in range(1, precision + 1):
            acc = sum(a[k] * out[n - k] for k in range(1, n + 1))
            out[n] = -acc / a[0]
        return out

    result = [Fraction(0)] * (precision + 1)
    result[0] = Fraction(1)
    for delta, r in sorted(exponents.items()):
        if r == 0:
            continue
        factor = literal_euler_product(delta, precision)
        if r < 0:
            factor = invert(factor)
        for _ in range(abs(r)):
            result = mul_lists(result, factor, precision)
    return result


def literal_eta_expansion(level, exponents, precision):
    """q^e * prod of literal Euler products, as a Fraction list."""
    result = literal_euler_quotient(exponents, precision)
    shift = sum(d * r for d, r in exponents.items()) // 24
    shifted = [Fraction(0)] * (precision + 1)
    for i in range(precision + 1 - shift):
        shifted[i + shift] = result[i]
    return shifted


def literal_plan_chain(chain, exps):
    """The chain planner as first written, which scores each node afresh
    through ``key`` and tests cancellation at every position: multiplication
    steps (factor, d) and the d of each single F(q^d) to divide by, for the
    product of F(q^d)^r over one chain."""
    placed = []
    for f in _THETAS:
        for i in range(len(chain) - len(f.vector) + 1):
            v = [0] * len(chain)
            v[i:i + len(f.vector)] = f.vector
            placed.append((f, chain[i], v, f.cost(chain[i])))
    single = [_EULER.cost(d) for d in chain]
    cube = [_CUBE.cost(d) for d in chain]

    def key(node):
        """(divisions, their cost, multiplication cost) of a node."""
        used, rest = node
        divs = sum(-r for r in rest if r < 0)
        div_cost = sum(-r * c for r, c in zip(rest, single) if r < 0)
        mul_cost = sum(placed[j][3] for j in used) + sum(
            r // 3 * c3 + r % 3 * c1
            for r, c1, c3 in zip(rest, single, cube) if r > 0)
        return divs, div_cost, mul_cost

    # breadth first over multisets of up to three theta series, each of
    # which cancels a negative exponent; no deeper once some plan divides
    # nowhere
    nodes = {(): exps}
    frontier = nodes
    for _ in range(3):
        if min(map(key, nodes.items()))[0] == 0:
            break
        grown = {}
        for used, rest in frontier.items():
            for j, (_, _, v, _) in enumerate(placed):
                node = tuple(sorted(used + (j,)))
                if node not in nodes and any(
                        r < 0 and x < 0 for r, x in zip(rest, v)):
                    grown[node] = [r - x for r, x in zip(rest, v)]
        nodes.update(grown)
        frontier = grown
    used, rest = min(nodes.items(), key=key)
    steps = [(placed[j][0], placed[j][1]) for j in used]
    for d, r in zip(chain, rest):
        if r > 0:
            steps += [(_CUBE, d)] * (r // 3) + [(_EULER, d)] * (r % 3)
    return steps, [d for d, r in zip(chain, rest) for _ in range(-r)]


def naive_mul_sparse(dense, terms, limit):
    """dense * sum(c q^e for (e, c) in terms), one coefficient at a time."""
    out = [0] * (limit + 1)
    for e, c in terms:
        for i in range(limit + 1 - e):
            out[i + e] += c * dense[i]
    return out


def naive_div_sparse(dense, terms, limit):
    """dense / sum(c q^e for (e, c) in terms) by the coefficient recurrence;
    the terms must start with (0, 1)."""
    out = [0] * (limit + 1)
    for i in range(limit + 1):
        acc = dense[i]
        for e, c in terms:
            if e == 0:
                continue
            if e > i:
                break
            acc -= c * out[i - e]
        out[i] = acc
    return out


def naive_eta_expansion(eq, precision):
    """Integer expansion of an eta quotient with the per-coefficient kernels,
    one pentagonal step per unit of exponent, in divisor order."""
    dense = [1] + [0] * precision
    for d, r in eq.exponents:
        terms = eta._EULER.terms(d, precision)
        step = naive_mul_sparse if r > 0 else naive_div_sparse
        for _ in range(abs(r)):
            dense = step(dense, terms, precision)
    shift = sum(d * r for d, r in eq.exponents) // 24
    return ([0] * shift + dense)[:precision + 1]


def naive_series_mul(s, t):
    """Cauchy product of two series straight from the definition."""
    p = min(s.precision, t.precision)
    return QSeries(p, [sum(s.coeffs[i] * t.coeffs[n - i] for i in range(n + 1))
                       for n in range(p + 1)])


def literal_w_table(alpha, beta, max_n):
    """Convolution sums for n = 0..max_n as the literal double sum of
    sigma(l) * sigma(m) over alpha*l + beta*m = n, one slice of l per m."""
    sig = [sigma_k(1, l) for l in range(max_n // alpha + 1)]
    out = [0] * (max_n + 1)
    for m in range(1, (max_n - alpha) // beta + 1):
        start = alpha + beta * m
        out[start::alpha] = map(add, out[start::alpha],
                                map(mul, sig[1:], repeat(sigma_k(1, m))))
    return out


def literal_sigma_quotient(k, n, delta):
    """sigma_k(n / delta) by factorization when delta | n, else 0."""
    return sigma_factored(k, n // delta) if n % delta == 0 else 0


def literal_rhs_identity(pair, w_values, precision):
    """``eisenstein.rhs_identity`` as the per-n formula, each divisor sum
    read one value at a time."""
    a, b = pair
    return QSeries(precision, [(a - b) ** 2] + [
        240 * a * a * literal_sigma_quotient(3, n, a)
        + 240 * b * b * literal_sigma_quotient(3, n, b)
        + 48 * a * (b - 6 * n) * literal_sigma_quotient(1, n, a)
        + 48 * b * (a - 6 * n) * literal_sigma_quotient(1, n, b)
        - 1152 * a * b * w_values(n) for n in range(1, precision + 1)])


def sigma_by_full_scan(k, n):
    """Divisor power sum by scanning every candidate up to n."""
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def sigma1_sieve(limit):
    """sigma(n) for n = 0..limit by explicit divisor accumulation."""
    acc = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            acc[m] += d
    return acc


def literal_r4(n):
    """Four-square count by enumerating x1, x2, x3 with |x_i| <= sqrt(n)
    and testing whether the remainder is a square x4^2."""
    count = 0
    s1 = isqrt(n)
    for x1 in range(-s1, s1 + 1):
        r1 = n - x1 * x1
        s2 = isqrt(r1)
        for x2 in range(-s2, s2 + 1):
            r2 = r1 - x2 * x2
            s3 = isqrt(r2)
            for x3 in range(-s3, s3 + 1):
                r3 = r2 - x3 * x3
                x4 = isqrt(r3)
                if x4 * x4 == r3:
                    count += 1 if x4 == 0 else 2
    return count


def fraction_solve(columns, target):
    """Gauss elimination over Fraction of sum x_j columns[j] = target.

    Rows n = 0, 1, ... are taken greedily, each reduced against the
    normalised pivot rows in order, until full rank; back substitution then
    runs from the highest pivot column down.  Returns ("solved", rows,
    solution), ("singular", rows), or ("inconsistent", n, v, rows) when the
    constraint at q^n reduces to 0 = v.
    """
    m = len(columns)
    pivots, used = [], []
    for n in range(len(target)):
        if len(pivots) == m:
            break
        r = [Fraction(c[n]) for c in columns]
        rhs = Fraction(target[n])
        for col, prow, prhs in pivots:
            f = r[col]
            if f:
                r = [a - f * b for a, b in zip(r, prow)]
                rhs -= f * prhs
        col = next((i for i, a in enumerate(r) if a), None)
        if col is None:
            if rhs:
                return ("inconsistent", n, rhs, tuple(used))
            continue
        pivots.append((col, [a / r[col] for a in r], rhs / r[col]))
        used.append(n)
    if len(pivots) < m:
        return ("singular", tuple(used))
    solution = [Fraction(0)] * m
    for col, r, rhs in sorted(pivots, key=lambda t: -t[0]):
        solution[col] = rhs - sum(r[j] * solution[j] for j in range(col + 1, m))
    return ("solved", tuple(used), solution)


def literal_determinant(mat):
    """Leibniz sum over every permutation, signed by its inversion count."""
    n = len(mat)
    total = 0
    for perm in permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j]
                           for i in range(n) for j in range(i + 1, n))
        for i, j in enumerate(perm):
            term *= mat[i][j]
        total += term
    return total


def partition_numbers(limit):
    """p(n) for n = 0..limit by the coin-change recurrence."""
    p = [0] * (limit + 1)
    p[0] = 1
    for part in range(1, limit + 1):
        for n in range(part, limit + 1):
            p[n] += p[n - part]
    return p


# ---------------------------------------------------------------------------
# data that only the tests compare against

def _fr(values):
    return tuple(Fraction(v) for v in values)


# The dependency certificate: with e = (e_1, e_2, e_4, e_13, e_26, e_52) the
# first tuple and c = (c_1, ..., c_18) the second,
#     sum_t e_t * sigma_3(n/t) + sum_j c_j * b_j(n) = 0   for every n >= 1,
# where b_j are the expansions of the printed level-52 rows
# (``tables.CUSP_EXPONENTS[52]``).  The Eisenstein weights sum to zero, so
# the constant terms cancel as well; vanishing far past the degree bound of
# the weight-4 space makes the relation an identity.
LEVEL52_DEPENDENCY = (
    (4, -64, 0, -4, 64, 0),
    (-4, 57, 68, -104, -1368, -1440, -7140, 0, 0, 1644, 0, -2192, 0, 0,
     -33, 548, -16, 0),
)

# Cusp rows of S_4(Gamma0(20)) over the divisors 1, 2, 4, 5, 10, 20: a third
# level that tests add to ``tables`` as data.
LEVEL20_ROWS = (
    (3, 3, 0, 1, 1, 0),
    (4, 0, 0, 4, 0, 0),
    (-1, 0, 5, 5, 0, -1),
    (-1, 5, 0, 5, -1, 0),
    (-2, 3, 5, 2, 1, -1),
    (0, 3, 3, 0, 1, 1),
)


# ---------------------------------------------------------------------------
# previously reported coefficient lists, verbatim

REPORTED_EXPANSION_COEFFS = {
    (1, 44): (
        _fr(("124464/61", "-577662336/40565", "68986368/5795", "-174240/61",
             "62064288/5795", "2525690112/5795")),
        _fr(("1440/61", "-82927872/5795", "-887345568/5795", "-1676429568/5795",
             "-2804007168/5795", "3753380736/5795", "-13356288/19",
             "4226609664/5795", "-633600/19", "-527332608/1159", "7679232/19",
             "-15231744/95", "-131079168/95", "317952/19", "-12595968/95")),
    ),
    (4, 11): (
        _fr(("-110880/61", "80121888/5795", "-48338688/5795", "1817904/61",
             "-98480448/5795", "-27320832/5795")),
        _fr(("110880/61", "174857472/5795", "1169427168/5795", "2114189568/5795",
             "3025513728/5795", "-3511080576/5795", "13318272/19",
             "-3641762304/5795", "633600/19", "663913728/1159", "-7679232/19",
             "15231744/95", "131079168/95", "-317952/19", "12595968/95")),
    ),
    (1, 52): (
        _fr(("6109008/1243", "-456504084816/6064597", "254592/41",
             "-7361952/1243", "-4829528827344/6064597", "434738304/41")),
        _fr(("-3066144/1243", "498157179048/6064597", "927327070704/6064597",
             "-442577500560/6064597", "-8530413669648/6064597",
             "-10161699732288/6064597", "-10388366352/1243", "1040832/41",
             "7488", "329100929664/147917", "27456", "-15249288510144/6064597",
             "17472", "47009664/41", "-25166713896/551327",
             "4167031826880/6064597", "-126425023920/6064597", "868608/41")),
    ),
    (4, 13): (
        _fr(("3066144/1243", "-240061230672/6064597", "139392/41",
             "45798672/1243", "-53922031824/6064597", "20290176/41")),
        _fr(("-3066144/1243", "212735819880/6064597", "251848851024/6064597",
             "-400561037808/6064597", "-5152459820400/6064597",
             "-5408748312192/6064597", "-5489355312/1243", "150336/41",
             "-7488", "151016538432/147917", "-27456", "-8224832431680/6064597",
             "-17472", "-544896/41", "-11115614088/551327",
             "2056953609600/6064597", "-64745693328/6064597", "-2304/41")),
    ),
}

# Reported sigma3 sums divided by 240 versus the forced value (alpha-beta)^2.
REPORTED_CONSTANT_VIOLATIONS = {
    (1, 52): (Fraction("8316981/205"), 2601),
    (4, 13): (Fraction("417789/205"), 81),
}


@pytest.fixture
def fresh_expansions(monkeypatch):
    """An empty expansion cache for one test, so every expansion runs at the
    precision requested instead of being cut from an earlier, longer one."""
    monkeypatch.setattr(eta, "_EXPANSION_CACHE", {})


@pytest.fixture
def no_sigma_sieve(monkeypatch):
    """Every binding of the library's sigma sieve raises for one test."""
    def sieve(*args):
        raise AssertionError("read the sigma sieve")

    for name, module in list(sys.modules.items()):
        if name.startswith("convsum") and hasattr(module, "sigma_table"):
            monkeypatch.setattr(module, "sigma_table", sieve)


@pytest.fixture(scope="session")
def sigma_table():
    return sigma1_sieve(1200)
