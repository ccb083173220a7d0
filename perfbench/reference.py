"""Expected outputs for the benchmark's CLI commands, computed without convsum.

Single-value queries are checked against values computed here from a
divisor sieve (W(alpha, beta)(n)) and from lattice counts of sums of four
squares (the octonary counts).  The bulk commands print long reports, so
their stdout is checked against SHA-256 digests of the output at the commit
that introduced this benchmark; the CLI documents its stdout as
byte-deterministic, so any change to these bytes is a changed result.
"""

from __future__ import annotations

from math import isqrt

# sha256 of stdout, keyed by the argument vector after `python -m convsum.cli`
STDOUT_SHA256 = {
    ("dims", "--level", "44"):
        "18ba827f801c9f2159e715a2be1572e63047e4461f24e76c8a4bcc433d428398",
    ("verify", "all"):
        "9d2f9fdae710ec778ee25f62d134e1536acbba1f2aa41d3622a6cc9a875311e0",
    ("--precision", "5000", "verify", "closed-forms", "--max-n", "5000"):
        "7a467af298aa0871b382fd2d6d42ac32396780d691b04046a93eacb0658d0580",
    ("derive", "--alpha", "1", "--beta", "44", "--precision", "1000", "--json"):
        "653ab735f5970abcf3a85ed19e791392034f1499d6797f797511ea2c4a458d13",
    ("derive", "--alpha", "4", "--beta", "11", "--precision", "1000", "--json"):
        "07bdefe4f8cfa93cac7203c63363d97ff6e4b38aef26e500763400907a558582",
    ("derive", "--alpha", "1", "--beta", "52", "--precision", "1000", "--json"):
        "722e6676548d1c48e67ffa0628dd6e4494d09bd3a0d8c4d82e467801796db2c5",
    ("derive", "--alpha", "4", "--beta", "13", "--precision", "1000", "--json"):
        "1ac172b1da9411f2652cd471cfd2d84b2491f46f5f6176dd12b0f6788b4891f0",
}


def sigma1_sieve(limit: int) -> list[int]:
    """sigma(n) for n = 0..limit, with sigma(0) = 0."""
    sigma = [0] * (limit + 1)
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            sigma[multiple] += d
    return sigma


def convolution_table(alpha: int, beta: int, limit: int,
                      sigma: list[int]) -> list[int]:
    """W(alpha, beta)(n) for n = 0..limit: sigma(l) sigma(m) over
    alpha*l + beta*m = n with l, m >= 1."""
    w = [0] * (limit + 1)
    for l in range(1, (limit - beta) // alpha + 1):
        for m in range(1, (limit - alpha * l) // beta + 1):
            w[alpha * l + beta * m] += sigma[l] * sigma[m]
    return w


def r4_table(limit: int) -> list[int]:
    """Number of integer points on x1^2 + ... + x4^2 = n, for n = 0..limit,
    counted by convolving the two-square counts."""
    root = isqrt(limit)
    r2 = [0] * (limit + 1)
    for x in range(-root, root + 1):
        for y in range(-root, root + 1):
            s = x * x + y * y
            if s <= limit:
                r2[s] += 1
    support = [(n, c) for n, c in enumerate(r2) if c]
    r4 = [0] * (limit + 1)
    for i, ci in support:
        for j, cj in support:
            if i + j > limit:
                break
            r4[i + j] += ci * cj
    return r4


def octonary_table(a: int, b: int, limit: int, r4: list[int]) -> list[int]:
    """Representations of n by a*(four squares) + b*(four squares)."""
    counts = [0] * (limit + 1)
    for l in range(limit // a + 1):
        for m in range((limit - a * l) // b + 1):
            counts[a * l + b * m] += r4[l] * r4[m]
    return counts


class QueryReference:
    """Expected values for eval-w and rep-count queries with n <= limit."""

    def __init__(self, w_pairs, rep_pairs, limit: int):
        sigma = sigma1_sieve(limit)
        r4 = r4_table(limit)
        self.w = {p: convolution_table(*p, limit, sigma) for p in w_pairs}
        self.rep = {p: octonary_table(*p, limit, r4) for p in rep_pairs}

    def expected(self, kind: str, pair: tuple[int, int], n: int) -> int:
        return (self.w if kind == "eval-w" else self.rep)[pair][n]
