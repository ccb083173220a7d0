"""Command-line surface for evaluation, tabulation, and verification.

Exit codes: 0 on success or all checks passing, 1 on a verification
failure, 2 on usage errors.  All reports are deterministic: fixed ordering,
no timestamps.  Rationals serialize as {"num": "...", "den": "..."} with
decimal strings so consumers never lose precision.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import click

from . import convolution, eta, representations, spaces, tables
from .arith import dim_spaces, divisors, sigma_k, sigma_k_frac
from .eisenstein import EisensteinPair, lhs_square, rhs_identity

DEFAULT_PRECISION = 1000


@dataclass(frozen=True)
class RunConfig:
    """Global limits for one invocation; precision caps every max-n."""

    precision: int = DEFAULT_PRECISION

    def check_max_n(self, max_n: int) -> None:
        if max_n > self.precision:
            raise click.UsageError(
                f"max n {max_n} exceeds the configured precision "
                f"{self.precision} (raise --precision or CONVSUM_PRECISION)")


def _rational_json(x: Fraction) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _fail(message: str) -> None:
    click.echo(f"FAIL {message}", err=True)
    sys.exit(1)


@click.group()
@click.option("--precision", type=int, default=DEFAULT_PRECISION,
              envvar="CONVSUM_PRECISION", show_default=True,
              help="Expansion precision ceiling for this invocation.")
@click.pass_context
def main(ctx, precision):
    """Exact convolution sums, eta-quotient bases, and their verification."""
    if precision < 1:
        raise click.UsageError("precision must be positive")
    ctx.obj = RunConfig(precision)


# ---------------------------------------------------------------------------
# evaluation commands

@main.command("eval-w")
@click.option("--alpha", type=int, required=True)
@click.option("--beta", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--method", type=click.Choice(["closed", "oracle"]),
              default="closed", show_default=True)
@click.pass_obj
def eval_w(cfg, alpha, beta, n, method):
    """Print the convolution sum of (alpha, beta) at n."""
    if n < 0:
        raise click.UsageError("n must be non-negative")
    cfg.check_max_n(n)
    try:
        if method == "closed":
            if (alpha, beta) not in convolution.EVALUATED_PAIRS:
                raise click.UsageError(
                    f"closed form unavailable for ({alpha}, {beta}); "
                    "use --method oracle")
            value = convolution.w_closed((alpha, beta), n) if n else 0
        else:
            value = convolution.w_oracle(alpha, beta, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(value)


@main.command("table-w")
@click.option("--alpha", type=int, required=True)
@click.option("--beta", type=int, required=True)
@click.option("--max-n", type=int, required=True)
@click.option("--method", type=click.Choice(["closed", "oracle"]),
              default="oracle", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.pass_obj
def table_w(cfg, alpha, beta, max_n, method, fmt):
    """Tabulate convolution sums for n = 0..max-n."""
    if max_n < 0:
        raise click.UsageError("max-n must be non-negative")
    cfg.check_max_n(max_n)
    try:
        if method == "closed":
            if (alpha, beta) not in convolution.EVALUATED_PAIRS:
                raise click.UsageError(
                    f"closed form unavailable for ({alpha}, {beta})")
            values = convolution.w_closed_table((alpha, beta), max_n)
        else:
            # the series oracle needs precision >= 1; cut back for max-n 0
            values = convolution.w_series_oracle(
                alpha, beta, max(max_n, 1))[:max_n + 1]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["n", "value", "method"])
        for n, v in enumerate(values):
            writer.writerow([n, v, method])
        click.echo(out.getvalue(), nl=False)
    else:
        click.echo(_dump_json({
            "alpha": alpha, "beta": beta, "method": method,
            "rows": [[n, str(v)] for n, v in enumerate(values)],
        }))


@main.command("rep-count")
@click.option("--a", "a", type=int, required=True)
@click.option("--b", "b", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--method", type=click.Choice(["closed", "oracle"]),
              default="closed", show_default=True)
@click.pass_obj
def rep_count(cfg, a, b, n, method):
    """Print the octonary representation count for (a, b) at n."""
    cfg.check_max_n(n)
    try:
        query = representations.RepQuery(a, b, n)
        if method == "closed":
            if (a, b) not in representations.CLOSED_FORM_PAIRS:
                raise click.UsageError(
                    f"closed form unavailable for ({a}, {b}); "
                    f"supported: {representations.CLOSED_FORM_PAIRS}")
            value = representations.rep_count_closed(query)
        else:
            value = representations.rep_count_enumerate(query, bound=max(n, 500))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(value)


@main.command("dims")
@click.option("--level", type=int, required=True)
@click.option("--weight", type=int, default=4, show_default=True)
def dims(level, weight):
    """Print the dimensions (M, E, S) of the weight-k spaces at a level."""
    try:
        dim_m, dim_e, dim_s = dim_spaces(level, weight)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(f"level {level} weight {weight}: "
               f"dim M = {dim_m}, dim E = {dim_e}, dim S = {dim_s}")


@main.command("derive")
@click.option("--alpha", type=int, required=True)
@click.option("--beta", type=int, required=True)
@click.option("--basis", type=click.Choice(["auto", "printed", "repaired"]),
              default="auto", show_default=True,
              help="Cusp row set; 'auto' falls back to the repaired level-52 "
                   "rows when the printed ones cannot express the square.")
@click.option("--precision", "solve_precision", type=int, default=120,
              show_default=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_obj
def derive(cfg, alpha, beta, basis, solve_precision, as_json):
    """Derive the exact expansion of the squared Eisenstein combination."""
    try:
        pair = EisensteinPair(alpha, beta)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if pair.level not in (44, 52):
        raise click.UsageError(
            f"no cusp tables for level {pair.level}; have 44 and 52")
    cfg.check_max_n(solve_precision)

    def build(kind):
        if kind == "repaired":
            if pair.level != 52:
                raise click.UsageError("--basis repaired applies to level 52")
            return spaces.repaired_basis(solve_precision), "repaired"
        return spaces.build_basis(pair.level, solve_precision), "printed"

    try:
        space, label = build("repaired" if basis == "repaired" else "printed")
        solution = spaces.derive_coefficients(pair, space)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except spaces.DerivationError as exc:
        if basis != "auto":
            _fail(f"derivation over the {basis} rows failed: {exc}")
        click.echo(f"note: printed rows failed ({exc}); "
                   "falling back to the repaired row set", err=True)
        space, label = build("repaired")
        solution = spaces.derive_coefficients(pair, space)
    payload = {
        "alpha": alpha,
        "beta": beta,
        "level": pair.level,
        "basis": label,
        "solving_indices": list(solution.solving_indices),
        "sigma3_coefficients": {
            str(d): _rational_json(c)
            for d, c in solution.sigma3_presentation().items()},
        "eisenstein_weights": {
            str(d): _rational_json(x)
            for d, x in solution.eisenstein_weights.items()},
        "cusp_weights": [_rational_json(y) for y in solution.cusp_weights],
    }
    if as_json:
        click.echo(_dump_json(payload))
        return
    click.echo(f"pair ({alpha},{beta}), level {pair.level}, {label} rows; "
               f"solved at n in {tuple(solution.solving_indices)}")
    click.echo("sigma3 coefficients (240 * X_delta):")
    for d in divisors(pair.level):
        click.echo(f"  n/{d}: {solution.sigma3_presentation()[d]}")
    click.echo("cusp weights (Y_j):")
    for j, y in enumerate(solution.cusp_weights, 1):
        click.echo(f"  {j}: {y}")


@main.group()
def export():
    """Dump embedded data tables."""


@export.command("tables")
@click.option("--level", type=click.Choice(["44", "52", "all"]),
              default="all", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def export_tables(level, fmt):
    """Dump the eta-quotient exponent tables bit-exactly."""
    levels = [44, 52] if level == "all" else [int(level)]
    if fmt == "json":
        payload = {
            str(lv): {
                "divisors": list(divisors(lv)),
                "rows": [list(r) for r in tables.CUSP_EXPONENTS[lv]],
            } for lv in levels
        }
        click.echo(_dump_json(payload))
    else:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["level", "row"] + [f"r{i}" for i in range(1, 7)])
        for lv in levels:
            for i, row in enumerate(tables.CUSP_EXPONENTS[lv], 1):
                writer.writerow([lv, i, *row])
        click.echo(out.getvalue(), nl=False)


# ---------------------------------------------------------------------------
# verification commands

@main.group()
def verify():
    """Deterministic verification suites (exit 1 on any failure)."""


@verify.command("ligozat")
@click.option("--level", type=click.Choice(["44", "52", "all"]),
              default="all", show_default=True)
def verify_ligozat(level):
    """Check the membership conditions for every embedded table row.

    Every row must satisfy the congruence, square, weight, and non-strict
    order conditions at weight exactly 4; the strict order condition is
    expected to fail precisely on the known non-cuspidal rows.
    """
    levels = [44, 52] if level == "all" else [int(level)]
    ok = True
    for lv in levels:
        expected_nonstrict = set(tables.NONSTRICT_ROWS[lv])
        for i, row in enumerate(eta.table_rows(lv), 1):
            rep = eta.check_ligozat(row)
            conditions = (rep.cond_i and rep.cond_ii and rep.cond_iii
                          and rep.cond_iv and rep.cond_v)
            weight_ok = rep.weight == 4
            strict_expected = i not in expected_nonstrict
            row_ok = (conditions and weight_ok
                      and rep.cond_v_prime == strict_expected)
            ok = ok and row_ok
            note = "cusp" if rep.cond_v_prime else "order 0 at some cusp"
            status = "ok" if row_ok else "UNEXPECTED"
            click.echo(
                f"level {lv} row {i:2d} {row.as_row()}: weight {rep.weight}, "
                f"leading q^{rep.leading_exponent}, {note} [{status}]")
    click.echo("ligozat: all rows match the expected condition profile"
               if ok else "ligozat: deviation from the expected profile")
    if not ok:
        sys.exit(1)


@verify.command("basis")
@click.pass_obj
def verify_basis(cfg):
    """Independence certificates for both levels."""
    ok = True
    for level in (44, 52):
        dim_s = dim_spaces(level, 4)[2]
        basis = spaces.build_basis(level, max(2 * dim_s, 48))
        try:
            cert = spaces.verify_independence(basis)
        except spaces.BasisError as exc:
            click.echo(f"level {level}: {exc}")
            ok = False
            continue
        expected = tables.CUSP_DETERMINANTS[level]
        det_ok = cert.cusp_determinant == expected
        ok = ok and det_ok and cert.eisenstein_unit_triangular
        click.echo(
            f"level {level}: cusp minor determinant {cert.cusp_determinant} "
            f"(expected {expected}), Eisenstein matrix unit lower triangular: "
            f"{cert.eisenstein_unit_triangular}")
    click.echo("basis: ok" if ok else "basis: FAILED")
    if not ok:
        sys.exit(1)


@verify.command("identity")
@click.option("--alpha", type=int, default=None)
@click.option("--beta", type=int, default=None)
@click.option("--max-n", type=int, default=300, show_default=True)
@click.pass_obj
def verify_identity(cfg, alpha, beta, max_n):
    """Squared combination versus its convolution-sum expansion."""
    cfg.check_max_n(max_n)
    if (alpha is None) != (beta is None):
        raise click.UsageError("--alpha and --beta must be given together")
    pairs = (convolution.EVALUATED_PAIRS if alpha is None
             else [(alpha, beta)])
    for a, b in pairs:
        try:
            pair = EisensteinPair(a, b)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        w = convolution.w_series_oracle(a, b, max_n)
        lhs = lhs_square(pair, max_n)
        rhs = rhs_identity(pair, lambda n: w[n], max_n)
        if lhs != rhs:
            _fail(f"identity mismatch for ({a},{b}) within n <= {max_n}")
        click.echo(f"identity ({a},{b}): exact for all n <= {max_n}")
    click.echo("identity: ok")


@verify.command("lemma32")
@click.option("--precision", "solve_precision", type=int, default=120,
              show_default=True)
@click.pass_obj
def verify_lemma32(cfg, solve_precision):
    """Re-derive all four expansions and compare with the embedded data.

    The derivation must reproduce the canonical coefficients exactly; the
    comparison against the previously reported lists is printed as well,
    with the known divergences called out.
    """
    cfg.check_max_n(solve_precision)
    ok = True
    for (a, b), (exp_s3, exp_y) in sorted(tables.EXPANSION_COEFFS.items()):
        pair = EisensteinPair(a, b)
        if pair.level == 52:
            basis = spaces.repaired_basis(solve_precision)
            label = "repaired rows"
        else:
            basis = spaces.build_basis(pair.level, solve_precision)
            label = "printed rows"
        solution = spaces.derive_coefficients(pair, basis)
        got_s3 = tuple(solution.sigma3_presentation()[d]
                       for d in basis.divisors)
        got_y = solution.cusp_weights
        match = got_s3 == exp_s3 and got_y == exp_y
        ok = ok and match
        kind, where = tables.REPORTED_DIVERGENCES[(a, b)]
        if kind == "inconsistent":
            note = "reported list inconsistent with the printed rows"
        else:
            note = f"reported list diverges at one {kind} entry ({where})"
        click.echo(f"pair ({a},{b}) over {label}: canonical match: {match}; "
                   f"{note}")
    click.echo("lemma32: ok" if ok else "lemma32: FAILED")
    if not ok:
        sys.exit(1)


@verify.command("closed-forms")
@click.option("--max-n", type=int, default=1000, show_default=True)
@click.pass_obj
def verify_closed_forms(cfg, max_n):
    """Closed forms against brute force, exact integer equality."""
    cfg.check_max_n(max_n)
    for pair in convolution.EVALUATED_PAIRS:
        closed = convolution.w_closed_table(pair, max_n)
        oracle = convolution.w_series_oracle(*pair, max_n)
        if closed != oracle:
            first = next(n for n in range(max_n + 1) if closed[n] != oracle[n])
            _fail(f"closed form for {pair} diverges at n = {first}")
        click.echo(f"closed form {pair}: equals brute force for n <= {max_n}")
    click.echo("closed-forms: ok")


@verify.command("reps")
@click.option("--max-n", type=int, default=100, show_default=True)
@click.option("--substitution-max-n", type=int, default=300, show_default=True)
@click.pass_obj
def verify_reps(cfg, max_n, substitution_max_n):
    """Octonary counts and the substitution identities behind them."""
    cfg.check_max_n(max(max_n, substitution_max_n))
    for a, b in representations.CLOSED_FORM_PAIRS:
        w = representations.default_w_provider(b, max_n)
        for n in range(max_n + 1):
            closed = representations.rep_count_closed(
                representations.RepQuery(a, b, n), w)
            enum = representations.rep_count_enumerate(
                representations.RepQuery(a, b, n), bound=max(max_n, 500))
            if closed != enum:
                _fail(f"octonary count ({a},{b}) mismatch at n = {n}: "
                      f"{closed} vs {enum}")
        click.echo(f"octonary counts ({a},{b}): closed equals enumeration "
                   f"for n <= {max_n}")
    for b in (11, 13):
        for n in range(1, substitution_max_n + 1):
            lhs4 = sum(sigma_k_frac(1, l, 4) * sigma_k(1, (n - l) // b)
                       for l in range(1, n) if (n - l) % b == 0)
            lhs1 = sum(sigma_k(1, l) * sigma_k_frac(1, (n - l) // b, 4)
                       for l in range(1, n) if (n - l) % b == 0)
            if lhs4 != convolution.w_oracle(4, b, n):
                _fail(f"substitution identity (4,{b}) fails at n = {n}")
            if lhs1 != convolution.w_oracle(1, 4 * b, n):
                _fail(f"substitution identity (1,{4 * b}) fails at n = {n}")
        click.echo(f"substitution identities for b = {b}: "
                   f"exact for n <= {substitution_max_n}")
    click.echo("reps: ok")


@verify.command("dims")
def verify_dims():
    """Dimension formula against the pinned values."""
    expected = {44: (21, 6, 15), 52: (24, 6, 18), 1: (1, 1, 0)}
    ok = True
    for level, dims_expected in sorted(expected.items()):
        got = dim_spaces(level, 4)
        ok = ok and got == dims_expected
        click.echo(f"level {level}: dims {got} (expected {dims_expected})")
    for level in range(1, 61):
        m, e, s = dim_spaces(level, 4)
        if m != e + s:
            ok = False
            click.echo(f"level {level}: M != E + S")
    click.echo("dims: ok" if ok else "dims: FAILED")
    if not ok:
        sys.exit(1)


@verify.command("all")
@click.option("--fast", is_flag=True,
              help="Reduced ranges (closed forms to n = 200, reps to n = 40).")
@click.pass_context
def verify_all(ctx, fast):
    """Run every verification suite in order."""
    invocations = [
        (verify_ligozat, {"level": "all"}),
        (verify_basis, {}),
        (verify_dims, {}),
        (verify_identity, {"alpha": None, "beta": None,
                           "max_n": 120 if fast else 300}),
        (verify_lemma32, {"solve_precision": 120}),
        (verify_closed_forms, {"max_n": 200 if fast else 1000}),
        (verify_reps, {"max_n": 40 if fast else 100,
                       "substitution_max_n": 100 if fast else 300}),
    ]
    for command, kwargs in invocations:
        click.echo(f"== {command.name} ==")
        ctx.invoke(command, **kwargs)
    click.echo("all: ok")


if __name__ == "__main__":
    main()
