"""Command-line surface for evaluation, tabulation, and verification.

The ``verify`` commands print the report of the matching suite in
:mod:`convsum.verify`.  Exit codes: 0 on success or all checks passing, 1 on
a verification failure, 2 on usage errors.  Each argument is checked once,
by the library function that uses it; every command is a
:class:`BoundaryCommand`, which turns the library's ``ValueError`` into a
usage error.  Before any work starts, the group precision must lie in
[1, MAX_PRECISION] and caps every n and range, and ``dims`` refuses a level
above MAX_LEVEL, which bounds its trial division.  All reports are
deterministic: fixed ordering, no timestamps.  Rationals serialize as
{"num": "...", "den": "..."} with decimal strings so consumers never lose
precision.  Imports are per command: a launch loads only what it runs.
"""

from __future__ import annotations

import sys

import click

from . import tables

DEFAULT_PRECISION = 1000
MAX_PRECISION = 10 ** 6
MAX_LEVEL = 10 ** 10  # dims factors by trial division up to sqrt(level)
LEVELS = click.Choice([*map(str, tables.CUSP_EXPONENTS), "all"])


class BoundaryCommand(click.Command):
    """A command whose library ``ValueError`` is a usage error (exit 2)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.UsageError(str(exc), ctx) from exc


class BoundaryGroup(click.Group):
    """Makes every command, and every subgroup's command, a boundary."""

    command_class = BoundaryCommand
    group_class = type


def check_max_n(precision: int, max_n: int) -> None:
    """The group precision caps every n and range of a command."""
    if max_n > precision:
        raise click.UsageError(
            f"max n {max_n} exceeds the configured precision "
            f"{precision} (raise --precision or CONVSUM_PRECISION)")


def _levels(choice: str) -> tuple[int, ...]:
    return tuple(tables.CUSP_EXPONENTS) if choice == "all" else (int(choice),)


def _rational_json(x) -> dict:
    return {"num": str(x.numerator), "den": str(x.denominator)}


def _dump_json(payload) -> str:
    import json
    return json.dumps(payload, indent=2, sort_keys=True)


def _dump_csv(rows) -> str:
    import csv
    import io
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@click.group(cls=BoundaryGroup)
@click.option("--precision", type=int, default=DEFAULT_PRECISION,
              envvar="CONVSUM_PRECISION", show_default=True,
              help="Expansion precision ceiling for this invocation, "
                   f"at most {MAX_PRECISION}.")
@click.pass_context
def main(ctx, precision):
    """Exact convolution sums, eta-quotient bases, and their verification."""
    if precision < 1:
        raise click.UsageError("precision must be positive")
    if precision > MAX_PRECISION:
        raise click.UsageError(
            f"precision {precision} exceeds the ceiling {MAX_PRECISION}")
    ctx.obj = precision


# ---------------------------------------------------------------------------
# evaluation commands

@main.command("eval-w")
@click.option("--alpha", type=int, required=True)
@click.option("--beta", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--method", type=click.Choice(["closed", "oracle"]),
              default="closed", show_default=True)
@click.pass_obj
def eval_w(precision, alpha, beta, n, method):
    """Print the convolution sum of (alpha, beta) at n."""
    from . import convolution
    check_max_n(precision, n)
    click.echo(convolution.w_closed((alpha, beta), n) if method == "closed"
               else convolution.w_oracle(alpha, beta, n))


@main.command("table-w")
@click.option("--alpha", type=int, required=True)
@click.option("--beta", type=int, required=True)
@click.option("--max-n", type=int, required=True)
@click.option("--method", type=click.Choice(["closed", "oracle"]),
              default="oracle", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.pass_obj
def table_w(precision, alpha, beta, max_n, method, fmt):
    """Tabulate convolution sums for n = 0..max-n."""
    from . import convolution
    check_max_n(precision, max_n)
    if method == "closed":
        values = convolution.w_closed_table((alpha, beta), max_n)
    else:
        values = convolution.w_series_oracle(alpha, beta, max_n)
    if fmt == "csv":
        click.echo(_dump_csv([["n", "value", "method"], *(
            [n, v, method] for n, v in enumerate(values))]), nl=False)
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
def rep_count(precision, a, b, n, method):
    """Print the octonary representation count for (a, b) at n."""
    from . import representations
    check_max_n(precision, n)
    click.echo(representations.rep_count_closed(a, b, n) if method == "closed"
               else representations.rep_count_enumerate(a, b, n))


@main.command("dims")
@click.option("--level", type=int, required=True,
              help=f"At most {MAX_LEVEL}.")
@click.option("--weight", type=int, default=4, show_default=True)
def dims(level, weight):
    """Print the dimensions (M, E, S) of the weight-k spaces at a level."""
    from .arith import dim_spaces
    if level > MAX_LEVEL:
        raise click.UsageError(
            f"level {level} exceeds the ceiling {MAX_LEVEL}")
    dim_m, dim_e, dim_s = dim_spaces(level, weight)
    click.echo(f"level {level} weight {weight}: "
               f"dim M = {dim_m}, dim E = {dim_e}, dim S = {dim_s}")


@main.command("derive")
@click.option("--alpha", type=int, required=True)
@click.option("--beta", type=int, required=True)
@click.option("--basis", type=click.Choice(["auto", "printed"]),
              default="auto", show_default=True,
              help="Cusp rows: 'auto' the rows of the closed forms (the "
                   "dependent level-52 row repaired), 'printed' as printed.")
@click.option("--precision", "solve_precision", type=int, default=120,
              show_default=True)
@click.option("--json", "as_json", is_flag=True)
@click.pass_obj
def derive(precision, alpha, beta, basis, solve_precision, as_json):
    """Derive the exact expansion of the squared Eisenstein combination."""
    from . import eisenstein, eta, spaces
    from .arith import divisors
    pair = eisenstein.EisensteinPair(alpha, beta)
    check_max_n(precision, solve_precision)
    rows = (eta.table_rows if basis == "printed" else eta.basis_rows)(pair.level)
    label = eta.rows_label(pair.level, rows)
    try:
        space = spaces.build_basis(pair.level, solve_precision, rows)
        solution = spaces.derive_coefficients(pair, space)
    except spaces.DerivationError as exc:
        click.echo(f"FAIL derivation over the {label} rows failed: {exc}",
                   err=True)
        sys.exit(1)
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
@click.option("--level", type=LEVELS, default="all", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
def export_tables(level, fmt):
    """Dump the eta-quotient exponent tables bit-exactly."""
    from .arith import divisors
    levels = _levels(level)
    if fmt == "json":
        payload = {
            str(lv): {
                "divisors": list(divisors(lv)),
                "rows": [list(r) for r in tables.CUSP_EXPONENTS[lv]],
            } for lv in levels
        }
        click.echo(_dump_json(payload))
    else:
        click.echo(_dump_csv([
            ["level", "row"] + [f"r{i}" for i in range(1, 7)],
            *([lv, i, *row] for lv in levels
              for i, row in enumerate(tables.CUSP_EXPONENTS[lv], 1))]),
            nl=False)


# ---------------------------------------------------------------------------
# verification commands: argument parsing around the suites in verify.py

def _echo(suite: str, *args, header: bool = False) -> bool:
    """Run a suite of verify.py by name, print its report; return its ok."""
    from . import verify as suites
    check = getattr(suites, suite)(*args)
    if header:
        click.echo(f"== {check.name} ==")
    for line in check.lines:
        click.echo(line)
    return check.ok


def _report(suite: str, *args) -> None:
    """Run one suite and print its report; exit 1 if it fails."""
    if not _echo(suite, *args):
        sys.exit(1)


@main.group()
def verify():
    """Deterministic verification suites (exit 1 on any failure)."""


@verify.command("ligozat")
@click.option("--level", type=LEVELS, default="all", show_default=True)
def verify_ligozat(level):
    """Membership conditions for every embedded table row; the strict order
    condition must fail precisely on the known non-cuspidal rows."""
    _report("ligozat", _levels(level))


@verify.command("basis")
def verify_basis():
    """Independence certificates for both levels."""
    _report("basis")


@verify.command("identity")
@click.option("--alpha", type=int, default=None)
@click.option("--beta", type=int, default=None)
@click.option("--max-n", type=int, default=300, show_default=True)
@click.pass_obj
def verify_identity(precision, alpha, beta, max_n):
    """Squared combination versus its convolution-sum expansion."""
    from .convolution import EVALUATED_PAIRS
    check_max_n(precision, max_n)
    if (alpha is None) != (beta is None):
        raise click.UsageError("--alpha and --beta must be given together")
    pairs = EVALUATED_PAIRS if alpha is None else ((alpha, beta),)
    _report("identity", max_n, pairs)


@verify.command("lemma32")
@click.option("--precision", "solve_precision", type=int, default=120,
              show_default=True)
@click.pass_obj
def verify_lemma32(precision, solve_precision):
    """Re-derive all four expansions and compare with the embedded data,
    calling out where the previously reported lists diverge."""
    check_max_n(precision, solve_precision)
    _report("lemma32", solve_precision)


@verify.command("closed-forms")
@click.option("--max-n", type=int, default=1000, show_default=True)
@click.pass_obj
def verify_closed_forms(precision, max_n):
    """Closed forms against brute force, exact integer equality."""
    check_max_n(precision, max_n)
    _report("closed_forms", max_n)


@verify.command("reps")
@click.option("--max-n", type=int, default=100, show_default=True)
@click.option("--substitution-max-n", type=int, default=300, show_default=True)
@click.pass_obj
def verify_reps(precision, max_n, substitution_max_n):
    """Octonary counts and the substitution identities behind them."""
    check_max_n(precision, max(max_n, substitution_max_n))
    _report("reps", max_n, substitution_max_n)


@verify.command("dims")
def verify_dims():
    """Dimension formula against the pinned values."""
    _report("dims")


@verify.command("all")
@click.option("--fast", is_flag=True,
              help="Reduced ranges (closed forms to n = 200, reps to n = 40).")
@click.pass_obj
def verify_all(precision, fast):
    """Run every verification suite in order; exit 1 at the end if any
    of them failed."""
    runs = [
        ("ligozat",),
        ("basis",),
        ("dims",),
        ("identity", 120 if fast else 300),
        ("lemma32", 120),
        ("closed_forms", 200 if fast else 1000),
        ("reps", 40 if fast else 100, 100 if fast else 300),
    ]
    check_max_n(precision, max(n for _, *ranges in runs for n in ranges))
    passed = [_echo(*run, header=True) for run in runs]
    if not all(passed):
        click.echo("all: FAILED")
        sys.exit(1)
    click.echo("all: ok")


if __name__ == "__main__":
    main()
