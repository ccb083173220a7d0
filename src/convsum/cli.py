"""Command-line surface for evaluation, tabulation, and verification.

One table, ``VERIFY``, drives the ``verify`` commands: each passes its
options to its suite in :mod:`convsum.verify` by name, and ``verify all``
their defaults or ``--fast`` values.  Exit codes: 0 on success; 2 on a
usage error, a ``ValueError`` of the library function that checks the
argument; 1 on a failed suite or a result that fails its own check, an
``ArithmeticError`` (which ``verify._check`` makes a failing line within a
suite).  :func:`main` is the one place where a command maps each to its
exit, and where, before a handler runs, the group precision must lie in
[1, MAX_PRECISION] and caps every n and range, the ``CAPPED`` options, as
``verify all`` caps its values.  ``dims`` refuses a level above MAX_LEVEL,
which bounds its trial division.  All reports are deterministic: fixed
ordering, no timestamps.  Rationals serialize as {"num": "...", "den":
"..."} with decimal strings so consumers never lose precision.  Imports
are per command: a launch loads only what it runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import tables

DEFAULT_PRECISION = 1000
MAX_PRECISION = 10 ** 6
MAX_LEVEL = 10 ** 10  # dims factors by trial division up to sqrt(level)
# the option dests that are an n or a range; the group precision caps them
CAPPED = ("n", "max_n", "substitution_max_n", "solve_precision")
# fixed at import for argparse's help and errors: a launch reads tables anew
LEVELS = [*map(str, tables.levels()), "all"]
METHODS = ["closed", "oracle"]

GROUPS = {
    "export": "Dump embedded data tables.",
    "verify": "Deterministic verification suites (exit 1 on any failure).",
}
# each command by its path ("eval-w", "verify reps"): (handler, options)
COMMANDS: dict[str, tuple] = {}


def _option(flag: str, help: str | None = None, **kwargs) -> tuple:
    """``add_argument`` arguments of one option.  Without choices or an
    action it takes an int; without a default or an action it is required;
    a default other than None is shown in its help; the dest is spelt out."""
    kwargs.setdefault("dest", flag[2:].replace("-", "_"))
    if "choices" not in kwargs and "action" not in kwargs:
        kwargs["type"] = int
    if "default" not in kwargs and "action" not in kwargs:
        kwargs["required"] = True
    elif kwargs.get("default") is not None:
        help = " ".join(filter(None, (help, "(default: %(default)s)")))
    return flag, dict(kwargs, help=help)


def _command(path: str, *options: tuple):
    """Register the decorated handler as the command at path; its docstring
    is the command's help."""
    def register(handler):
        COMMANDS[path] = handler, options
        return handler
    return register


def _add_parser(subparsers, name: str, doc: str) -> argparse.ArgumentParser:
    parser = subparsers.add_parser(
        name, help=" ".join(doc.split()), description=doc, add_help=False,
        allow_abbrev=False)
    parser.add_argument("--help", action="help",
                        help="Show this message and exit.")
    return parser


def _command_path(args: list[str]) -> str | None:
    """The registered command that args run, read past the group precision
    (``--precision X`` or ``--precision=X``); None when they name none."""
    i = 0
    while i < len(args) and args[i].partition("=")[0] == "--precision":
        i += 1 if "=" in args[i] else 2
    for path in (" ".join(args[i:i + 1]), " ".join(args[i:i + 2])):
        if path in COMMANDS:
            return path
    return None


def _parser(prog: str, args: list[str]) -> argparse.ArgumentParser:
    """The parser of the command that args run, or of every registered
    command for a help or a missing or unknown command, whose message lists
    them all.  The group precision defaults to CONVSUM_PRECISION as set
    now, parsed as the flag would be."""
    run = _command_path(args)
    commands = COMMANDS if run is None else {run: COMMANDS[run]}
    parser = argparse.ArgumentParser(prog=prog, description=main.__doc__,
                                     add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help",
                        help="Show this message and exit.")
    parser.add_argument(
        "--precision", type=int,
        default=os.environ.get("CONVSUM_PRECISION") or DEFAULT_PRECISION,
        help="Expansion precision ceiling for this invocation, at most "
             f"{MAX_PRECISION}; CONVSUM_PRECISION sets it too "
             "(default: %(default)s).")
    subparsers = {"": parser.add_subparsers(metavar="COMMAND", required=True)}
    for path, (handler, options) in commands.items():
        group, _, name = path.rpartition(" ")
        if group not in subparsers:
            subparsers[group] = _add_parser(
                subparsers[""], group, GROUPS[group]).add_subparsers(
                metavar="COMMAND", required=True)
        command = _add_parser(subparsers[group], name, handler.__doc__)
        for flag, kwargs in options:
            command.add_argument(flag, **kwargs)
        command.set_defaults(handler=handler, parser=command)
    return parser


# prog_name and standalone_mode keep the call signature of the benchmark
# tracer: standalone_mode=False returns on success instead of exiting 0.
def main(args=None, prog_name: str = "convsum",
         standalone_mode: bool = True) -> None:
    """Exact convolution sums, eta-quotient bases, and their verification."""
    args = sys.argv[1:] if args is None else list(args)
    parsed = _parser(prog_name, args).parse_args(args)
    try:
        if parsed.precision < 1:
            raise ValueError("precision must be positive")
        if parsed.precision > MAX_PRECISION:
            raise ValueError(f"precision {parsed.precision} exceeds the "
                             f"ceiling {MAX_PRECISION}")
        check_max_n(parsed.precision,
                    max(getattr(parsed, dest, 0) for dest in CAPPED))
        if parsed.handler(parsed) is False:  # a verify suite failed
            sys.exit(1)
    except ValueError as exc:
        parsed.parser.error(str(exc))
    except ArithmeticError as exc:
        parsed.parser.exit(1, f"{parsed.parser.prog}: error: {exc}\n")
    if standalone_mode:
        sys.exit(0)


def check_max_n(precision: int, max_n: int) -> None:
    """The group precision caps every n and range of a command."""
    if max_n > precision:
        raise ValueError(
            f"max n {max_n} exceeds the configured precision "
            f"{precision} (raise --precision or CONVSUM_PRECISION)")


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


# ---------------------------------------------------------------------------
# evaluation commands

@_command("eval-w", _option("--alpha"), _option("--beta"), _option("--n"),
          _option("--method", choices=METHODS, default="closed"))
def eval_w(args) -> None:
    """Print the convolution sum of (alpha, beta) at n."""
    from . import convolution
    print(convolution.w_closed((args.alpha, args.beta), args.n)
          if args.method == "closed"
          else convolution.w_oracle(args.alpha, args.beta, args.n))


@_command("table-w", _option("--alpha"), _option("--beta"), _option("--max-n"),
          _option("--method", choices=METHODS, default="oracle"),
          _option("--format", choices=["csv", "json"], default="csv"))
def table_w(args) -> None:
    """Tabulate convolution sums for n = 0..max-n."""
    from . import convolution
    pair = args.alpha, args.beta
    if args.method == "closed":
        values = convolution.w_closed_table(pair, args.max_n)
    else:
        values = convolution.w_series_oracle(*pair, args.max_n)
    if args.format == "csv":
        sys.stdout.write(_dump_csv([["n", "value", "method"], *(
            [n, v, args.method] for n, v in enumerate(values))]))
    else:
        print(_dump_json({
            "alpha": args.alpha, "beta": args.beta, "method": args.method,
            "rows": [[n, str(v)] for n, v in enumerate(values)],
        }))


@_command("rep-count", _option("--a"), _option("--b"), _option("--n"),
          _option("--method", choices=METHODS, default="closed"))
def rep_count(args) -> None:
    """Print the octonary representation count for (a, b) at n."""
    from . import representations
    print(representations.rep_count_closed(args.a, args.b, args.n)
          if args.method == "closed"
          else representations.rep_count_enumerate(args.a, args.b, args.n))


@_command("dims", _option("--level", help=f"At most {MAX_LEVEL}."),
          _option("--weight", default=4))
def dims(args) -> None:
    """Print the dimensions (M, E, S) of the weight-k spaces at a level."""
    from .arith import dim_spaces
    if args.level > MAX_LEVEL:
        raise ValueError(f"level {args.level} exceeds the ceiling {MAX_LEVEL}")
    dim_m, dim_e, dim_s = dim_spaces(args.level, args.weight)
    print(f"level {args.level} weight {args.weight}: "
          f"dim M = {dim_m}, dim E = {dim_e}, dim S = {dim_s}")


@_command("derive", _option("--alpha"), _option("--beta"),
          _option("--basis", choices=["auto", "printed"], default="auto",
                  help="Cusp rows: 'auto' the rows of the canonical "
                       "expansions (the printed rows, level-52 row 7 "
                       "repaired), 'printed' as printed."),
          _option("--precision", dest="solve_precision", metavar="PRECISION",
                  default=120),
          _option("--json", action="store_true"))
def derive(args) -> None:
    """Derive the exact expansion of the squared Eisenstein combination."""
    from . import eisenstein, eta, spaces
    alpha, beta = args.alpha, args.beta
    pair = eisenstein.EisensteinPair(alpha, beta)
    rows = (eta.table_rows if args.basis == "printed"
            else eta.basis_rows)(pair.level)
    label = eta.rows_label(pair.level, rows)
    space = spaces.build_basis(pair.level, args.solve_precision, rows)
    solution = spaces.derive_coefficients(pair, space)
    sigma3 = dict(zip(space.divisors, solution.sigma3))
    payload = {
        "alpha": alpha,
        "beta": beta,
        "level": pair.level,
        "basis": label,
        "solving_indices": list(solution.solving_indices),
        "sigma3_coefficients": {
            str(d): _rational_json(c) for d, c in sigma3.items()},
        "eisenstein_weights": {  # X_delta
            str(d): _rational_json(c / 240) for d, c in sigma3.items()},
        "cusp_weights": [_rational_json(y) for y in solution.cusp_weights],
    }
    if args.json:
        print(_dump_json(payload))
        return
    print(f"pair ({alpha},{beta}), level {pair.level}, {label} rows; "
          f"solved at n in {tuple(solution.solving_indices)}")
    print("sigma3 coefficients (240 * X_delta):")
    for d, c in sigma3.items():
        print(f"  n/{d}: {c}")
    print("cusp weights (Y_j):")
    for j, y in enumerate(solution.cusp_weights, 1):
        print(f"  {j}: {y}")


@_command("export tables", _option("--level", choices=LEVELS, default="all"),
          _option("--format", choices=["json", "csv"], default="json"))
def export_tables(args) -> None:
    """Dump the eta-quotient exponent tables bit-exactly."""
    from .arith import divisors
    levels = tables.levels(args.level)
    if args.format == "json":
        print(_dump_json({
            str(lv): {
                "divisors": list(divisors(lv)),
                "rows": [list(r) for r in tables.CUSP_EXPONENTS[lv]],
            } for lv in levels
        }))
    else:
        sys.stdout.write(_dump_csv([
            ["level", "row"] + [f"r{i}" for i in range(
                1, max(len(divisors(lv)) for lv in levels) + 1)],
            *([lv, i, *row] for lv in levels
              for i, row in enumerate(tables.CUSP_EXPONENTS[lv], 1))]))


# ---------------------------------------------------------------------------
# verification commands: one table of the suites in verify.py

# the verify commands in the order ``verify all`` prints them, each named for
# its suite in verify.py: its help, and its options, each with its --fast value
VERIFY = {
    "ligozat": (
        "Membership conditions for every embedded table row; the strict order "
        "condition must fail precisely on the known non-cuspidal rows.",
        ((_option("--level", choices=LEVELS, default="all"), "all"),)),
    "basis": ("Independence certificates for both levels.", ()),
    "dims": ("Dimension formula against the pinned values.", ()),
    "identity": (
        "Squared combination versus its convolution-sum expansion.",
        ((_option("--alpha", default=None), None),
         (_option("--beta", default=None), None),
         (_option("--max-n", default=300), 120))),
    "lemma32": (
        "Re-derive all four expansions and compare with the embedded data, "
        "calling out where the previously reported lists diverge.",
        ((_option("--precision", dest="solve_precision", metavar="PRECISION",
                  default=120), 120),)),
    "closed-forms": (
        "Closed forms against brute force, exact integer equality.",
        ((_option("--max-n", default=1000), 200),)),
    "reps": (
        "Octonary counts and the substitution identities behind them.",
        ((_option("--max-n", default=100), 40),
         (_option("--substitution-max-n", default=300), 100))),
}


def _run(suite: str, **options):
    """The ``Check`` of a suite of verify.py, run on the options."""
    from . import verify as suites
    return getattr(suites, suite.replace("-", "_"))(**options)


def _echo(check, header: bool = False) -> bool:
    """Print a suite's report; return its ok."""
    if header:
        print(f"== {check.name} ==")
    for line in check.lines:
        print(line)
    return check.ok


def _suite_command(name: str, doc: str, options: tuple) -> tuple:
    """(handler, options) of the command that runs the suite of a row."""
    def handler(args) -> bool:
        return _echo(_run(name, **{
            kwargs["dest"]: getattr(args, kwargs["dest"])
            for (_, kwargs), _ in options}))
    handler.__doc__ = doc
    return handler, tuple(option for option, _ in options)


COMMANDS.update((f"verify {name}", _suite_command(name, *row))
                for name, row in VERIFY.items())


def _runs(fast: bool) -> dict[str, dict]:
    """The options of each suite under ``verify all``: their defaults, or
    their fast values."""
    return {name: {kwargs["dest"]: value if fast else kwargs["default"]
                   for (_, kwargs), value in options}
            for name, (_, options) in VERIFY.items()}


@_command("verify all", _option("--fast", action="store_true", help=(
    "Reduced ranges (closed forms to n = {0[closed-forms][max_n]}, reps to "
    "n = {0[reps][max_n]}).".format(_runs(fast=True)))))
def verify_all(args) -> bool:
    """Run every verification suite; print their reports in order and exit
    1 at the end if any of them failed."""
    runs = _runs(args.fast)
    reach = {name: max(options.get(dest, 0) for dest in CAPPED)
             for name, options in runs.items()}
    check_max_n(args.precision, max(reach.values()))
    # the longest ranges first (a stable sort), so that every later suite
    # reads a prefix of the expansions an earlier one cached
    checks = {name: _run(name, **runs[name])
              for name in sorted(runs, key=reach.get, reverse=True)}
    passed = all([_echo(checks[name], header=True)  # prints each
                  for name in runs])
    print(f"all: {'ok' if passed else 'FAILED'}")
    return passed


if __name__ == "__main__":
    main()
