import ast
import csv
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convsum import (arith, cli, convolution, representations, spaces, tables,
                     verify)
from convsum.cli import MAX_LEVEL, MAX_PRECISION
from convsum.convolution import w_oracle
from conftest import run_cli

ROOT = Path(__file__).resolve().parent.parent


def test_eval_w_closed():
    result = run_cli("eval-w", "--alpha", "1", "--beta", "44",
                     "--n", "45", "--method", "closed")
    assert result.exit_code == 0
    assert result.output.strip() == "1"


def test_eval_w_oracle_any_pair():
    result = run_cli("eval-w", "--alpha", "3", "--beta", "7",
                     "--n", "20", "--method", "oracle")
    assert result.exit_code == 0
    assert result.output.strip() == "9"  # only (l,m) = (2,2) contributes


def test_eval_w_unsupported_closed_pair_is_usage_error():
    result = run_cli("eval-w", "--alpha", "3", "--beta", "7",
                     "--n", "10", "--method", "closed")
    assert result.exit_code == 2
    assert "closed form unavailable for (3, 7)" in result.output


def test_precision_env_guard():
    result = run_cli("eval-w", "--alpha", "1", "--beta", "44",
                     "--n", "45", env={"CONVSUM_PRECISION": "10"})
    assert result.exit_code == 2
    assert "exceeds the configured precision" in result.output
    refuse = mock.Mock(side_effect=AssertionError("work started"))
    with mock.patch.object(convolution, "w_closed", refuse):
        result = run_cli("eval-w", "--alpha", "1", "--beta", "44",
                         "--n", "45", env={"CONVSUM_PRECISION": "abc"})
    assert result.exit_code == 2 and result.stdout == ""
    assert "'abc'" in result.stderr and not refuse.called
    for value in ("10", "abc"):  # the flag overrides the variable
        result = run_cli("--precision", "100", "eval-w", "--alpha", "1",
                         "--beta", "44", "--n", "45",
                         env={"CONVSUM_PRECISION": value})
        assert result.exit_code == 0 and result.stdout == "1\n", value


@pytest.mark.parametrize("args", [
    ("eval-w", "--alpha", "1", "--beta", "44", "--n", "51",
     "--method", "oracle"),
    ("table-w", "--alpha", "1", "--beta", "44", "--max-n", "51",
     "--method", "oracle"),
    ("rep-count", "--a", "1", "--b", "11", "--n", "51", "--method", "oracle"),
    # the command's own --precision leaves the group's in place
    ("derive", "--alpha", "1", "--beta", "44", "--precision", "120"),
])
def test_oracle_paths_respect_precision(args):
    result = run_cli("--precision", "50", *args)
    assert result.exit_code == 2
    assert "exceeds the configured precision" in result.output


def test_table_w_oracle():
    result = run_cli("table-w", "--alpha", "3", "--beta", "7",
                     "--max-n", "40")
    rows = list(csv.reader(io.StringIO(result.output)))[1:]
    assert rows == [[str(n), str(w_oracle(3, 7, n)), "oracle"]
                    for n in range(41)]
    empty = run_cli("table-w", "--alpha", "1", "--beta", "44",
                    "--max-n", "0")
    assert empty.output == "n,value,method\n0,0,oracle\n"
    bad = run_cli("table-w", "--alpha", "0", "--beta", "44",
                  "--max-n", "0")
    assert bad.exit_code == 2


def test_table_w_csv():
    result = run_cli("table-w", "--alpha", "1", "--beta", "44",
                     "--max-n", "50", "--method", "closed")
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["n", "value", "method"]
    assert rows[1] == ["0", "0", "closed"]
    assert rows[46] == ["45", "1", "closed"]
    assert len(rows) == 52


def test_table_w_json_round_trip():
    result = run_cli("table-w", "--alpha", "4", "--beta", "11",
                     "--max-n", "30", "--format", "json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["rows"][15] == [15, "1"]
    assert json.dumps(payload, indent=2, sort_keys=True) == result.output.strip()


def test_rep_count():
    closed = run_cli("rep-count", "--a", "1", "--b", "11", "--n", "11")
    oracle = run_cli("rep-count", "--a", "1", "--b", "11", "--n", "11",
                     "--method", "oracle")
    assert closed.output.strip() == oracle.output.strip() == "104"
    bad = run_cli("rep-count", "--a", "2", "--b", "11", "--n", "4")
    assert bad.exit_code == 2


def test_dims_command():
    result = run_cli("dims", "--level", "44")
    assert result.exit_code == 0
    assert "dim M = 21, dim E = 6, dim S = 15" in result.output
    assert run_cli("dims", "--level", "44", "--weight", "5").exit_code == 2
    # no option prefixes: --prec is not --precision, --lev not --level
    assert run_cli("--prec", "10", "dims", "--level", "44").exit_code == 2
    assert run_cli("dims", "--lev", "44").exit_code == 2


def test_derive_json_level44():
    result = run_cli("derive", "--alpha", "1", "--beta", "44", "--json")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["basis"] == "printed"
    assert payload["sigma3_coefficients"]["1"] == {"num": "124464", "den": "61"}
    assert len(payload["cusp_weights"]) == 15
    lower = run_cli("derive", "--alpha", "1", "--beta", "44",
                    "--precision", "60", "--json")
    assert lower.exit_code == 0
    assert json.loads(lower.stdout)["sigma3_coefficients"] == \
        payload["sigma3_coefficients"]


def test_derive_level52_auto_uses_repaired_rows():
    result = run_cli("derive", "--alpha", "1", "--beta", "52", "--json")
    assert result.exit_code == 0
    assert json.loads(result.stdout)["basis"] == "repaired"
    assert result.stderr == ""


def test_derive_level52_printed_fails():
    result = run_cli("derive", "--alpha", "1", "--beta", "52",
                     "--basis", "printed")
    assert result.exit_code == 1


def _required_args(options):
    """The value 1 for every required option of a command."""
    return [arg for flag, kwargs in options if kwargs.get("required")
            for arg in (flag, "1")]


def test_every_command_is_the_error_boundary():
    """A ValueError from the handler of any command is a usage error: exit 2
    with the message on stderr, nothing on stdout and no traceback."""
    assert len(cli.COMMANDS) >= 14
    for path, (handler, options) in cli.COMMANDS.items():
        @functools.wraps(handler)
        def probe(args, path=path):
            raise ValueError(f"probe {path}")

        with mock.patch.dict(cli.COMMANDS, {path: (probe, options)}):
            result = run_cli(*path.split(), *_required_args(options))
        assert result.exit_code == 2, path
        assert f"probe {path}" in result.stderr and result.stdout == "", path


def test_every_command_is_the_exit_1_boundary():
    """An ArithmeticError from the handler of any command, here a failed
    derivation, exits 1 with the message on stderr, nothing on stdout and
    no traceback."""
    assert len(cli.COMMANDS) >= 14
    for path, (handler, options) in cli.COMMANDS.items():
        @functools.wraps(handler)
        def probe(args, path=path):
            raise spaces.DerivationError(f"probe {path}")

        with mock.patch.dict(cli.COMMANDS, {path: (probe, options)}):
            result = run_cli(*path.split(), *_required_args(options))
        assert result.exit_code == 1, path
        assert f"probe {path}" in result.stderr and result.stdout == "", path


@pytest.mark.parametrize("path", ["", *cli.COMMANDS],
                         ids=lambda path: path or "convsum")
def test_help_shows_the_docstring(path):
    """``--help`` on the group and on every command exits 0 and shows the
    first line of the command's docstring."""
    doc = (cli.COMMANDS[path][0] if path else cli.main).__doc__
    result = run_cli(*path.split(), "--help", env={"COLUMNS": "100"})
    assert result.exit_code == 0, result.output
    first_line = " ".join(doc.splitlines()[0].split())
    assert first_line in " ".join(result.stdout.split())


def test_the_command_path_is_read_past_the_group_precision():
    assert cli._command_path(["eval-w", "--n", "5"]) == "eval-w"
    assert cli._command_path(["--precision", "9", "--precision=8", "verify",
                              "all", "--fast"]) == "verify all"
    for args in ([], ["--help"], ["verify"], ["verify", "bogus"], ["bogus"],
                 ["--precision"], ["--precision", "eval-w"],
                 ["--precision9", "dims"], ["--", "dims"]):
        assert cli._command_path(args) is None, args


# the help of each command; each command after the group precision with an
# unknown option; a bad value, a bad choice, an extra argument and one run
PARSED = [
    *((*path.split(), "--help") for path in cli.COMMANDS),
    *(("--precision", "7", *path.split(), "--bogus") for path in cli.COMMANDS),
    ("--precision=7", "eval-w", "--alpha", "x"),
    ("verify", "lemma32", "--precision", "3"),
    ("export", "tables", "--level", "7"),
    ("dims", "--level", "44", "extra"),
    ("eval-w", "--alpha", "1", "--beta", "44", "--n", "5"),
]


@pytest.mark.parametrize("args", PARSED, ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_prints(args):
    """A launch builds only its command's parser; its help, its usage
    errors and its output are byte for byte those of the parser of every
    command."""
    env = {"COLUMNS": "80"}
    with mock.patch.object(cli, "_add_parser", wraps=cli._add_parser) as add:
        one = run_cli(*args, env=env)
    assert add.call_count == len(cli._command_path(list(args)).split())
    with mock.patch.object(cli, "_command_path", return_value=None):
        every = run_cli(*args, env=env)
    assert one == every


# per command family: a library call it makes, and an argument vector
PROBED = [
    (convolution, "w_closed",
     ("eval-w", "--alpha", "1", "--beta", "44", "--n", "5")),
    (convolution, "w_series_oracle",
     ("table-w", "--alpha", "1", "--beta", "44", "--max-n", "5")),
    (representations, "rep_count_enumerate",
     ("rep-count", "--a", "1", "--b", "11", "--n", "5", "--method", "oracle")),
    (arith, "dim_spaces", ("dims", "--level", "44")),
    (spaces, "build_basis", ("derive", "--alpha", "1", "--beta", "44")),
    (arith, "divisors", ("export", "tables")),
    (verify, "ligozat", ("verify", "all", "--fast")),
    (verify, "closed_forms", ("verify", "closed-forms")),
]


@pytest.mark.parametrize("module, name, args", PROBED,
                         ids=[" ".join(args[:2]) for *_, args in PROBED])
def test_library_value_error_is_usage_error(module, name, args):
    with mock.patch.object(module, name, side_effect=ValueError("probe")):
        result = run_cli(*args)
    assert result.exit_code == 2, result.output
    assert "probe" in result.stderr and result.stdout == ""


def test_export_tables_json_is_bit_exact():
    result = run_cli("export", "tables", "--format", "json")
    payload = json.loads(result.output)
    for level in (44, 52):
        assert payload[str(level)]["rows"] == \
            [list(r) for r in tables.CUSP_EXPONENTS[level]]


def test_export_tables_csv():
    result = run_cli("export", "tables", "--format", "csv",
                     "--level", "44")
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0][:2] == ["level", "row"]
    assert rows[1] == ["44", "1", "6", "-2", "0", "6", "-2", "0"]
    assert len(rows) == 16


@pytest.mark.parametrize("args", [
    ("verify", "dims"),
    ("verify", "basis"),
    ("verify", "ligozat", "--level", "44"),
    ("verify", "identity", "--alpha", "1", "--beta", "44", "--max-n", "60"),
    ("verify", "lemma32", "--precision", "100"),
    ("verify", "closed-forms", "--max-n", "120"),
    ("verify", "reps", "--max-n", "25", "--substitution-max-n", "60"),
])
def test_verify_suites_pass(args):
    result = run_cli(*args)
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize("args", [
    ("closed-forms", "--max-n", "0"),
    ("identity", "--max-n", "-3"),
    ("reps", "--max-n", "0"),
    ("reps", "--substitution-max-n", "0"),
    ("lemma32", "--precision", "0"),
    ("lemma32", "--precision", "30"),
    ("identity", "--alpha", "1"),
])
def test_verify_out_of_range_is_usage_error(args):
    result = run_cli("verify", *args)
    assert result.exit_code == 2
    assert "must be" in result.stderr and not result.stdout


def test_verify_all_checks_limits_first():
    result = run_cli("--precision", "100", "verify", "all", "--fast")
    assert result.exit_code == 2 and result.stdout == ""
    assert "exceeds the configured precision" in result.stderr


def test_verify_ligozat_reports_noncusp_rows():
    result = run_cli("verify", "ligozat", "--level", "52")
    assert result.exit_code == 0
    lines = [l for l in result.output.splitlines() if "order 0" in l]
    assert len(lines) == 2  # rows 7 and 14


def test_verify_all_fast():
    result = run_cli("verify", "all", "--fast")
    assert result.exit_code == 0
    assert result.output.strip().endswith("all: ok")


@pytest.mark.parametrize("args", [
    ("verify", "basis"),
    ("verify", "dims"),
    ("verify", "ligozat"),
    ("verify", "lemma32", "--precision", "100"),
    ("derive", "--alpha", "4", "--beta", "13", "--json"),
    ("export", "tables"),
    ("table-w", "--alpha", "1", "--beta", "52", "--max-n", "40",
     "--format", "json", "--method", "closed"),
])
def test_reports_are_deterministic(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.exit_code == second.exit_code == 0
    assert first.output == second.output


# sha256 of stdout of reports the benchmark does not pin in
# perfbench/reference.py, among them the text report of derive
STDOUT_SHA256 = {
    ("verify", "all", "--fast"):
        "51f5db0c1f26cc25c9f5dabf0d51d8b640dbb18debfb8f57b685419d360e51cd",
    ("verify", "identity"):
        "41225b10899aa1235924fd2e2d2e0966da9e7d12145e613b2e14bf8c533aba3a",
    ("derive", "--alpha", "4", "--beta", "11"):
        "570b68dd481dc4866eb5ee890dbcafa06628eb87b6a61820237084f6aec0ecdd",
}


@pytest.mark.parametrize("args", STDOUT_SHA256, ids=" ".join)
def test_stdout_is_pinned(args):
    result = run_cli(*args)
    assert result.exit_code == 0
    assert (hashlib.sha256(result.stdout_bytes).hexdigest()
            == STDOUT_SHA256[args])


# per fuzzed command: its pair options, its other integer options and its
# choice options
FUZZED = {
    ("eval-w",): (("--alpha", "--beta"), ("--n",),
                  {"--method": ("closed", "oracle")}),
    ("table-w",): (("--alpha", "--beta"), ("--max-n",),
                   {"--method": ("closed", "oracle")}),
    ("rep-count",): (("--a", "--b"), ("--n",),
                     {"--method": ("closed", "oracle")}),
    ("derive",): (("--alpha", "--beta"), ("--precision",),
                  {"--basis": ("auto", "printed")}),
    ("verify", "closed-forms"): ((), ("--max-n",), {}),
    ("verify", "identity"): (("--alpha", "--beta"), ("--max-n",), {}),
    ("verify", "reps"): ((), ("--max-n", "--substitution-max-n"), {}),
    ("verify", "lemma32"): ((), ("--precision",), {}),
}
FUZZ_INT = st.integers(-3, 130)
# two free integers seldom form a pair with a closed form or a basis
FUZZ_PAIR = st.one_of(
    st.sampled_from(((1, 44), (4, 11), (1, 52), (4, 13), (1, 11), (1, 13))),
    st.tuples(FUZZ_INT, FUZZ_INT))


@st.composite
def cli_args(draw):
    command = draw(st.sampled_from(sorted(FUZZED)))
    pair_options, int_options, choices = FUZZED[command]
    args = ["--precision", str(draw(FUZZ_INT)), *command]
    if pair_options:
        for option, value in zip(pair_options, draw(FUZZ_PAIR)):
            args += [option, str(value)]
    for option in int_options:
        args += [option, str(draw(FUZZ_INT))]
    for option, values in choices.items():
        args += [option, draw(st.sampled_from(values))]
    return args


@settings(max_examples=100, deadline=None)
@given(cli_args())
def test_cli_fuzz_exits_cleanly(args):
    """Any integer argument vector ends in exit 0, 1 or 2, never in an
    exception other than the exit itself (which run_cli lets through)."""
    result = run_cli(*args)
    assert result.exit_code in (0, 1, 2), (args, result.output)


@settings(max_examples=30, deadline=None)
@given(st.integers(MAX_LEVEL + 1, 10 ** 40),
       st.integers(MAX_PRECISION + 1, 10 ** 40))
@example(1000000000000000003, 10 ** 18)
def test_cli_extreme_values_exit_before_work(level, precision):
    """A level or precision above its ceiling exits 2 before any factoring
    or any suite starts."""
    refuse = mock.Mock(side_effect=AssertionError("work started"))
    with mock.patch.object(arith, "dim_spaces", refuse), \
            mock.patch.object(verify, "closed_forms", refuse):
        for args, env in (
                (["dims", "--level", str(level)], None),
                (["--precision", str(precision), "verify", "closed-forms",
                  "--max-n", str(precision)], None),
                (["verify", "closed-forms", "--max-n", "5"],
                 {"CONVSUM_PRECISION": str(precision)})):
            result = run_cli(*args, env=env)
            assert result.exit_code == 2, (args, result.output)
            assert "exceeds the ceiling" in result.output
    assert not refuse.called


def test_cli_ceilings_are_accepted():
    result = run_cli("--precision", str(MAX_PRECISION), "dims",
                     "--level", str(MAX_LEVEL))
    assert result.exit_code == 0


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c code args`` in a fresh interpreter that imports convsum
    from this tree; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    child = subprocess.run([sys.executable, "-c", code, *args], env=env,
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return child


def _loaded(*args) -> set[str]:
    """Module names a fresh interpreter holds after ``import convsum`` and,
    given args, one CLI launch on them."""
    return set(_fresh("import sys\n"
                      "try:\n"
                      "    import convsum\n"
                      "    if sys.argv[1:]:\n"
                      "        from convsum.cli import main\n"
                      "        main(sys.argv[1:])\n"
                      "finally:\n"
                      "    print(*sorted(sys.modules), file=sys.stderr)\n",
                      *args).stderr.split())


def test_verify_all_fast_pins_the_sigma_cache_work():
    """Work-count pin: in a fresh interpreter the seven suites at their
    --fast values call ``sigma_k`` 696 times and leave 56 entries.  Only
    ``w_oracle`` and ``r4_jacobi`` read it, one value each; every range of
    sigma comes from a table, so a range read through the cache fails."""
    child = _fresh("import contextlib, io, sys\n"
                   "from convsum import arith\n"
                   "from convsum.cli import main\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    main(sys.argv[1:], standalone_mode=False)\n"
                   "info = arith.sigma_k.cache_info()\n"
                   "print(info.hits + info.misses, info.currsize)\n",
                   "verify", "all", "--fast")
    assert child.stdout.split() == ["696", "56"]


def _fast_suite_calls(target: str, record: str) -> list[str]:
    """``record``, an expression in the call's ``args``, for each call of
    ``convsum.<target>`` while a fresh interpreter runs ``verify all
    --fast``, in call order."""
    module, name = target.split(".")
    child = _fresh("import contextlib, io, sys\n"
                   f"from convsum import {module} as mod\n"
                   "from convsum.cli import main\n"
                   f"real, seen = mod.{name}, []\n"
                   "def counted(*args):\n"
                   f"    seen.append({record})\n"
                   "    return real(*args)\n"
                   f"mod.{name} = counted\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    main(sys.argv[1:], standalone_mode=False)\n"
                   "print(*seen)\n",
                   "verify", "all", "--fast")
    return child.stdout.split()


def test_verify_all_fast_pins_the_row_reductions():
    """Work-count pin: the seven suites at their --fast values reduce rows
    six times, for the four pair solves of ``lemma32`` and then the two
    independence certificates of ``basis``, which runs after it; the
    division-free relations are checked without one."""
    assert _fast_suite_calls("spaces._row_reduce",
                             "sys._getframe(1).f_code.co_name") == [
        "_solve"] * 4 + ["verify_independence"] * 2


def test_verify_all_fast_pins_the_divisions():
    """Work-count pin: the seven suites at their --fast values divide four
    times, each to its limit in q^g: the four printed rows that divide, once
    each at 120, the three that ``eta.basis_rows`` keeps for the bases of
    ``lemma32`` and then the fourth for its division-free relations; the
    certificates, at 48, read prefixes, and the closed forms never divide."""
    assert _fast_suite_calls("qseries.div_sparse", "args[2]") == [
        "56", "109", "53", "41"]


def test_verify_all_fast_pins_the_expansion_work():
    """Work-count pin: the seven suites at their --fast values make 37
    sparse products with 1045 shift-add terms in all, counting every factor
    but the longest, which is written into the slots, and leave the 37
    table, basis and division-free quotients in the expansion cache."""
    child = _fresh("import contextlib, io, sys\n"
                   "from convsum import eta\n"
                   "from convsum.cli import main\n"
                   "real, seen = eta.sparse_product, []\n"
                   "def counted(factors, denominators, limit):\n"
                   "    rest = sorted(factors, key=len, reverse=True)[1:]\n"
                   "    seen.append(sum(map(len, rest)))\n"
                   "    return real(factors, denominators, limit)\n"
                   "eta.sparse_product = counted\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    main(sys.argv[1:], standalone_mode=False)\n"
                   "print(len(seen), sum(seen), len(eta._EXPANSION_CACHE))\n",
                   "verify", "all", "--fast")
    assert child.stdout.split() == ["37", "1045", "37"]


@pytest.mark.parametrize("args", [("verify", "all"),
                                  ("verify", "all", "--fast")], ids=" ".join)
def test_verify_all_expands_each_quotient_once(args):
    """``verify all`` runs its longest ranges first, so each suite after the
    first reads a prefix of the expansions already cached: a fresh
    interpreter makes one sparse product per quotient it leaves cached."""
    child = _fresh("import contextlib, io, sys\n"
                   "from convsum import eta\n"
                   "from convsum.cli import main\n"
                   "real, seen = eta.sparse_product, []\n"
                   "def counted(*args):\n"
                   "    seen.append(args)\n"
                   "    return real(*args)\n"
                   "eta.sparse_product = counted\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    main(sys.argv[1:], standalone_mode=False)\n"
                   "print(len(seen), len(eta._EXPANSION_CACHE))\n", *args)
    assert child.stdout.split() == ["37", "37"]


def test_closed_forms_unpack_only_the_sums():
    """Work-count pin: a fresh ``verify closed-forms --max-n 200`` unpacks
    no expansion in ``eta`` and one sum per pair in ``combine_packed``;
    every other unpack is a product of the series oracle."""
    child = _fresh("import collections, contextlib, io, sys\n"
                   "from convsum import eta, qseries\n"
                   "from convsum.cli import main\n"
                   "seen = collections.Counter()\n"
                   "def counted(data, n, w, real=qseries.unpack):\n"
                   "    seen[sys._getframe(1).f_code.co_name] += 1\n"
                   "    return real(data, n, w)\n"
                   "eta.unpack = qseries.unpack = counted\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    main(sys.argv[1:], standalone_mode=False)\n"
                   "print(*(f'{k}={v}' for k, v in seen.items()))\n",
                   "verify", "closed-forms", "--max-n", "200")
    seen = dict(item.split("=") for item in child.stdout.split())
    assert seen.pop("combine_packed") == "4"
    assert set(seen) == {"dense_product"}


def test_each_launch_imports_only_what_its_command_runs():
    bare = _loaded()
    assert not {m for m in bare if m.startswith("convsum.")}
    dims = _loaded("dims", "--level", "44")
    assert {m for m in dims if m.startswith("convsum.")} <= {
        "convsum.cli", "convsum.tables", "convsum.arith"}
    closed = _loaded("eval-w", "--alpha", "1", "--beta", "44", "--n", "120")
    assert not closed & {
        "convsum.spaces", "convsum.verify", "convsum.eisenstein",
        "convsum.representations", "json", "csv"}
    counts = _loaded("rep-count", "--a", "1", "--b", "11", "--n", "120")
    assert not counts & {"convsum.spaces", "convsum.verify"}
    checked = _loaded("verify", "closed-forms", "--max-n", "60")
    assert "convsum.verify" in checked and not checked & {
        "convsum.spaces", "convsum.eisenstein", "convsum.representations"}
    derive = _loaded("derive", "--alpha", "1", "--beta", "44",
                     "--precision", "60", "--json")
    suites = _loaded("verify", "all", "--fast")
    for loaded in (bare, dims, closed, counts, checked, derive, suites):
        assert not loaded & {"click", "dataclasses", "inspect"}


def test_one_site_per_role_catches_a_failed_result_check():
    """A failed result check, an ``ArithmeticError``, is caught only where
    a command turns it into exit 1 (``cli.main``) and where a suite turns
    it into a failing line that names its item (``verify._check``);
    ``cli._echo`` only prints."""
    broad = {"ArithmeticError", "Exception", "BaseException"}
    sites, echo = set(), None
    for path in sorted((ROOT / "src" / "convsum").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            name = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            if name == "cli._echo":
                echo = top
            for node in ast.walk(top):
                if isinstance(node, ast.ExceptHandler) and (
                        node.type is None or broad & {
                            n.id for n in ast.walk(node.type)
                            if isinstance(n, ast.Name)}):
                    sites.add(name)
    assert sites == {"cli.main", "verify._check"}
    assert not any(isinstance(n, ast.Try) for n in ast.walk(echo))


def test_one_site_per_exit_rule():
    """The group precision caps the options of every command in one place,
    ``cli.main``, and ``verify all`` caps the values it passes; exit 1 has two
    sites, both in ``cli.main``: a failed suite and a failed result check."""
    capped, exits = set(), []
    source = (ROOT / "src" / "convsum" / "cli.py").read_text()
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        assert name != "_report"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", None) == "check_max_n":
                capped.add(name)
            elif getattr(node.func, "attr", None) == "exit":
                code = node.args[0].value
                exits.append((name, ast.unparse(node.func), code))
                assert getattr(node.func.value, "id", None) == "sys" \
                    or code == 1, ast.unparse(node)
    assert capped == {"main", "verify_all"}
    assert {name for name, _, _ in exits} == {"main"}
    assert sorted((func, code) for _, func, code in exits if code == 1) == [
        ("parsed.parser.exit", 1), ("sys.exit", 1)]


UNCAPPED = {"alpha", "beta", "a", "b", "level", "weight"}


def test_every_range_option_is_capped():
    """Every int option is an n or a range, capped by the group precision,
    or one of the listed others.  Each capped option one above the group
    precision, the others at 1, exits 2 before its handler runs, with
    nothing on stdout; at the group precision the handler runs."""
    seen = set()
    for path, (handler, options) in cli.COMMANDS.items():
        ints = {kw["dest"] for _, kw in options if kw.get("type") is int}
        assert ints <= set(cli.CAPPED) | UNCAPPED, path
        seen |= ints & set(cli.CAPPED)
        capped = [f for f, kw in options if kw["dest"] in cli.CAPPED]
        for flag in capped:
            args = {f: "1" for f, kw in options if kw.get("required")}
            args.update(dict.fromkeys(capped, "1"))
            for value, code in (("51", 2), ("50", 0)):
                args[flag] = value
                probe = mock.Mock(__doc__=handler.__doc__, return_value=None)
                with mock.patch.dict(cli.COMMANDS, {path: (probe, options)}):
                    result = run_cli("--precision", "50", *path.split(),
                                     *(x for kv in args.items() for x in kv))
                assert result.exit_code == code, (path, flag, value)
                assert probe.called == (code == 0), (path, flag, value)
                assert result.stdout == "", (path, flag, value)
                assert ("exceeds the configured precision" in result.stderr) \
                    == (code == 2), (path, flag, value)
    assert seen == set(cli.CAPPED)


def test_derive_names_the_cap_before_the_pair():
    """The cap is checked before a handler runs: a derive with an invalid
    pair and a --precision above the group precision names the cap."""
    result = run_cli("--precision", "50", "derive", "--alpha", "1",
                     "--beta", "1", "--precision", "51")
    assert result.exit_code == 2 and result.stdout == ""
    assert "max n 51 exceeds the configured precision 50" in result.stderr
    result = run_cli("--precision", "50", "derive", "--alpha", "0",
                     "--beta", "1", "--precision", "50")
    assert result.exit_code == 2 and result.stdout == ""
    assert "exceeds" not in result.stderr


def _recorded_suites(monkeypatch, *args) -> list[tuple]:
    """The suites a verify command runs, each with its keyword arguments,
    every suite replaced by one that passes."""
    calls = []
    for name in ("ligozat", "basis", "dims", "identity", "lemma32",
                 "closed_forms", "reps"):
        def record(name=name, **options):
            calls.append((name, options))
            return verify.Check(name, True, (f"{name}: ok",))
        monkeypatch.setattr(verify, name, record)
    result = run_cli(*args)
    assert result.exit_code == 0, result.output
    return calls


def test_verify_ranges_are_pinned(monkeypatch):
    """``verify all`` passes each suite its defaults or its --fast values,
    and runs the suites by the largest capped value each is given, the
    largest first; ties keep the table order."""
    pair = {"alpha": None, "beta": None}
    calls = _recorded_suites(monkeypatch, "verify", "all")
    assert dict(calls) == {
        "ligozat": {"level": "all"}, "basis": {}, "dims": {},
        "identity": {**pair, "max_n": 300},
        "lemma32": {"solve_precision": 120},
        "closed_forms": {"max_n": 1000},
        "reps": {"max_n": 100, "substitution_max_n": 300}}
    assert [name for name, _ in calls] == [
        "closed_forms", "identity", "reps", "lemma32", "ligozat", "basis",
        "dims"]
    calls = _recorded_suites(monkeypatch, "verify", "all", "--fast")
    assert dict(calls) == {
        "ligozat": {"level": "all"}, "basis": {}, "dims": {},
        "identity": {**pair, "max_n": 120},
        "lemma32": {"solve_precision": 120},
        "closed_forms": {"max_n": 200},
        "reps": {"max_n": 40, "substitution_max_n": 100}}
    assert [name for name, _ in calls] == [
        "closed_forms", "identity", "lemma32", "reps", "ligozat", "basis",
        "dims"]
    assert _recorded_suites(monkeypatch, "verify", "identity") == [
        ("identity", {**pair, "max_n": 300})]
    monkeypatch.undo()
    # without a pair, identity compares every evaluated pair, in order
    monkeypatch.setattr(verify, "_check", lambda name, comparisons: [
        (pair.alpha, pair.beta) for _, _, pair in comparisons])
    assert verify.identity(300) == list(tables.EXPANSION_COEFFS)


def test_verify_all_is_every_command_at_its_defaults():
    """Each ``verify <name>`` without options prints the block of ``verify
    all`` under ``== <name> ==``."""
    blocks, name = {}, None
    for line in run_cli("verify", "all").stdout.splitlines(keepends=True):
        if line.startswith("== "):
            name = line.strip("= \n")
            blocks[name] = ""
        elif not line.startswith("all: "):
            blocks[name] += line
    suites = [path.split()[1] for path in cli.COMMANDS
              if path.startswith("verify ") and path != "verify all"]
    assert list(blocks) == suites == list(cli.VERIFY)
    for name in suites:
        result = run_cli("verify", name)
        assert result.exit_code == 0, result.output
        assert result.stdout == blocks[name], name


def test_verify_commands_come_from_one_table():
    """No handler of a single verify command is written out in ``cli.py``:
    ``verify_all`` is its only top-level ``verify_*`` function, and every
    other verify command is generated from its row of ``cli.VERIFY``."""
    source = (ROOT / "src" / "convsum" / "cli.py").read_text()
    assert [top.name for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef)
            and top.name.startswith("verify_")] == ["verify_all"]
    for path, (handler, options) in cli.COMMANDS.items():
        group, _, name = path.partition(" ")
        if group != "verify" or name == "all":
            continue
        doc, row = cli.VERIFY[name]
        assert handler.__qualname__ == "_suite_command.<locals>.handler"
        assert handler.__doc__ == doc, path
        assert options == tuple(option for option, _ in row), path


@pytest.mark.parametrize("args, refusal", [
    (("verify", "closed-forms", "--max-n", "1"), None),
    (("verify", "lemma32", "--precision", "48"), None),
    (("verify", "lemma32", "--precision", "47"),
     "must be at least 48, got 47"),
    (("--precision", "1", "eval-w", "--alpha", "1", "--beta", "44",
      "--n", "1"), None),
    (("--precision", "0", "eval-w", "--alpha", "1", "--beta", "44",
      "--n", "0"), "precision must be positive"),
    (("--precision", "1000000", "dims", "--level", "10000000000"), None),
    (("--precision", "1000001", "dims", "--level", "44"),
     "precision 1000001 exceeds the ceiling 1000000"),
    (("dims", "--level", "10000000001"),
     "level 10000000001 exceeds the ceiling 10000000000"),
])
def test_limits_at_their_edges(args, refusal):
    """Each limit accepts its edge value and refuses the one beyond it with
    its own message; the ceilings are pinned as literals, not read from the
    module."""
    result = run_cli(*args)
    assert result.exit_code == (0 if refusal is None else 2), result.output
    assert (result.stdout == "") == (refusal is not None)
    assert refusal is None or refusal in result.stderr
