"""A level is data: the suites run at a third level from rows alone.

No module of the library but ``tables`` names a level or a pair, and but
for the CLI's ``--level`` choices none copies them from ``tables`` at
import, so a new level needs its exponent rows, its pinned facts and the
expansions of its pairs, and no edit of the code or patch of a module.  Level 20 is added here from six rows; the
expansions of its pairs (1, 20) and (4, 5) are derived in the test, and the
suites then prove them and the octonary count of (1, 5).
"""

import ast
from pathlib import Path

from convsum import spaces, tables, verify
from convsum.eisenstein import EisensteinPair
from conftest import LEVEL20_ROWS

SRC = Path(__file__).resolve().parent.parent / "src" / "convsum"


def test_only_tables_names_a_level_or_a_pair():
    """No int constant 11, 13, 44 or 52 outside ``tables.py``: the levels
    and pairs are read from its keys."""
    found = [
        f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
        if path.name != "tables.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and type(node.value) is int
        and node.value in (11, 13, 44, 52)]
    assert found == []


def _run_at_import(node):
    """The node and every node under it that runs when its module is
    imported: all but the bodies of functions and lambdas."""
    yield node
    deferred = (node.body if isinstance(node, ast.FunctionDef) else
                [node.body] if isinstance(node, ast.Lambda) else [])
    for child in ast.iter_child_nodes(node):
        if not any(child is stmt for stmt in deferred):
            yield from _run_at_import(child)


def test_tables_are_read_when_used():
    """No statement outside ``tables.py`` reads ``tables`` at import, in an
    assignment, a default or a decorator, so a level added to ``tables``
    reaches every reader.  The one exception is ``cli.LEVELS``, the
    ``--level`` choices: argparse prints them in ``--help`` and in its
    invalid-choice error, and a launch is a fresh process that reads
    ``tables`` as shipped."""
    def reads_tables(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "tables"
        return (isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "tables")
    found = [
        f"{path.name}: {ast.unparse(stmt)}"
        for path in sorted(SRC.glob("*.py")) if path.name != "tables.py"
        for stmt in ast.parse(path.read_text()).body
        if any(map(reads_tables, _run_at_import(stmt)))]
    assert found == ["cli.py: LEVELS = [*map(str, tables.levels()), 'all']"]


def test_closed_form_pairs_are_derived():
    """Each (1, b) whose (4, b) and (1, 4b) are evaluated, in their order."""
    assert list(tables.EXPANSION_COEFFS) == [
        (1, 44), (4, 11), (1, 52), (4, 13)]
    assert tables.closed_form_pairs() == ((1, 11), (1, 13))


def test_level_20_is_data_only(monkeypatch, fresh_expansions):
    """Level 20 added to the dicts of ``tables`` alone: every suite reports
    ok over the three levels."""
    monkeypatch.setitem(tables.CUSP_EXPONENTS, 20, LEVEL20_ROWS)
    monkeypatch.setitem(tables.NONSTRICT_ROWS, 20, {})
    monkeypatch.setitem(tables.CUSP_DETERMINANTS, 20, 2000)
    monkeypatch.setitem(tables.DIMENSIONS, 20, (12, 6, 6))
    space = spaces.build_basis(20, 60)
    for pair in ((1, 20), (4, 5)):
        solution = spaces.derive_coefficients(EisensteinPair(*pair), space)
        monkeypatch.setitem(tables.EXPANSION_COEFFS, pair, solution[:2])

    checks = {check.name: check for check in (
        verify.ligozat(20), verify.basis(), verify.dims(),
        verify.closed_forms(400), verify.reps(60, 100),
        verify.identity(120))}
    for check in checks.values():
        assert check.ok, check.lines
    assert len(checks["ligozat"].lines) == 7
    assert all(line.endswith("cusp [ok]")
               for line in checks["ligozat"].lines[:-1])
    assert checks["basis"].lines[-2] == (
        "level 20: cusp minor determinant 2000 (expected 2000), Eisenstein "
        "matrix unit lower triangular: True")
    assert ("level 20: dims (12, 6, 6) (expected (12, 6, 6))"
            in checks["dims"].lines)
    assert checks["closed-forms"].lines[-3:-1] == (
        "closed form (1, 20): equals brute force for n <= 400",
        "closed form (4, 5): equals brute force for n <= 400")
    assert {"octonary counts (1,5): closed equals enumeration for n <= 60",
            "substitution identities for b = 5: exact for n <= 100"} <= set(
        checks["reps"].lines)
    assert checks["identity"].lines[-3:-1] == (
        "identity (1,20): exact for all n <= 120",
        "identity (4,5): exact for all n <= 120")
