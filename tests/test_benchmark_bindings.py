"""The benchmark tracer's layer bindings still resolve against the library.

``perfbench/tracer.py`` wraps every function named in its ``LAYERS`` table
and reads the library's caches from outside; a binding renamed or deleted
in ``src/`` would otherwise only show up in a traced benchmark run.  The
stdout digests the benchmark pins in ``perfbench/reference.py`` are checked
here too, so a changed byte fails tier-1 and not only a benchmark run.  Both
files are loaded by path, as scripts, and nothing is patched in process; the
traced child, which patches module globals, runs in a subprocess.  The
summary of every committed ``BENCH_*.json`` is recomputed from its pairs.
"""

import hashlib
import importlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from convsum import eta, spaces
from convsum.eisenstein import EisensteinPair
from conftest import run_cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


def test_every_layer_resolves(tracer):
    assert tracer.LAYERS
    for name, (module_name, attr) in tracer.LAYERS.items():
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), name


def test_cache_counters_read(tracer):
    counters = tracer.cache_counters()
    for key in ("sigma_k", "prime_factors", "r4"):
        assert set(counters[key]) == {"hits", "misses", "entries"}
    assert counters["expansion_cache_entries"] >= 0


def test_pinned_stdout_digests():
    for args, digest in _load("reference").STDOUT_SHA256.items():
        result = run_cli(*args)
        assert result.exit_code == 0, args
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest, args


def test_derivation_rows_read_the_solve(tracer):
    """The tracer counts the rows of a failed solve from the q^N its error
    names, and those of a solution from its solving rows."""
    pair = EisensteinPair(1, 52)
    printed = spaces.build_basis(52, 120, eta.table_rows(52))
    with pytest.raises(spaces.InconsistentSystemError) as info:
        spaces.derive_coefficients(pair, printed)
    assert tracer._derivation_rows(info.value, pair, printed) == {
        "rows_scanned": 23, "residual_rows": 0}
    repaired = spaces.build_basis(52, 120)
    solution = spaces.derive_coefficients(pair, repaired)
    assert tracer._derivation_rows(solution, pair, repaired) == {
        "rows_scanned": max(solution.solving_indices) + 1,
        "residual_rows": 121}


TRACED_COMMANDS = (
    ("verify", "reps", "--max-n", "20", "--substitution-max-n", "20"),
    ("derive", "--alpha", "1", "--beta", "44", "--precision", "60", "--json"),
)


def test_traced_child_runs_every_hook(tmp_path):
    """``tracer.py OUT RUN -- ARGS`` as the traced benchmark runs it: the
    command's stdout is the untraced one, the hooks that read series
    coefficients, the expansion cache and the W provider record their
    spans, the squaring's product is a child span of ``lhs_square``, and
    each run closes with the cache counters."""
    out = tmp_path / "spans.jsonl"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    for run, args in enumerate(TRACED_COMMANDS):
        child = subprocess.run(
            [sys.executable, str(PERFBENCH / "tracer.py"), str(out), str(run),
             "--", *args], env=env, capture_output=True, timeout=120)
        assert child.returncode == 0, child.stderr.decode()
        assert child.stdout == run_cli(*args).stdout_bytes
    records = [json.loads(line) for line in out.read_text().splitlines()]
    names = {r["name"] for r in records if "name" in r}
    assert {"eta.expand", "qseries.mul", "qseries.construct",
            "representations.default_w_provider",
            "spaces.derive_coefficients"} <= names
    squares = {r["id"] for r in records if r["run"] == "1"
               and r.get("name") == "eisenstein.lhs_square"}
    assert any(r.get("name") == "qseries.mul" and r["parent"] in squares
               for r in records if r["run"] == "1")
    closing = {r["run"]: r for r in records if "caches" in r}
    assert set(closing) == {"0", "1"}
    assert "r4" in closing["0"]["caches"]
    assert closing["0"]["counts"]["w_reads"] > 0


def test_harness_self_tests_pass():
    """The benchmark's own unit tests, run as its docstring says."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    child = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench",
         "-p", "test_*.py"], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120)
    assert child.returncode == 0, child.stderr


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda path: path.name)
def test_bench_summary_matches_its_pairs(path):
    """Each metric's summary holds the parent and change medians of its
    pairs, to the 4 decimals the files keep, the count of pairs the change
    wins (lower is better for every metric; a tie wins for neither) and the
    count of pairs.  A metric outside ``metrics`` (``raw_wall_p50_s``) sits
    on the side itself."""
    record = json.loads(path.read_text())
    pairs = record["pairs"]
    for name, summary in record["summary"].items():
        def values(side):
            return [p[side]["metrics"][name]["value"]
                    if name in p[side]["metrics"] else p[side][name]
                    for p in pairs]
        parent, change = values("parent"), values("change")
        assert (summary["parent"]["median"], summary["change"]["median"],
                summary["change_wins"], summary["pairs"]) == (
            round(statistics.median(parent), 4),
            round(statistics.median(change), 4),
            sum(c < p for p, c in zip(parent, change)), len(pairs)), name
