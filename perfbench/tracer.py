"""Span recorder for the traced benchmark run, and the traced child process.

Run as a script, this file executes one CLI command in process under the
recorder and writes its spans as JSON lines:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.jsonl RUN_ID -- verify all

The child imports ``convsum.cli`` (timed as ``cli.import_s``), replaces every
module binding of the layer functions in ``LAYERS`` with a span-recording
wrapper, calls ``convsum.cli.main(args, standalone_mode=False)`` under a root
span ``cli.main``, then reads the library's cache counters from outside and
appends everything to OUT.jsonl when the command ends.  The command's stdout
is left untouched so the caller can check it.  Each command gets a fresh
interpreter, so caches start cold as in the untraced run.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
import time

# span name -> (module, attribute); "Class.method" patches the class
LAYERS = {
    "eta.expand": ("convsum.eta", "expand"),
    "eta.check_ligozat": ("convsum.eta", "check_ligozat"),
    "convolution.w_closed": ("convsum.convolution", "w_closed"),
    "convolution.w_closed_table": ("convsum.convolution", "w_closed_table"),
    "convolution.w_series_oracle": ("convsum.convolution", "w_series_oracle"),
    "convolution.w_oracle": ("convsum.convolution", "w_oracle"),
    "qseries.mul": ("convsum.qseries", "QSeries.__mul__"),
    "qseries.construct": ("convsum.qseries", "QSeries.__init__"),
    "eisenstein.lhs_square": ("convsum.eisenstein", "lhs_square"),
    "eisenstein.rhs_identity": ("convsum.eisenstein", "rhs_identity"),
    "spaces.build_basis": ("convsum.spaces", "build_basis"),
    "spaces.verify_independence": ("convsum.spaces", "verify_independence"),
    "spaces.derive_coefficients": ("convsum.spaces", "derive_coefficients"),
    "representations.default_w_provider":
        ("convsum.representations", "default_w_provider"),
    "representations.rep_count_closed":
        ("convsum.representations", "rep_count_closed"),
    "representations.rep_count_enumerate":
        ("convsum.representations", "rep_count_enumerate"),
}

# time spent computing span attributes; excluded from every self time
BOOKKEEPING = "trace.bookkeeping"
_UNSET = object()


class Recorder:
    """Keeps spans in memory; each span is a dict with id, name, parent,
    run, start_ns, end_ns and optional attributes."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id, "start_ns": time.perf_counter_ns()}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end_ns"] = time.perf_counter_ns()
        self._stack.pop()

    def _bookkeeping(self, start_ns: int) -> None:
        self.spans.append({
            "id": len(self.spans), "name": BOOKKEEPING,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id, "start_ns": start_ns,
            "end_ns": time.perf_counter_ns()})

    def call(self, name: str, fn, *args, **kwargs):
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, name: str, fn, before=None, after=None):
        """Span-recording stand-in for fn.

        ``before(*args, **kwargs)`` returns attributes computed from the
        arguments; ``after(outcome, *args, **kwargs)`` returns attributes
        computed from the result or the raised exception.  Both run outside
        the span, and their cost is recorded as bookkeeping.
        """
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            attrs = before(*args, **kwargs) if before else {}
            if before:
                rec._bookkeeping(t0)
            span = rec._open(name)
            outcome = _UNSET
            try:
                outcome = fn(*args, **kwargs)
            except Exception as exc:
                outcome = exc
                raise
            finally:
                rec._close(span)
                if after and outcome is not _UNSET:
                    t0 = time.perf_counter_ns()
                    attrs.update(after(outcome, *args, **kwargs))
                    rec._bookkeeping(t0)
                span.update(attrs)
            return outcome

        return wrapper


def self_times(spans: list[dict]) -> dict[int, int]:
    """Span id -> duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(
                (s["start_ns"], s["end_ns"]))
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered, reach = 0, start
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = end - start - covered
    return out


# ---------------------------------------------------------------------------
# attributes computed from the operands and results of layer calls

def _nonzero_products(a, b) -> dict:
    """Coefficient products QSeries.__mul__ performs: pairs (i, j) of
    nonzero coefficients with i + j within the result precision."""
    p = min(a.precision, b.precision)
    left = [i for i, c in enumerate(a.coeffs[:p + 1]) if c]
    right = [j for j, c in enumerate(b.coeffs[:p + 1]) if c]
    total, k = 0, len(right)
    for i in left:
        while k and right[k - 1] > p - i:
            k -= 1
        total += k
    return {"nonzero_products": total}


def _expansion_attrs(eta_module):
    def before(eq, precision):
        cached = eta_module._EXPANSION_CACHE.get(eq)
        return {"cache_hit": cached is not None and cached[0] >= precision}

    def after(outcome, eq, precision):
        if isinstance(outcome, Exception):
            return {}
        return {"coeff_bits": max(abs(c.numerator).bit_length()
                                  for c in outcome.coeffs)}
    return before, after


def _table_length(outcome, *args, **kwargs) -> dict:
    return {} if isinstance(outcome, Exception) else {"values": len(outcome)}


_INCONSISTENT_ROW = re.compile(r"at q\^(\d+)")


def _derivation_rows(outcome, pair, basis, precision=None) -> dict:
    """Rows of the greedy solve scanned and of the residual check run,
    computed from the outcome: a solution scans up to its last solving row
    and then checks every row up to the precision; an inconsistent system
    stops at the row it names."""
    if isinstance(outcome, Exception):
        m = _INCONSISTENT_ROW.search(str(outcome))
        return {"rows_scanned": int(m.group(1)) + 1 if m else 0,
                "residual_rows": 0}
    precision = basis.precision if precision is None else precision
    return {"rows_scanned": max(outcome.solving_indices) + 1,
            "residual_rows": precision + 1}


def _counting_reads(rec: Recorder, provider):
    """Wrap a W-provider factory so that every table value read through a
    provider it returns is counted."""
    @functools.wraps(provider)
    def make(*args, **kwargs):
        w = provider(*args, **kwargs)

        def counted(alpha, beta, n):
            if n >= 0:
                rec.counts["w_reads"] = rec.counts.get("w_reads", 0) + 1
            return w(alpha, beta, n)
        return counted
    return make


def _replace_everywhere(original, replacement) -> int:
    """Rebind every convsum module attribute that is ``original``."""
    hits = 0
    for name, module in list(sys.modules.items()):
        if not (name == "convsum" or name.startswith("convsum.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                hits += 1
    return hits


def install(rec: Recorder) -> None:
    """Wrap every layer function of LAYERS at every binding."""
    eta = importlib.import_module("convsum.eta")
    expand_before, expand_after = _expansion_attrs(eta)
    hooks = {
        "eta.expand": (expand_before, expand_after),
        "qseries.mul": (_nonzero_products, None),
        "convolution.w_closed_table": (None, _table_length),
        "convolution.w_series_oracle": (None, _table_length),
        "spaces.derive_coefficients": (None, _derivation_rows),
    }
    for name, (module_name, attr) in LAYERS.items():
        module = importlib.import_module(module_name)
        before, after = hooks.get(name, (None, None))
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method,
                    rec.wrap(name, getattr(cls, method), before, after))
            continue
        original = getattr(module, attr)
        fn = original
        if name == "representations.default_w_provider":
            fn = _counting_reads(rec, original)
        wrapped = rec.wrap(name, fn, before, after)
        if not _replace_everywhere(original, wrapped):
            raise RuntimeError(f"no binding of {module_name}.{attr} found")


def cache_counters() -> dict:
    """Cache sizes and hit counts read from outside the library."""
    arith = importlib.import_module("convsum.arith")
    eta = importlib.import_module("convsum.eta")
    reps = importlib.import_module("convsum.representations")
    out = {}
    for key, fn in (("sigma_k", arith.sigma_k),
                    ("prime_factors", arith.prime_factors),
                    ("r4", reps._r4_count)):
        info = fn.cache_info()
        out[key] = {"hits": info.hits, "misses": info.misses,
                    "entries": info.currsize}
    out["expansion_cache_entries"] = len(eta._EXPANSION_CACHE)
    return out


def main(argv: list[str]) -> int:
    out_path, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.jsonl RUN_ID -- CLI ARGS...")
    t0 = time.perf_counter_ns()
    cli = importlib.import_module("convsum.cli")
    import_ns = time.perf_counter_ns() - t0
    rec = Recorder(run_id)
    install(rec)
    click = importlib.import_module("click")
    code = 0
    try:
        rec.call("cli.main", cli.main, cli_args, prog_name="convsum",
                 standalone_mode=False)
    except click.ClickException as exc:  # what standalone mode would do
        exc.show()
        code = exc.exit_code
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        with open(out_path, "a", encoding="utf-8") as f:
            for span in rec.spans:
                f.write(json.dumps(span) + "\n")
            f.write(json.dumps({
                "run": run_id, "import_ns": import_ns, "counts": rec.counts,
                "caches": cache_counters()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
