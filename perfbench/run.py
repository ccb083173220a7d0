"""convsum benchmark: CLI workloads timed end to end, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a convsum checkout; the CLI is imported from ./src.
Every operation is one ``python -m convsum.cli ...`` process, started only
after the previous one has ended (a closed loop with one client).  Each
operation's stdout is checked against a reference that does not call
convsum (see reference.py); a non-zero exit, a traceback on stderr or a
stdout mismatch counts as a failed operation.

Workloads (``--workload all`` runs each in turn):
  closed-forms-5000  verify closed-forms at P = 5000: eta expansion and
                     closed-form evaluation dominate.
  derive-1000        derive for the four pairs at precision 1000: rational
                     solve and dense series products; never touches
                     convolution.
  point-queries      seeded single-value eval-w / rep-count queries with n
                     log-uniform in [14, 1000]: interpreter start-up and
                     per-query set-up dominate.
  verify-all         verify all: the only workload running the oracle and
                     certificate paths, with caches reused in one process.

A pass is one run of a workload's commands (for point-queries, a batch of
24 queries).  With ``--trace 0`` the run repeats passes until ``--seconds``
have elapsed, launches a no-op command (``setup_s``) several times in
between, and prints the end-to-end metrics.  Times are reported in
reference seconds: wall seconds scaled by the machine's speed, measured with
a calibration probe around and during every operation (see PROBE_REF_S);
the report lines also give the raw wall times.  With ``--trace 1`` the run
times the first pass once untraced, then repeats it under tracer.py until
``--seconds`` have elapsed, and prints per-layer self times (median over
passes) and counts (per pass; they repeat exactly).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are the human-readable report.  The
exit code is 1 if any output check failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
CLI = ("-m", "convsum.cli")
SETUP_ARGS = ("dims", "--level", "44")
SETUP_LAUNCHES = 15
OP_TIMEOUT_S = 120.0
# Each CPU of the machine switches between a fast and a 1.4-1.8x slower
# speed within a second, and the share of slow time drifts over minutes.
# So the benchmark and its children share one CPU, a calibration probe runs
# before and after every operation and every PROBE_EVERY_S during it, and
# times are reported scaled to the speed at which the probe takes
# PROBE_REF_S.  Probes during a child's first PROBE_SETTLE_S are skipped:
# while it starts up they read up to twice as slow as the CPU is.
PROBE_SIZE = 300
PROBE_REF_S = 0.0035
PROBE_EVERY_S = 0.1
PROBE_SETTLE_S = 0.3

CLOSED_FORMS_ARGS = ("--precision", "5000", "verify", "closed-forms",
                     "--max-n", "5000")
DERIVE_PAIRS = ((1, 44), (4, 11), (1, 52), (4, 13))
W_PAIRS = DERIVE_PAIRS
REP_PAIRS = ((1, 11), (1, 13))
# Closed-form queries with n <= 13 exit with a usage error at the commit
# that introduced this benchmark: the expansion of a cusp row whose leading
# exponent exceeds n + 1 comes back longer than its precision.  The mix
# starts at the first n every query answers.
QUERY_MIN_N, QUERY_MAX_N = 14, 1000
# per point-queries pass: each W pair and each octonary pair this many times
W_REPEATS, REP_REPEATS = 4, 4

WORKLOADS = ("closed-forms-5000", "derive-1000", "point-queries", "verify-all")


# ---------------------------------------------------------------------------
# operations and their checks

def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Op:
    """One CLI invocation and the sha256 its stdout must have."""

    def __init__(self, args, expected_sha256: str, expected_text=None):
        self.args = tuple(str(a) for a in args)
        self.expected_sha256 = expected_sha256
        self.expected_text = expected_text

    @classmethod
    def pinned(cls, args) -> Op:
        return cls(args, reference.STDOUT_SHA256[tuple(args)])

    @classmethod
    def value(cls, args, value: int) -> Op:
        text = f"{value}\n"
        return cls(args, digest(text.encode()), text)

    def describe(self) -> str:
        return " ".join(self.args)


def failure(returncode: int, stdout: bytes, stderr: bytes, op: Op):
    """Why an operation failed, or None if it succeeded."""
    if returncode != 0:
        return f"exit code {returncode}"
    if b"Traceback (most recent call last)" in stderr:
        return "traceback on stderr"
    if digest(stdout) != op.expected_sha256:
        want = op.expected_text or f"sha256 {op.expected_sha256[:12]}"
        return f"stdout {stdout[:60]!r} does not match {want.strip()}"
    return None


def error_rate(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operation attempted")
    return failed / attempted


# ---------------------------------------------------------------------------
# point-queries mix

def query_passes(seed: int):
    """Endless stream of point-queries passes, a pure function of the seed.

    Each pass asks every W pair W_REPEATS times (eval-w) and every octonary
    pair REP_REPEATS times (rep-count), so two thirds of the queries are
    eval-w.  n is log-uniform in [QUERY_MIN_N, QUERY_MAX_N], stratified: the
    queries of one kind in a pass take one draw from each of equally wide
    strata of log n, so the spread of n is the same in every pass and for
    every seed.
    """
    rng = random.Random(seed)

    def draws(slots):
        strata = list(range(len(slots)))
        rng.shuffle(strata)
        for (kind, pair), s in zip(slots, strata):
            u = (s + rng.random()) / len(slots)
            n = round(QUERY_MIN_N * (QUERY_MAX_N / QUERY_MIN_N) ** u)
            n = min(QUERY_MAX_N, max(QUERY_MIN_N, n))
            yield kind, pair, n

    while True:
        batch = list(draws([("eval-w", p) for p in W_PAIRS] * W_REPEATS))
        batch += draws([("rep-count", p) for p in REP_PAIRS] * REP_REPEATS)
        rng.shuffle(batch)
        yield batch


def query_op(kind: str, pair, n: int, ref: reference.QueryReference) -> Op:
    if kind == "eval-w":
        args = ("eval-w", "--alpha", pair[0], "--beta", pair[1], "--n", n,
                "--method", "closed")
    else:
        args = ("rep-count", "--a", pair[0], "--b", pair[1], "--n", n,
                "--method", "closed")
    return Op.value(args, ref.expected(kind, pair, n))


def workload_passes(name: str, seed: int):
    """Endless stream of passes (lists of Op) for one workload."""
    if name == "point-queries":
        ref = reference.QueryReference(W_PAIRS, REP_PAIRS, QUERY_MAX_N)
        for batch in query_passes(seed):
            yield [query_op(kind, pair, n, ref) for kind, pair, n in batch]
    elif name == "closed-forms-5000":
        ops = [Op.pinned(CLOSED_FORMS_ARGS)]
    elif name == "derive-1000":
        ops = [Op.pinned(("derive", "--alpha", str(a), "--beta", str(b),
                          "--precision", "1000", "--json"))
               for a, b in DERIVE_PAIRS]
    elif name == "verify-all":
        ops = [Op.pinned(("verify", "all"))]
    else:
        raise ValueError(f"unknown workload {name!r}")
    while True:
        yield ops


# ---------------------------------------------------------------------------
# running processes

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CONVSUM_PRECISION", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def probe() -> float:
    """Seconds the calibration kernel takes now: a fixed pure-Python
    integer workload that does not involve convsum."""
    t0 = time.perf_counter()
    reference.convolution_table(1, 2, PROBE_SIZE,
                                reference.sigma1_sieve(PROBE_SIZE))
    return time.perf_counter() - t0


def _idle_class():
    """Child set-up: yield the shared CPU to a probe the moment it wakes,
    so probes measure the CPU and not a time slice of the child.

    Having a pre-exec hook also makes Popen fork instead of vfork; after a
    vfork the child's ru_maxrss would include this process's memory.
    """
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))


def run_process(argv, env, probes: list[float]):
    """Run argv to completion, killing it after OP_TIMEOUT_S, and append a
    probe duration to ``probes`` every PROBE_EVERY_S while it runs.

    Returns wall seconds, exit code, stdout, stderr and the rusage that
    wait4 reports for the child.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT,
                            preexec_fn=_idle_class)
    chunks = {proc.stdout.fileno(): [], proc.stderr.fileno(): []}
    out_fd, err_fd = chunks
    deadline, next_probe = t0 + OP_TIMEOUT_S, t0 + PROBE_SETTLE_S
    killed = False
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            now = time.perf_counter()
            if now >= deadline and not killed:
                proc.kill()
                killed = True
            if now >= next_probe:
                probes.append(probe())
                next_probe = time.perf_counter() + PROBE_EVERY_S
            timeout = max(0.0, next_probe - time.perf_counter())
            for key, _ in sel.select(timeout=timeout):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return (wall, proc.returncode, b"".join(chunks[out_fd]),
            b"".join(chunks[err_fd]), usage)


class Runner:
    """Runs operations one at a time and keeps the workload's tallies.

    An operation's reference time is its wall time scaled by PROBE_REF_S
    over the mean of the probes taken just before, during and just after it.
    """

    def __init__(self):
        self.env = child_env()
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.peak_rss_mb = 0.0
        self.probes: list[float] = []

    def run(self, op: Op, prefix=CLI) -> tuple[float, float]:
        """Run one operation; returns its wall and reference seconds."""
        if not self.probes:
            self.probes.append(probe())
        first = len(self.probes) - 1
        wall, code, out, err, usage = run_process(
            [sys.executable, *prefix, *op.args], self.env, self.probes)
        self.probes.append(probe())
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)
        reason = failure(code, out, err, op)
        if reason:
            self.failures.append((op.describe(), reason))
        speed = statistics.fmean(self.probes[first:])
        return wall, wall * PROBE_REF_S / speed

    def run_pass(self, ops, prefix=CLI) -> list[tuple[float, float]]:
        return [self.run(op, prefix) for op in ops]


# ---------------------------------------------------------------------------
# statistics

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples, p: float) -> float:
    """p-th percentile, interpolating linearly between the closest ranks
    (numpy's default), so it moves smoothly as samples change."""
    ordered = sorted(samples)
    h = (len(ordered) - 1) * p / 100
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def tail_percentile(samples):
    """(p, value) for the highest percentile in TAIL_LADDER with at least
    ten samples above it, or None when there are too few samples."""
    for p in TAIL_LADDER:
        value = percentile(samples, p)
        if sum(1 for x in samples if x > value) >= 10:
            return p, value
    return None


def ratio(part, whole) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics

def measure(name: str, seed: int, seconds: float):
    passes = workload_passes(name, seed)
    ops = next(passes)  # builds the references before anything is timed
    runner = Runner()
    setup_op = Op.pinned(SETUP_ARGS)
    runner.run(setup_op)  # first launch in a checkout compiles bytecode
    setup, pass_times, op_times = [], [], []
    start = time.perf_counter()
    while True:
        # set-up launches are spread over the run between passes, so their
        # median is not taken from one short stretch of machine speed
        elapsed = (time.perf_counter() - start) / seconds
        due = min(SETUP_LAUNCHES, 1 + int(elapsed * (SETUP_LAUNCHES - 1)))
        setup += [runner.run(setup_op) for _ in range(due - len(setup))]
        if elapsed >= 1:
            break
        times = runner.run_pass(ops)
        pass_times.append(tuple(map(sum, zip(*times))))
        op_times += times
        ops = next(passes)
    ms = [(w * 1000, r * 1000) for w, r in op_times]
    rows = {  # metric: ((wall, reference) samples, percentile, what)
        "wall_ref_s": (pass_times, 50, "passes"),
        "query_p50_ref_ms": (ms, 50, "operations"),
        "query_p75_ref_ms": (ms, 75, "operations"),
        "setup_s": (setup, 50, "launches"),
    }
    metrics, notes = {}, {}
    for metric, (pairs, p, what) in rows.items():
        ref = [r for _, r in pairs]
        metrics[metric] = percentile(ref, p)
        tail = tail_percentile(ref)
        notes[metric] = (
            f"{len(ref)} {what}; tail "
            + (f"p{tail[0]:g} {tail[1]:.6g}" if tail
               else "none (fewer than 10 samples above p50)")
            + f"; raw wall p{p} {percentile([w for w, _ in pairs], p):.6g}")
    metrics["peak_rss_mb"] = runner.peak_rss_mb
    notes["peak_rss_mb"] = f"max over {runner.attempted} processes"
    speed = statistics.median(runner.probes)
    notes["wall_ref_s"] += (f"; calibration probe median {speed * 1000:.2f} ms"
                            f" (reference {PROBE_REF_S * 1000:g} ms)")
    return runner, metrics, notes


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

def layer_metrics(records: list[dict]) -> tuple[dict, set]:
    """Per-layer metrics of one pass from the tracer's JSON lines, and the
    set of layers that ran in it."""
    spans = [r for r in records if "name" in r]
    summaries = [r for r in records if "caches" in r]
    by_run: dict[str, list[dict]] = {}
    for s in spans:
        by_run.setdefault(s["run"], []).append(s)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for group in by_run.values():
        own = tracer.self_times(group)
        for s in group:
            calls[s["name"]] = calls.get(s["name"], 0) + 1
            self_s[s["name"]] = self_s.get(s["name"], 0.0) + own[s["id"]] / 1e9

    def named(name):
        return [s for s in spans if s["name"] == name]

    def cache(key, field):
        return [c["caches"][key][field] for c in summaries]

    m = {"cli.import_s": sum(c["import_ns"] for c in summaries) / 1e9,
         "cli.unattributed_s": self_s.get("cli.main", 0.0)}
    for name in tracer.LAYERS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    expand = named("eta.expand")
    m["eta.expand.cache_hit_ratio"] = ratio(
        sum(s.get("cache_hit", False) for s in expand), len(expand))
    m["eta.expand.cache_entries"] = max(
        (c["caches"]["expansion_cache_entries"] for c in summaries), default=0)
    m["eta.expand.coeff_bits_max"] = max(
        (s.get("coeff_bits", 0) for s in expand), default=0)
    m["qseries.mul.nonzero_products"] = sum(
        s.get("nonzero_products", 0) for s in named("qseries.mul"))
    derive = named("spaces.derive_coefficients")
    for key in ("rows_scanned", "residual_rows"):
        m[f"spaces.derive_coefficients.{key}"] = sum(
            s.get(key, 0) for s in derive)
    providers = {(s["run"], s["id"])
                 for s in named("representations.default_w_provider")}
    computed = sum(s.get("values", 0) for s in spans
                   if (s["run"], s["parent"]) in providers)
    reads = sum(c["counts"].get("w_reads", 0) for c in summaries)
    m["representations.w_table_use_ratio"] = ratio(reads, computed)
    for key, layer in (("sigma_k", "arith.sigma_k"),
                       ("prime_factors", "arith.prime_factors"),
                       ("r4", "representations.r4")):
        hits, misses = sum(cache(key, "hits")), sum(cache(key, "misses"))
        m[f"{layer}.calls"] = hits + misses
        m[f"{layer}.hit_ratio"] = ratio(hits, hits + misses)
        m[f"{layer}.entries"] = max(cache(key, "entries"), default=0)
        if hits + misses:
            calls[layer] = hits + misses
    ran = {name for name, n in calls.items() if n} | {"cli"}
    return m, ran


def layer_of(metric: str) -> str:
    """The layer whose calls decide whether a metric row is shown."""
    if metric == "representations.w_table_use_ratio":
        return "representations.default_w_provider"
    if metric.startswith(("cli.", "trace.")):
        return "cli"
    return metric.rsplit(".", 1)[0]


def measure_traced(name: str, seed: int, seconds: float, units: dict):
    ops = next(workload_passes(name, seed))
    runner = Runner()
    runner.run(Op.pinned(SETUP_ARGS))  # compile bytecode outside the timing
    untraced = sum(ref for _, ref in runner.run_pass(ops))
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{name}.jsonl"
    trace_path.write_text("")
    script = str(Path(tracer.__file__).resolve())
    walls, per_pass, ran = [], [], set()
    start = time.perf_counter()
    while True:
        k = len(walls)
        walls.append(sum(
            runner.run(op, (script, str(trace_path), f"{k}.{i}", "--"))[1]
            for i, op in enumerate(ops)))
        with open(trace_path, encoding="utf-8") as f:
            records = [r for r in map(json.loads, f)
                       if r["run"].split(".")[0] == str(k)]
        metrics, layers = layer_metrics(records)
        per_pass.append(metrics)
        ran |= layers
        if time.perf_counter() - start >= seconds:
            break
    out, notes = {}, {}
    repeat = True
    for metric, unit in units.items():
        if metric == "trace.overhead_ratio":
            out[metric] = statistics.median(walls) / untraced
            notes[metric] = (
                f"median traced pass {statistics.median(walls):.4f} / "
                f"untraced pass {untraced:.4f} reference s")
            continue
        values = [p[metric] for p in per_pass]
        if unit == "s":
            out[metric] = statistics.median(values)
            notes[metric] = f"median of {len(values)} passes"
        else:
            out[metric] = values[0]
            repeat = repeat and len(set(values)) == 1
            notes[metric] = "per pass"
    shown = {m for m in units if layer_of(m) in ran}
    return runner, out, notes, shown, repeat


# ---------------------------------------------------------------------------
# reporting

def environment(args) -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def git_sha():
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_workload(name: str, args, spec: dict) -> tuple[Runner, dict]:
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        runner, metrics, notes, shown, repeat = measure_traced(
            name, args.seed, args.seconds, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        runner, metrics, notes = measure(name, args.seed, args.seconds)
        shown, repeat = set(units), None
    failed = len(runner.failures)
    print(f"{name}: {runner.attempted} operations, {failed} failed, "
          f"error_rate {error_rate(failed, runner.attempted):.4g}")
    for op, reason in runner.failures:
        print(f"  FAILED {op}: {reason}")
    for metric, unit in units.items():
        if metric in shown:
            print(f"  {metric:42s} {metrics[metric]:14.6g} {unit:6s} "
                  f"{notes[metric]}")
    if args.trace:
        print(f"  ({len(units) - len(shown)} rows of layers that did not run "
              f"on this workload are omitted here and read 0 below; counts "
              f"{'repeat exactly' if repeat else 'DIFFER'} across passes)")
    return runner, {m: {"value": metrics[m], "unit": u}
                    for m, u in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # children inherit this: they run on the CPU the probes measure
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (ROOT / "src" / "convsum" / "cli.py").is_file():
        print(f"no convsum sources under {ROOT}; run from a convsum checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("env " + json.dumps(environment(args), sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        runner, own = run_workload(name, args, spec)
        attempted += runner.attempted
        failed += len(runner.failures)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + m: v for m, v in own.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
