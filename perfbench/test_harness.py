"""Self-tests for the benchmark's own arithmetic; they start no process.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

from __future__ import annotations

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def span(id_, name, parent, start, end, run_id="0.0", **attrs):
    return {"id": id_, "name": name, "parent": parent, "run": run_id,
            "start_ns": start, "end_ns": end, **attrs}


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_sibling_children(self):
        spans = [span(0, "root", None, 0, 100),
                 span(1, "a", 0, 10, 30),
                 span(2, "b", 0, 40, 70),
                 span(3, "b.child", 2, 45, 60)]
        # the grandchild is subtracted from b only, not again from root
        self.assertEqual(tracer.self_times(spans),
                         {0: 50, 1: 20, 2: 15, 3: 15})

    def test_overlapping_children_count_once(self):
        spans = [span(0, "root", None, 0, 100),
                 span(1, "a", 0, 10, 50),
                 span(2, "b", 0, 30, 120)]
        self.assertEqual(tracer.self_times(spans)[0], 10)

    def test_recorder_links_parents_and_bookkeeping(self):
        rec = tracer.Recorder("r")
        inner = rec.wrap("inner", lambda x: x + 1,
                         after=lambda out, x: {"out": out})
        outer = rec.wrap("outer", lambda x: inner(x) * 2)
        self.assertEqual(rec.call("root", outer, 1), 4)
        by_name = {s["name"]: s for s in rec.spans
                   if s["name"] != tracer.BOOKKEEPING}
        self.assertIsNone(by_name["root"]["parent"])
        self.assertEqual(by_name["outer"]["parent"], by_name["root"]["id"])
        self.assertEqual(by_name["inner"]["parent"], by_name["outer"]["id"])
        self.assertEqual(by_name["inner"]["out"], 2)
        keeping = [s for s in rec.spans if s["name"] == tracer.BOOKKEEPING]
        self.assertEqual([s["parent"] for s in keeping],
                         [by_name["outer"]["id"]])
        self.assertTrue(all(s["run"] == "r" for s in rec.spans))

    def test_failed_call_is_closed_and_reraised(self):
        rec = tracer.Recorder("r")

        def boom():
            raise ValueError("no")
        wrapped = rec.wrap("boom", boom, after=lambda out: {"err": repr(out)})
        with self.assertRaises(ValueError):
            wrapped()
        self.assertIn("end_ns", rec.spans[0])
        self.assertIn("ValueError", rec.spans[0]["err"])


class NonzeroProductsTest(unittest.TestCase):
    def test_matches_brute_force(self):
        class Series:
            def __init__(self, precision, coeffs):
                self.precision = precision
                self.coeffs = coeffs + [0] * (precision + 1 - len(coeffs))
        a = Series(9, [1, 0, 3, 0, 0, 2, 0, 0, 0, 7])
        b = Series(7, [0, 4, 4, 0, 1, 0, 0, 5])
        p = 7
        brute = sum(1 for i in range(p + 1) for j in range(p + 1 - i)
                    if a.coeffs[i] and b.coeffs[j])
        self.assertEqual(tracer._nonzero_products(a, b),
                         {"nonzero_products": brute})


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        samples = [5, 1, 4, 2, 3]
        self.assertEqual(run.percentile(samples, 50), 3)
        self.assertEqual(run.percentile(samples, 75), 4)
        self.assertEqual(run.percentile(samples, 100), 5)
        self.assertEqual(run.percentile(samples, 0), 1)
        self.assertEqual(run.percentile([1, 2], 75), 1.75)
        self.assertEqual(run.percentile([7], 90), 7)

    def test_highest_percentile_with_ten_samples_beyond(self):
        cases = {10: None, 19: None, 20: 50.0, 37: 50.0, 38: 75.0,
                 91: 75.0, 92: 90.0, 200: 95.0, 1000: 99.0, 10000: 99.9}
        for n, expected in cases.items():
            samples = list(range(n))
            tail = run.tail_percentile(samples)
            if expected is None:
                self.assertIsNone(tail, n)
                continue
            p, value = tail
            self.assertEqual((p, value), (expected, run.percentile(samples, p)))
            self.assertGreaterEqual(sum(1 for x in samples if x > value), 10)
            for q in run.TAIL_LADDER:
                if q > p:
                    above = sum(1 for x in samples
                                if x > run.percentile(samples, q))
                    self.assertLess(above, 10, (n, q))
        # ties at the percentile do not count as beyond it
        self.assertIsNone(run.tail_percentile([1.0] * 50))


class ErrorCountingTest(unittest.TestCase):
    def test_each_failure_kind(self):
        op = run.Op.value(("eval-w",), 42)
        self.assertIsNone(run.failure(0, b"42\n", b"", op))
        self.assertIn("exit code", run.failure(2, b"42\n", b"", op))
        self.assertIn("traceback", run.failure(
            0, b"42\n", b"Traceback (most recent call last):\n", op))
        self.assertIn("does not match", run.failure(0, b"41\n", b"", op))
        # a note on stderr is not a failure
        self.assertIsNone(run.failure(0, b"42\n", b"note: fallback\n", op))

    def test_error_rate(self):
        self.assertEqual(run.error_rate(0, 7), 0.0)
        self.assertEqual(run.error_rate(2, 8), 0.25)
        with self.assertRaises(ValueError):
            run.error_rate(0, 0)

    def test_pinned_commands_have_digests(self):
        for name in run.WORKLOADS:
            if name != "point-queries":
                for op in next(run.workload_passes(name, 0)):
                    self.assertEqual(len(op.expected_sha256), 64)


class QueryMixTest(unittest.TestCase):
    def take(self, seed, k):
        stream = run.query_passes(seed)
        return [next(stream) for _ in range(k)]

    def test_same_seed_same_mix(self):
        self.assertEqual(self.take(7, 5), self.take(7, 5))
        self.assertNotEqual(self.take(7, 5), self.take(8, 5))

    def test_composition_and_strata(self):
        for batch in self.take(3, 20):
            kinds = [kind for kind, _, _ in batch]
            self.assertEqual(kinds.count("eval-w"),
                             len(run.W_PAIRS) * run.W_REPEATS)
            self.assertEqual(kinds.count("rep-count"),
                             len(run.REP_PAIRS) * run.REP_REPEATS)
            for kind in ("eval-w", "rep-count"):
                ns = sorted(n for k, _, n in batch if k == kind)
                self.assertTrue(all(run.QUERY_MIN_N <= n <= run.QUERY_MAX_N
                                    for n in ns))
                # one draw per stratum of log n (rounding may cross an edge)
                span_ = math.log(run.QUERY_MAX_N / run.QUERY_MIN_N)
                strata = [min(len(ns) - 1, int(len(ns) * math.log(
                    n / run.QUERY_MIN_N) / span_)) for n in ns]
                self.assertLessEqual(max(
                    abs(s - i) for i, s in enumerate(strata)), 1)


class ReferenceTest(unittest.TestCase):
    def test_convolution_sums_by_definition(self):
        limit = 120
        sigma = reference.sigma1_sieve(limit)
        self.assertEqual(sigma[:7], [0, 1, 3, 4, 7, 6, 12])
        for alpha, beta in ((1, 44), (4, 11), (1, 5)):
            table = reference.convolution_table(alpha, beta, limit, sigma)
            for n in range(limit + 1):
                direct = sum(sigma[l] * sigma[(n - alpha * l) // beta]
                             for l in range(1, n // alpha + 1)
                             if n - alpha * l > 0
                             and (n - alpha * l) % beta == 0)
                self.assertEqual(table[n], direct)
        w = reference.convolution_table(1, 44, 80, reference.sigma1_sieve(80))
        # values printed by `convsum eval-w --alpha 1 --beta 44 --n N`
        self.assertEqual((w[44], w[45], w[50], w[60], w[80]),
                         (0, 1, 12, 31, 91))

    def test_four_squares_by_enumeration(self):
        limit = 60
        table = reference.r4_table(limit)
        root = math.isqrt(limit)
        rng = range(-root, root + 1)
        direct = [0] * (limit + 1)
        for a in rng:
            for b in rng:
                for c in rng:
                    for d in rng:
                        s = a * a + b * b + c * c + d * d
                        if s <= limit:
                            direct[s] += 1
        self.assertEqual(table, direct)
        octonary = reference.octonary_table(1, 11, limit, table)
        self.assertEqual(octonary[0], 1)
        self.assertEqual(octonary[1], 8)
        self.assertEqual(octonary[11], table[11] + table[0] * table[1])


class LayerMetricsTest(unittest.TestCase):
    def test_provider_waste_ratio_and_cache_counts(self):
        caches = {"sigma_k": {"hits": 6, "misses": 2, "entries": 2},
                  "prime_factors": {"hits": 0, "misses": 0, "entries": 0},
                  "r4": {"hits": 0, "misses": 0, "entries": 0},
                  "expansion_cache_entries": 3}
        records = [
            span(0, "cli.main", None, 0, 100),
            span(1, "representations.default_w_provider", 0, 10, 60),
            span(2, "convolution.w_series_oracle", 1, 12, 20, values=11),
            span(3, "convolution.w_closed_table", 1, 20, 50, values=11),
            span(4, "convolution.w_closed_table", 0, 70, 80, values=11),
            {"run": "0.0", "import_ns": 5_000_000, "counts": {"w_reads": 4},
             "caches": caches},
        ]
        m, ran = run.layer_metrics(records)
        self.assertEqual(m["representations.w_table_use_ratio"], 4 / 22)
        self.assertEqual(m["arith.sigma_k.calls"], 8)
        self.assertEqual(m["arith.sigma_k.hit_ratio"], 0.75)
        self.assertEqual(m["eta.expand.cache_entries"], 3)
        self.assertEqual(m["cli.import_s"], 0.005)
        self.assertAlmostEqual(m["cli.unattributed_s"], 40e-9)
        self.assertIn("arith.sigma_k", ran)
        self.assertNotIn("representations.r4", ran)


if __name__ == "__main__":
    unittest.main()
