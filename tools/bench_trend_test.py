#!/usr/bin/env python3
"""Unit tests for tools/bench_trend.py (run by ctest as bench_trend_py).

Covers the exit-code contract CI relies on: 0 = no regression, 1 =
regression beyond threshold, 2 = unreadable/malformed input; plus the
filtering rules (aggregate rows ignored, new/gone benchmarks never fail,
items_per_second preferred with a 1/real_time fallback); and the HOST
MISMATCH report line.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_trend  # noqa: E402


def bench_json(entries, context=None):
    out = {"benchmarks": entries}
    if context is not None:
        out["context"] = context
    return out


def bm(name, items=None, real_time=None, run_type=None):
    out = {"name": name}
    if items is not None:
        out["items_per_second"] = items
    if real_time is not None:
        out["real_time"] = real_time
    if run_type is not None:
        out["run_type"] = run_type
    return out


class BenchTrendTest(unittest.TestCase):
    def setUp(self):
        self._dir = tempfile.TemporaryDirectory()
        self.addCleanup(self._dir.cleanup)

    def write(self, name, payload, raw=None):
        path = os.path.join(self._dir.name, name)
        with open(path, "w") as f:
            if raw is not None:
                f.write(raw)
            else:
                json.dump(payload, f)
        return path

    def run_main(self, baseline, fresh, threshold=None):
        argv = ["bench_trend.py", baseline, fresh]
        if threshold is not None:
            argv += ["--threshold", str(threshold)]
        old_argv = sys.argv
        sys.argv = argv
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = bench_trend.main()
        finally:
            sys.argv = old_argv
        self.last_report = out.getvalue()
        return code

    def test_no_regression_exits_zero(self):
        base = self.write("base.json", bench_json([bm("select", items=100.0)]))
        fresh = self.write("fresh.json", bench_json([bm("select", items=95.0)]))
        self.assertEqual(self.run_main(base, fresh), 0)

    def test_regression_beyond_threshold_exits_one(self):
        base = self.write("base.json", bench_json([bm("select", items=100.0)]))
        fresh = self.write("fresh.json", bench_json([bm("select", items=70.0)]))
        self.assertEqual(self.run_main(base, fresh), 1)

    def test_threshold_is_respected(self):
        base = self.write("base.json", bench_json([bm("select", items=100.0)]))
        fresh = self.write("fresh.json", bench_json([bm("select", items=70.0)]))
        self.assertEqual(self.run_main(base, fresh, threshold=0.5), 0)

    def test_new_and_gone_benchmarks_never_fail(self):
        base = self.write("base.json", bench_json(
            [bm("select", items=100.0), bm("retired", items=100.0)]))
        fresh = self.write("fresh.json", bench_json(
            [bm("select", items=100.0), bm("brand_new", items=1.0)]))
        self.assertEqual(self.run_main(base, fresh), 0)

    def test_malformed_json_exits_two(self):
        base = self.write("base.json", bench_json([bm("select", items=1.0)]))
        broken = self.write("broken.json", None, raw="{not json")
        self.assertEqual(self.run_main(base, broken), 2)
        self.assertEqual(self.run_main(broken, base), 2)

    def test_missing_file_exits_two(self):
        base = self.write("base.json", bench_json([bm("select", items=1.0)]))
        missing = os.path.join(self._dir.name, "nope.json")
        self.assertEqual(self.run_main(base, missing), 2)

    def test_aggregate_rows_are_ignored(self):
        # The _mean aggregate regresses hard; the raw repetition does not.
        base = self.write("base.json", bench_json([
            bm("select", items=100.0),
            bm("select_mean", items=100.0),
            bm("select/agg", items=100.0, run_type="aggregate"),
        ]))
        fresh = self.write("fresh.json", bench_json([
            bm("select", items=99.0),
            bm("select_mean", items=1.0),
            bm("select/agg", items=1.0, run_type="aggregate"),
        ]))
        self.assertEqual(self.run_main(base, fresh), 0)
        self.assertEqual(bench_trend.load_throughputs(base),
                         {"select": 100.0})

    def test_real_time_fallback_inverts(self):
        base = self.write("base.json", bench_json(
            [bm("noitems", real_time=10.0)]))
        # 4x slower by real_time => throughput ratio 0.25 => regression.
        fresh = self.write("fresh.json", bench_json(
            [bm("noitems", real_time=40.0)]))
        self.assertEqual(bench_trend.load_throughputs(base),
                         {"noitems": 0.1})
        self.assertEqual(self.run_main(base, fresh), 1)


    def test_host_mismatch_is_reported_without_changing_exit_codes(self):
        seed = {"num_cpus": 1, "library_build_type": "debug"}
        host = {"num_cpus": 4, "library_build_type": "release"}
        base = self.write("base.json", bench_json(
            [bm("select", items=100.0)], seed))
        same = self.write("same.json", bench_json(
            [bm("select", items=95.0)], dict(seed)))
        self.assertEqual(self.run_main(base, same), 0)
        self.assertNotIn("HOST MISMATCH", self.last_report)

        ok = self.write("ok.json", bench_json([bm("select", items=95.0)], host))
        self.assertEqual(self.run_main(base, ok), 0)
        self.assertIn("HOST MISMATCH", self.last_report)
        self.assertIn("num_cpus 1 vs 4", self.last_report)
        self.assertIn("library_build_type debug vs release", self.last_report)

        slow = self.write("slow.json", bench_json(
            [bm("select", items=70.0)], {"num_cpus": 1,
                                         "library_build_type": "release"}))
        self.assertEqual(self.run_main(base, slow), 1)
        self.assertIn("HOST MISMATCH: library_build_type debug vs release",
                      self.last_report)
        self.assertNotIn("num_cpus", self.last_report)


if __name__ == "__main__":
    unittest.main()
