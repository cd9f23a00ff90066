#!/usr/bin/env python3
"""Self-test of compare_bench.py's regression gate.

    python3 bench/compare_bench_test.py

Writes baseline/current snapshot pairs to temporary directories and checks
the exit status: a throughput (qps, knee) drop or any error increase fails
(1); a throughput rise, an unchanged error count and a lower-is-better time
named after the knee pass (0).
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare_bench  # noqa: E402


def write_rows(directory, rows):
    with open(os.path.join(directory, "serve.jsonl"), "w",
              encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


class CompareBenchTest(unittest.TestCase):

    def gate(self, base_rows, cur_rows, threshold=0.25):
        """compare_bench's exit status for one baseline/current pair."""
        with tempfile.TemporaryDirectory() as base, \
                tempfile.TemporaryDirectory() as cur:
            write_rows(base, base_rows)
            write_rows(cur, cur_rows)
            with contextlib.redirect_stdout(io.StringIO()):
                return compare_bench.main(
                    [base, cur, "--threshold", str(threshold)])

    def row(self, **metrics):
        row = {"scenario": "load"}
        row.update({k: str(v) for k, v in metrics.items()})
        return row

    def test_qps_drop_fails(self):
        self.assertEqual(self.gate([self.row(qps=200)], [self.row(qps=100)]),
                         1)

    def test_qps_rise_passes(self):
        self.assertEqual(self.gate([self.row(qps=200)], [self.row(qps=400)]),
                         0)

    def test_knee_drop_fails(self):
        self.assertEqual(
            self.gate([self.row(knee_qps=500)], [self.row(knee_qps=300)]), 1)
        self.assertEqual(self.gate([self.row(knee=500)], [self.row(knee=300)]),
                         1)

    def test_time_named_after_knee_stays_lower_is_better(self):
        self.assertEqual(
            self.gate([self.row(p99_at_knee_ms=20)],
                      [self.row(p99_at_knee_ms=10)]), 0)
        self.assertEqual(
            self.gate([self.row(p99_at_knee_ms=10)],
                      [self.row(p99_at_knee_ms=20)]), 1)

    def test_error_increase_fails_even_from_zero(self):
        self.assertEqual(
            self.gate([self.row(qps=200, errors=0)],
                      [self.row(qps=200, errors=1)]), 1)
        self.assertEqual(
            self.gate([self.row(error_rate=0.01)],
                      [self.row(error_rate=0.011)], threshold=0.5), 1)

    def test_unchanged_or_fewer_errors_pass(self):
        self.assertEqual(
            self.gate([self.row(qps=200, errors=0)],
                      [self.row(qps=210, errors=0)]), 0)
        self.assertEqual(
            self.gate([self.row(errors=3)], [self.row(errors=1)]), 0)

    def test_direction(self):
        self.assertEqual(compare_bench.direction("qps"), 1)
        self.assertEqual(compare_bench.direction("knee_qps"), 1)
        self.assertEqual(compare_bench.direction("p50_ms"), -1)
        self.assertEqual(compare_bench.direction("clients"), 0)


if __name__ == "__main__":
    unittest.main()
