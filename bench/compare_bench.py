#!/usr/bin/env python3
"""Compare two release-bench snapshot directories and fail on regressions.

Usage:
    compare_bench.py BASELINE_DIR CURRENT_DIR [--threshold 0.25]

Each directory holds per-commit bench snapshots, as produced by the
release-bench CI job:

  * ``*.jsonl`` — JSON-lines rows from the figure drivers (``--json=1``);
    non-JSON lines (section banners) are ignored. Rows are keyed by their
    non-numeric fields plus occurrence order, so re-runs align row to row.
  * ``*.json``  — google-benchmark ``--benchmark_format=json`` documents;
    benchmarks are keyed by name.

A metric regresses when it moves more than ``threshold`` (default 25%) in
its *worse* direction. The direction is inferred from the metric name:
times/sizes (ns, ms, s, bytes, MB...) regress upward, rates/throughputs
(/s, ops, qps, knee...) regress downward; metrics whose direction is not
recognizably either are reported as informational only. Error counts
(``errors``, ``error_rate``) are held to zero tolerance: any increase over
the baseline, including from zero, is a regression. Missing baselines
(first run, renamed rows, new benchmarks) never fail the job.

``--require PATTERN`` (repeatable) asserts that at least one row of the
*current* snapshot matches the regex; a filter typo that silently drops a
gated benchmark family then fails the job instead of passing vacuously.

Exit status: 0 = no regression, 1 = at least one regression or missing
required benchmark, 2 = usage.
"""

import argparse
import json
import os
import re
import sys

# Unit suffixes and name fragments marking lower-is-better metrics
# (times, sizes) vs higher-is-better (rates, throughput).
LOWER_BETTER_UNITS = ("ns", "us", "ms", "s", "b", "kb", "mb", "gb")
LOWER_BETTER_NAMES = (
    "ns", "ms", "(s)", "sec", "time", "bytes", "mb", "kb", "size",
    "real_time", "cpu_time",
)
HIGHER_BETTER = ("/s", "per_second", "ops", "throughput")
# Serving capacity: "qps" rows and the knee (highest rate meeting the p99
# limit). Checked after the time/size names, so "p99_at_knee_ms" stays
# lower-is-better.
CAPACITY_NAMES = ("qps", "knee")
# Failure counts: no tolerated increase at all.
ERROR_NAMES = ("errors", "error_rate")

# "2.00 ms", "0.05 MB", "1.47M/s", "42" — leading float, optional unit.
VALUE_RE = re.compile(
    r"^\s*([-+]?[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)\s*([A-Za-z/%]*)\s*$")


def direction(metric_name, unit=""):
    """-1 lower-is-better, +1 higher-is-better, 0 unknown."""
    unit = unit.lower()
    name = metric_name.lower()
    if unit.endswith("/s") or any(tok in name for tok in HIGHER_BETTER):
        return 1
    if unit in LOWER_BETTER_UNITS:
        return -1
    if any(tok in name for tok in LOWER_BETTER_NAMES):
        return -1
    if any(tok in name for tok in CAPACITY_NAMES):
        return 1
    return 0


def is_error_metric(metric_name):
    """True for failure counts, which regress on any increase."""
    name = metric_name.lower()
    return any(name == tok or name.endswith("_" + tok) for tok in ERROR_NAMES)


def as_number(value):
    """(number, unit) for plain or unit-suffixed values, else None."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value), ""
    if isinstance(value, str):
        m = VALUE_RE.match(value)
        if m:
            return float(m.group(1)), m.group(2)
    return None


def load_jsonl(path):
    """{row_key: {metric: (value, unit)}} from a JSON-lines driver file."""
    rows = {}
    counts = {}
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(obj, dict):
                continue
            idents = []
            metrics = {}
            for key, value in obj.items():
                parsed = as_number(value)
                if parsed is None:
                    idents.append("%s=%s" % (key, value))
                else:
                    metrics[key] = parsed
            # A row of pure numbers still needs an identity: use its leading
            # column (the x-axis value — range %, dataset size, ...).
            if not idents and metrics:
                first_key = next(iter(obj))
                if first_key in metrics:
                    idents.append("%s=%s" % (first_key, obj[first_key]))
                    del metrics[first_key]
            ident = ";".join(idents)
            counts[ident] = counts.get(ident, 0) + 1
            rows["%s#%d" % (ident, counts[ident])] = metrics
    return rows


def load_benchmark_json(path):
    """{benchmark_name: {metric: value}} from google-benchmark JSON."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, OSError):
        return {}
    rows = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name")
        if not name:
            continue
        time_unit = bench.get("time_unit", "ns")
        metrics = {}
        for key, unit in (("real_time", time_unit), ("cpu_time", time_unit),
                          ("items_per_second", "/s"),
                          ("bytes_per_second", "/s")):
            value = bench.get(key)
            if isinstance(value, (int, float)) and not isinstance(value,
                                                                  bool):
                metrics[key] = (float(value), unit)
        rows[name] = metrics
    return rows


def load_dir(path):
    """{filename: {row_key: {metric: value}}} for one snapshot dir."""
    snapshots = {}
    for entry in sorted(os.listdir(path)):
        full = os.path.join(path, entry)
        if not os.path.isfile(full):
            continue
        if entry.endswith(".jsonl"):
            snapshots[entry] = load_jsonl(full)
        elif entry.endswith(".json"):
            snapshots[entry] = load_benchmark_json(full)
    return snapshots


def compare(baseline, current, threshold):
    """Returns (regressions, improvements, informational) row lists."""
    regressions = []
    improvements = []
    for fname, cur_rows in sorted(current.items()):
        base_rows = baseline.get(fname)
        if base_rows is None:
            continue
        for row_key, cur_metrics in cur_rows.items():
            base_metrics = base_rows.get(row_key)
            if base_metrics is None:
                continue
            for metric, (cur_value, cur_unit) in cur_metrics.items():
                base = base_metrics.get(metric)
                if base is None:
                    continue
                base_value, base_unit = base
                where = "%s :: %s :: %s" % (fname, row_key, metric)
                if is_error_metric(metric):
                    line = "%s  %.4g -> %.4g" % (where, base_value, cur_value)
                    if cur_value > base_value:
                        regressions.append(line)
                    elif cur_value < base_value:
                        improvements.append(line)
                    continue
                if base_value == 0 or base_unit != cur_unit:
                    continue  # zero baseline or unit change: not comparable
                sign = direction(metric, cur_unit)
                if sign == 0:
                    continue
                ratio = cur_value / base_value
                line = "%s  %.4g -> %.4g  (%+.1f%%)" % (
                    where, base_value, cur_value, (ratio - 1.0) * 100.0)
                worse = ratio > 1.0 + threshold if sign < 0 \
                    else ratio < 1.0 - threshold
                better = ratio < 1.0 - threshold if sign < 0 \
                    else ratio > 1.0 + threshold
                if worse:
                    regressions.append(line)
                elif better:
                    improvements.append(line)
    return regressions, improvements


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="fractional regression gate (default 0.25)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="PATTERN",
                        help="regex that must match at least one current row "
                             "(repeatable); guards gated benchmark families "
                             "against silently vanishing from the snapshot")
    args = parser.parse_args(argv)
    for d in (args.baseline, args.current):
        if not os.path.isdir(d):
            print("compare_bench: not a directory: %s" % d, file=sys.stderr)
            return 2

    baseline = load_dir(args.baseline)
    current = load_dir(args.current)
    regressions, improvements = compare(baseline, current, args.threshold)

    matched = sum(1 for f in current if f in baseline)
    print("compare_bench: %d/%d snapshot files matched against baseline"
          % (matched, len(current)))

    missing = []
    for pattern in args.require:
        regex = re.compile(pattern)
        if not any(regex.search(row_key)
                   for rows in current.values() for row_key in rows):
            missing.append(pattern)
    if improvements:
        print("\nimprovements (> %.0f%%):" % (args.threshold * 100))
        for line in improvements:
            print("  " + line)
    if regressions:
        print("\nREGRESSIONS (> %.0f%%):" % (args.threshold * 100))
        for line in regressions:
            print("  " + line)
    if missing:
        print("\nMISSING required benchmarks (no current row matches):")
        for pattern in missing:
            print("  " + pattern)
    if regressions or missing:
        return 1
    print("\nno regression beyond %.0f%% threshold" % (args.threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
