#!/usr/bin/env python3
"""Compare two google-benchmark JSON outputs benchmark by benchmark.

Usage:
    tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold PCT]
    tools/bench_diff.py --self-test

Both inputs are files produced by
`micro_kernels --benchmark_format=json --benchmark_out=FILE` (or the
same JSON captured from stdout), with or without
`--benchmark_repetitions`. Every repetition of a benchmark counts:
the script compares the median real time of each side and prints
each side's spread, the interquartile range [Q1, Q3] of its
repetitions. A delta no larger than the wider of the two sides'
interquartile distances lies inside the spread; it is marked and
never gates. The script exits nonzero when any benchmark present in
both files slowed down by more than --threshold percent (default 10)
outside the spread. Benchmarks present in only one file are listed
but never gate. Aggregate rows (mean/median/stddev) are ignored: the
script recomputes the median from the repetitions.

--self-test checks the comparison on built-in inputs and exits
nonzero on any failure.

Stdlib only; no third-party dependencies.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile


UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_benchmarks(path):
    """Return {name: [real_time_ns, ...]}, one entry per repetition."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    out = {}
    for row in doc.get("benchmarks", []):
        if row.get("run_type") == "aggregate":
            continue
        name = row.get("name")
        if name is None or "real_time" not in row:
            continue
        unit = UNIT_NS.get(row.get("time_unit", "ns"), 1.0)
        out.setdefault(name, []).append(float(row["real_time"]) * unit)
    return out


def summarize(times):
    """(median, Q1, Q3) of one benchmark's repetitions."""
    if len(times) == 1:
        return times[0], times[0], times[0]
    q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return statistics.median(times), q1, q3


def compare(base, cand, threshold):
    """Rows (name, base summary, cand summary, delta %, verdict) for
    the benchmarks in both inputs; verdict is "", "inside spread" or
    "REGRESSION"."""
    rows = []
    for name in base:
        if name not in cand:
            continue
        b = summarize(base[name])
        c = summarize(cand[name])
        delta = (c[0] - b[0]) / b[0] * 100.0 if b[0] > 0 else 0.0
        spread = max(b[2] - b[1], c[2] - c[1])
        verdict = ""
        if c[0] != b[0] and abs(c[0] - b[0]) <= spread:
            verdict = "inside spread"
        elif delta > threshold:
            verdict = "REGRESSION"
        rows.append((name, b, c, delta, verdict))
    return rows


def fmt_side(summary, reps):
    median, q1, q3 = summary
    return "{:.1f}ns [{:.1f}, {:.1f}] n={}".format(median, q1, q3, reps)


def diff(base_path, cand_path, threshold):
    """Print the delta table; return the process exit code."""
    base = load_benchmarks(base_path)
    cand = load_benchmarks(cand_path)
    if not base or not cand:
        print("bench_diff: no per-repetition benchmark rows found "
              "(--benchmark_report_aggregates_only output has none)",
              file=sys.stderr)
        return 2

    rows = compare(base, cand, threshold)
    only_base = sorted(n for n in base if n not in cand)
    only_cand = sorted(n for n in cand if n not in base)

    cells = [
        (name, fmt_side(b, len(base[name])), fmt_side(c, len(cand[name])))
        for name, b, c, _, _ in rows
    ]
    width = max([len(n) for n, _, _ in cells] + [len("benchmark")])
    side = max([len(x) for _, x, y in cells for x in (x, y)] + [4])
    header = "{:<{w}}  {:>{s}}  {:>{s}}  {:>8}".format(
        "benchmark", "base median [Q1, Q3]", "cand median [Q1, Q3]",
        "delta", w=width, s=side
    )
    print(header)
    print("-" * len(header))
    for (name, b_cell, c_cell), (_, _, _, delta, verdict) in zip(cells, rows):
        print(
            "{:<{w}}  {:>{s}}  {:>{s}}  {:>+7.1f}%{}".format(
                name, b_cell, c_cell, delta,
                "  << " + verdict if verdict else "", w=width, s=side
            )
        )
    for name in only_base:
        print("{:<{w}}  {:>{s}}  {:>{s}}".format(
            name, "(removed)", "-", w=width, s=side))
    for name in only_cand:
        print("{:<{w}}  {:>{s}}  {:>{s}}".format(
            name, "-", "(new)", w=width, s=side))

    regressions = [(n, d) for n, _, _, d, v in rows if v == "REGRESSION"]
    if regressions:
        print(
            "\nbench_diff: {} benchmark(s) regressed more than {:.1f}% "
            "outside the spread:".format(len(regressions), threshold),
            file=sys.stderr,
        )
        for name, delta in regressions:
            print("  {}  +{:.1f}%".format(name, delta), file=sys.stderr)
        return 1
    print("\nbench_diff: no regression beyond {:.1f}%".format(threshold))
    return 0


def self_test():
    """Run the built-in cases; return the number of failures."""

    def doc(rows, unit="ns"):
        return {
            "context": {},
            "benchmarks": [
                {"name": name, "run_type": "iteration", "real_time": t,
                 "time_unit": unit}
                for name, times in rows.items()
                for t in times
            ],
        }

    failures = []

    def check(label, ok):
        print("self-test: {}  {}".format("ok  " if ok else "FAIL", label))
        if not ok:
            failures.append(label)

    with tempfile.TemporaryDirectory() as tmp:

        def run(base_doc, cand_doc, threshold=10.0):
            paths = []
            for tag, d in (("base", base_doc), ("cand", cand_doc)):
                paths.append(os.path.join(tmp, tag + ".json"))
                with open(paths[-1], "w", encoding="utf-8") as f:
                    json.dump(d, f)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(out):
                code = diff(paths[0], paths[1], threshold)
            rows = compare(load_benchmarks(paths[0]),
                           load_benchmarks(paths[1]), threshold)
            return code, {r[0]: r for r in rows}, out.getvalue()

        # Equal 100 ns medians whose last repetitions differ (160 vs
        # 100 ns): reading only the last row gave -37.5 % one way and a
        # gating +60 % the other.
        steady = doc({"BM_A": [95.0, 100.0, 105.0, 120.0, 100.0]})
        late_spike = doc({"BM_A": [100.0, 90.0, 100.0, 110.0, 160.0]})
        for label, b, c in (("spike in candidate", steady, late_spike),
                            ("spike in baseline", late_spike, steady)):
            code, rows, _ = run(b, c)
            check("repeated rows, " + label + ": medians compared, "
                  "no gate", code == 0 and rows["BM_A"][3] == 0.0)

        # Aggregate rows are recomputed from the repetitions, never
        # read, and each side's quartiles are printed.
        with_aggregates = doc({"BM_A": [100.0, 100.0, 100.0]})
        with_aggregates["benchmarks"].append(
            {"name": "BM_A_median", "run_type": "aggregate",
             "aggregate_name": "median", "real_time": 1e9,
             "time_unit": "ns"})
        code, rows, text = run(with_aggregates,
                               doc({"BM_A": [101.0, 99.0, 100.0]}))
        check("aggregate rows ignored",
              code == 0 and set(rows) == {"BM_A"}
              and rows["BM_A"][1] == (100.0, 100.0, 100.0))
        check("spread printed",
              "[99.5, 100.5] n=3" in text and "[100.0, 100.0] n=3" in text)

        # A slowdown clear of both spreads gates.
        tight = doc({"BM_A": [100.0, 101.0, 99.0, 100.0, 100.0]})
        slower = doc({"BM_A": [130.0, 131.0, 129.0, 130.0, 130.0]})
        code, rows, _ = run(tight, slower)
        check("regression outside the spread gates",
              code == 1 and rows["BM_A"][4] == "REGRESSION")

        # A +12 % delta past a 10 % threshold, but inside the
        # baseline's 20 ns interquartile distance: marked, no gate.
        wide = doc({"BM_A": [80.0, 100.0, 120.0, 90.0, 110.0]})
        nearby = doc({"BM_A": [112.0, 113.0, 111.0, 112.0, 112.0]})
        code, rows, text = run(wide, nearby)
        check("delta inside the spread is marked and never gates",
              code == 0 and rows["BM_A"][4] == "inside spread"
              and "<< inside spread" in text)

        # Single repetitions have no spread: the plain delta gates,
        # after the time units are reconciled (0.2 us vs 100 ns).
        code, rows, _ = run(doc({"BM_A": [0.2]}, unit="us"),
                            doc({"BM_A": [100.0]}))
        check("units converted", code == 0 and rows["BM_A"][3] == -50.0)
        code, rows, _ = run(doc({"BM_A": [100.0]}),
                            doc({"BM_A": [120.0], "BM_New": [5.0]}))
        check("single repetition gates; one-sided rows do not",
              code == 1 and set(rows) == {"BM_A"})

    print("self-test: {} failure(s)".format(len(failures)))
    return len(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?",
                        help="baseline benchmark JSON")
    parser.add_argument("candidate", nargs="?",
                        help="candidate benchmark JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help="fail when a benchmark slows down by more than PCT%% "
        "outside the spread (default: %(default)s)",
    )
    parser.add_argument("--self-test", action="store_true",
                        help="check the comparison on built-in inputs")
    args = parser.parse_args(argv)

    if args.self_test:
        return 1 if self_test() else 0
    if args.baseline is None or args.candidate is None:
        parser.error("BASELINE and CANDIDATE are required")
    return diff(args.baseline, args.candidate, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
