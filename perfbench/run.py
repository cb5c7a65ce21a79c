#!/usr/bin/env python3
"""Build and run the densim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   (every workload in turn)
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds
perfbench/ (which compiles densim's src/ tree) into .bench_build/;
later runs only bring that build up to date. A run prints host diagnostics,
a metric table and, as its last line, one JSON object with the keys
correct, attempted, failed and metrics. perfbench/README.md describes
the workloads, the metrics and how host time is estimated.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "densbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure, then bring the binary up to date; True on success."""
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "densbench"]]
    # Keep compiler temporaries inside the checkout too.
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    (BUILD / "tmp").mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, env=env,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as err:
                print(f"run.py: {cmd[0]} failed: {err}", file=sys.stderr)
                return False
            if done.returncode != 0:
                print(f"run.py: {' '.join(cmd)} exited "
                      f"{done.returncode}", file=sys.stderr)
                return False
    return True


def bench(args, capture=False):
    """Run the binary; returns (exit code, stdout, stderr)."""
    try:
        done = subprocess.run([str(BINARY)] + args, text=True,
                              capture_output=capture,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1, "", ""
    return done.returncode, done.stdout or "", done.stderr or ""


def result_of(stdout):
    """The JSON object on the last line of @p stdout, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def selftest():
    """Run every workload at a tiny horizon and prove each check fires."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    tiny = {"cp_load70": "0.3", "cf_load30": "0.3", "fleet16_rr": "0.2"}
    if sorted(tiny) != sorted(w["name"] for w in spec["workloads"]):
        print("selftest: BENCHMARK.json workloads differ from the "
              "self-test's", file=sys.stderr)
        return 1
    failures = []

    def run(workload, trace, *extra):
        return bench(["--workload", workload, "--seed", "7",
                      "--seconds", "0.3", "--trace", str(trace),
                      "--horizon", tiny[workload]] + list(extra),
                     capture=True)

    def case(name, ok, detail=""):
        print(f"selftest: {'ok  ' if ok else 'FAIL'} {name} {detail}")
        if not ok:
            failures.append(name)

    counts = {}
    for workload in tiny:
        for trace in (0, 1):
            code, out, err = run(workload, trace)
            res = result_of(out)
            got = {k: v["unit"] for k, v in (res or {}).get(
                "metrics", {}).items()}
            case(f"{workload} trace={trace} names and units",
                 code == 0 and res is not None and res["correct"]
                 and got == expected[trace],
                 "" if got == expected[trace] else
                 f"missing {sorted(set(expected[trace]) - set(got))} "
                 f"extra {sorted(set(got) - set(expected[trace]))} "
                 f"exit {code} {err.strip()[-200:]}")
            if trace == 1 and res is not None:
                counts[workload] = res["metrics"]

    count_names = ["core.epochs", "core.jobs", "core.decisions",
                   "sched.picks_per_epoch",
                   "power.dvfs_searches_per_epoch", "fleet.windows"]
    for workload, first in counts.items():
        code, out, _ = run(workload, 1)
        again = (result_of(out) or {}).get("metrics", {})
        same = all(again.get(n, {}).get("value") == first[n]["value"]
                   for n in count_names)
        case(f"{workload} counts repeat for one seed", code == 0 and same)

    for workload, check, trace in [("cf_load30", "oneshot", 0),
                                   ("cf_load30", "repeat", 0),
                                   ("cf_load30", "resume", 0),
                                   ("fleet16_rr", "repeat", 0),
                                   ("fleet16_rr", "resume", 0),
                                   ("fleet16_rr", "workers", 1)]:
        code, out, err = run(workload, trace, "--perturb", check)
        res = result_of(out)
        case(f"{workload} check '{check}' fires on a perturbed digest",
             code == 1 and res is not None and not res["correct"]
             and res["failed"] >= 1
             and f"output check '{check}' failed" in err)

    code, out, err = run("fleet16_rr", 0, "--dispatcher", "headroom")
    case("backlog guard refuses the headroom dispatcher",
         code == 3 and result_of(out) is None and "backlog guard" in err,
         err.strip()[-200:])

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    if not build():
        return 1
    if args.selftest:
        return selftest()
    workloads = [args.workload]
    if args.workload == "all":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
    worst = 0
    for workload in workloads:
        code, _, _ = bench([
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spans", str(BUILD / "spans" / f"{workload}.csv")])
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
