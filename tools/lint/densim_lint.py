#!/usr/bin/env python3
"""densim custom lint: header self-containment.

Every header in src/ must compile on its own with only its own
#includes — no include-order luck. Checked with `g++ -fsyntax-only`
when a compiler is available.

The raw-double boundary scan lives in the parameter-aware
densim-raw-double-boundary check of tools/tidy/run_densim_tidy.py
(DESIGN.md Sec. 13): a regex could not tell a function parameter from
a header-local variable, so its allowlist carried entries for
non-findings. This module still owns
the shared vocabulary — UNIT_NAME_RE, DIMENSIONLESS and the reviewed
allowlist loader — which the tidy driver imports so both gates agree
on what a unit-carrying name is.

Usage:
    tools/lint/densim_lint.py [--repo DIR] [--skip-selfcontain]
    tools/lint/densim_lint.py --self-test

Exits non-zero on any finding. `--self-test` seeds a synthetic
non-self-contained header and verifies the gate flags it (the lint
gate's own lint).
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile

# Parameter names that denote a dimensioned physical quantity. A raw
# `double` parameter matching one of these in a header is a finding
# (enforced by densim-raw-double-boundary in tools/tidy, which
# imports this table).
UNIT_NAME_RE = re.compile(
    r"""(?x)
    ^(
        .*(_c|_k|_w|_j|_cfm|_m3s|_kpw|_jpk)$   # unit suffixes
      | .*(celsius|kelvin|watt|joule|cfm)$     # spelled-out units
      | (t|temp|temperature)(_.*)?             # t, temp_*, ...
      | .*(ambient|inlet|entry)(_c)?$          # temperature roles
      | .*(power|leak|heat|energy)(_w|_j)?$    # power/energy roles
      | .*(air)?flow$                          # airflow roles
      | .*(rise|delta_t)$                      # temperature deltas
      | (r_int|r_ext|theta|kappa.*|resistance) # thermal resistances
    )$
    """
)

# Parameter names that merely *sound* physical but are dimensionless
# by design; never flagged.
DIMENSIONLESS = {
    "frac",
    "fraction",
    "scale",
    "slope_per_c",
    "gated_frac_tdp",
    "frac_at_ref",
    "hot_fraction",
    "leakage_frac",
    "quant",
    "quant_c",
}

SELFCONTAIN_DIRS = (
    "src/airflow",
    "src/ckpt",
    "src/core",
    "src/fault",
    "src/fleet",
    "src/obs",
    "src/power",
    "src/sched",
    "src/server",
    "src/survey",
    "src/thermal",
    "src/util",
    "src/workload",
)


def load_allowlist(repo):
    allow = set()
    path = os.path.join(repo, "tools", "lint", "raw_double_allowlist.txt")
    if not os.path.exists(path):
        return allow
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                allow.add(line)
    return allow


def headers_under(repo, subdir):
    root = os.path.join(repo, subdir)
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(".hh"):
                full = os.path.join(dirpath, name)
                yield full, os.path.relpath(full, repo)


def check_self_contained(repo):
    compiler = shutil.which("g++") or shutil.which("c++")
    if compiler is None:
        print("densim_lint: no C++ compiler found — skipping header "
              "self-containment check", file=sys.stderr)
        return 0
    failures = 0
    for subdir in SELFCONTAIN_DIRS:
        for full, rel in headers_under(repo, subdir):
            cmd = [
                compiler,
                "-std=c++20",
                "-fsyntax-only",
                "-x",
                "c++",
                "-I",
                os.path.join(repo, "src"),
                full,
            ]
            proc = subprocess.run(
                cmd, capture_output=True, text=True, check=False
            )
            if proc.returncode != 0:
                failures += 1
                print(
                    "densim_lint: {} is not self-contained:\n{}".format(
                        rel, proc.stderr.strip()
                    )
                )
    return failures


SELF_TEST_HEADER = """\
#ifndef DENSIM_LINT_SELF_TEST_HH
#define DENSIM_LINT_SELF_TEST_HH
namespace densim {
// Seeded regression: uses std::size_t without including <cstddef>,
// so the header only compiles by include-order luck.
inline std::size_t seededCount() { return 0; }
}
#endif
"""


def self_test():
    if shutil.which("g++") is None and shutil.which("c++") is None:
        print("densim_lint: SELF-TEST SKIPPED — no C++ compiler on "
              "PATH for the self-containment probe", file=sys.stderr)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        os.makedirs(os.path.join(tmp, "src", "core"))
        seeded = os.path.join(tmp, "src", "core", "seeded.hh")
        with open(seeded, "w", encoding="utf-8") as fh:
            fh.write(SELF_TEST_HEADER)
        if check_self_contained(tmp) == 0:
            print("densim_lint: SELF-TEST FAILED — seeded "
                  "non-self-contained header was not detected")
            return 1
        # And a fixed header must pass.
        with open(seeded, "w", encoding="utf-8") as fh:
            fh.write(SELF_TEST_HEADER.replace(
                "namespace densim {",
                "#include <cstddef>\nnamespace densim {"))
        if check_self_contained(tmp) != 0:
            print("densim_lint: SELF-TEST FAILED — self-contained "
                  "header was still flagged")
            return 1
    print("densim_lint: self-test passed "
          "(seeded include-order regression detected)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repo",
        default=os.path.join(os.path.dirname(__file__), "..", ".."),
        help="repository root (default: two levels up)",
    )
    parser.add_argument(
        "--skip-selfcontain",
        action="store_true",
        help="skip the per-header -fsyntax-only compile check",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the scanner catches a seeded regression",
    )
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())

    repo = os.path.abspath(args.repo)
    failures = 0
    if not args.skip_selfcontain:
        failures += check_self_contained(repo)
    if failures:
        print(
            "densim_lint: {} finding(s)".format(failures),
            file=sys.stderr,
        )
        sys.exit(1)
    print("densim_lint: clean")


if __name__ == "__main__":
    main()
