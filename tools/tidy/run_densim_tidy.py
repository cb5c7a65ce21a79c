#!/usr/bin/env python3
"""densim determinism & lifetime analyzer.

Runs the project rules over the tree: five per-file checks plus the
interprocedural densim-hot-effects pass. Every check reads the shared
token layer (cxx_tokens.py: comments and strings stripped, bracket and
template nesting matched), so the analyzer needs only python3. The
checks:

  densim-nondeterministic-iteration
      Range-for / iterator walks over std::unordered_{map,set} in
      engine code whose body writes state outside the loop. Iteration
      order is unspecified and varies across standard libraries and
      even across runs (pointer-salted hashing), so any such write can
      break the bit-identical-across-configurations contract the
      golden tests pin. Fix: iterate a sorted snapshot, or use
      std::map/std::set.

  densim-unseeded-entropy
      Wall-clock and ambient entropy in engine code: rand/srand,
      std::random_device, time/clock/gettimeofday, std::chrono
      *_clock::now, std:: random engines, and pointer keys in ordered
      containers (address order is ASLR entropy). All randomness must
      come from an explicitly seeded densim::Rng stream; all timing
      from simulated time. The obs phase profiler's steady_clock is
      the one blessed wall-clock reader (it never feeds back into the
      model) and sits on the allowlist below.

  densim-hot-layout
      std::vector<bool> (bit-packed proxy references, no .data(), no
      vectorizable loads) and non-contiguous node containers
      (std::list / std::forward_list) in SoA hot-path code. Use
      std::vector<std::uint8_t> and flat arrays.

  densim-raw-double-boundary
      The typed-quantity boundary rule (DESIGN.md Sec. 9) on function
      *parameters*: a `double` parameter with a unit-carrying name in
      a header must be a typed quantity from core/units.hh, unless
      the reviewed allowlist (tools/lint/raw_double_allowlist.txt)
      carries it. Only a `double <name>` inside parentheses and
      followed by `,`, `)` or `=` counts, so locals and members never
      false-positive.

  densim-hot-effects
      The interprocedural pass (DESIGN.md Sec. 14, engine in
      tools/tidy/hot_effects.py): per-function summaries over the
      effect lattice {allocates, throws, io, entropy, unordered} are
      computed per TU and merged in a link step; any unsanctioned
      effect reachable from a DENSIM_HOT root (src/core/effects.hh)
      is a finding, with the witness call path. Virtual calls
      resolve to the whole override family; function-pointer calls
      are findings in themselves unless the caller carries
      DENSIM_ALLOCATES(reason).

  densim-unjustified-suppression
      DESIGN.md Sec. 13's suppression policy, enforced: a
      `// NOLINT(densim-*)` (or bare NOLINT, which suppresses every
      densim check) without a justification — prose in the same
      comment or a comment on the preceding line — is itself a
      finding. This check ignores NOLINT markers entirely: a policy
      violation cannot suppress the policy.

The token layer is not a parser. Its one documented blind spot: an
unordered container is recognised only by a declaration or alias in
the same file, so iterating a member declared in another file's class
goes unseen. src/ holds no unordered container today.

Suppression: `// NOLINT(densim-<check>)` on the flagged line or
`// NOLINTNEXTLINE(densim-<check>)` on the line above. Bare NOLINT
suppresses every densim check on that line. Every suppression is a
reviewed decision, same policy as the raw-double allowlist.

Usage:
    tools/tidy/run_densim_tidy.py [--repo DIR]
                                  [--checks a,b] [--sarif OUT.sarif]
                                  [files...]
    tools/tidy/run_densim_tidy.py --self-test
    tools/tidy/run_densim_tidy.py --list-checks

`--sarif` additionally writes the findings as a SARIF 2.1.0 run (for
GitHub code scanning).

With no file arguments the whole tree is scanned, each check over its
scope (see CHECK_SCOPES). `--self-test` runs every fixture TU in
tests/tidy_fixtures/ and asserts each known-bad file is flagged by
its check and each known-good file is clean, then strips a
DENSIM_ALLOCATES sanction from a real src file in memory and asserts
the hot-effects link fails. Exits non-zero on findings or self-test
failure.
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "lint"))
import densim_lint  # noqa: E402  (UNIT_NAME_RE / DIMENSIONLESS / allowlist)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hot_effects  # noqa: E402  (densim-hot-effects engine)
# One copy of the banned ambient sources and of the write operators:
# densim-unseeded-entropy flags what densim-hot-effects calls entropy.
from hot_effects import (ASSIGN_OPS, CLOCK_NAMES,  # noqa: E402
                         ENTROPY_FUNCS, ENTROPY_TYPES)
from cxx_tokens import (is_ident, match_brace,  # noqa: E402
                        match_paren, skip_template_args, tokenize)

ALL_CHECKS = (
    "densim-nondeterministic-iteration",
    "densim-unseeded-entropy",
    "densim-hot-layout",
    "densim-raw-double-boundary",
    "densim-hot-effects",
    "densim-unjustified-suppression",
)

RULE_DESCRIPTIONS = {
    "densim-nondeterministic-iteration":
        "Unordered-container iteration writes sim-visible state",
    "densim-unseeded-entropy":
        "Wall-clock or ambient entropy in engine code",
    "densim-hot-layout":
        "Bit-packed or node-based container in SoA hot-path code",
    "densim-raw-double-boundary":
        "Raw double with a unit-carrying name crosses a header API",
    "densim-hot-effects":
        "Unsanctioned effect reachable from a DENSIM_HOT root",
    "densim-unjustified-suppression":
        "NOLINT(densim-*) without a justification comment",
}

# Directories each check scans in a whole-tree run. Explicit file
# arguments (and the self-test fixtures) bypass the scope filter.
ENGINE_DIRS = ("src/core", "src/sched", "src/thermal", "src/power",
               "src/fault")
HOT_DIRS = ("src/core", "src/thermal", "src/sched")
CHECK_SCOPES = {
    "densim-nondeterministic-iteration": ENGINE_DIRS,
    "densim-unseeded-entropy": ENGINE_DIRS,
    "densim-hot-layout": HOT_DIRS,
    "densim-raw-double-boundary": ("src",),
    # The interprocedural link needs every function the hot roots can
    # reach, so its scope is the whole src tree.
    "densim-hot-effects": ("src",),
    "densim-unjustified-suppression": ("src",),
}

# densim-hot-effects is a whole-program link, not a per-file scan; the
# per-file loops below exclude it and scan()/run_tree() run the link
# once over the full file list.
INTERPROCEDURAL_CHECKS = {"densim-hot-effects"}

# Blessed entropy readers (path prefixes, repo-relative): the seeded
# RNG streams themselves and the obs wall-clock phase timers, which
# only ever *observe* the simulation (DESIGN.md Sec. 10).
ENTROPY_ALLOW_PREFIXES = (
    "src/util/rng.",
    "src/obs/phase_profiler.",
)

MUTATING_CALLS = {"push_back", "emplace_back", "push_front",
                  "emplace_front", "insert", "emplace", "erase",
                  "clear", "pop_back", "pop_front", "resize", "assign",
                  "add", "inc", "store", "reset"}
TYPE_KEYWORDS = {"auto", "int", "long", "unsigned", "signed", "short",
                 "double", "float", "bool", "char", "size_t",
                 "uint8_t", "uint16_t", "uint32_t", "uint64_t",
                 "int8_t", "int16_t", "int32_t", "int64_t",
                 "ptrdiff_t", "uintptr_t"}


class Finding:
    def __init__(self, check, path, line, message):
        self.check = check
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return "{}:{}: [{}] {}".format(self.path, self.line, self.check,
                                       self.message)


# --------------------------------------------------------------------
# NOLINT suppression

NOLINT_RE = re.compile(
    r"//\s*NOLINT(NEXTLINE)?(?:\(([^)]*)\))?")


def nolint_lines(text):
    """Map line number -> set of suppressed check names ('*' = all)."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = NOLINT_RE.search(line)
        if not m:
            continue
        target = lineno + 1 if m.group(1) else lineno
        checks = out.setdefault(target, set())
        if m.group(2):
            checks.update(c.strip() for c in m.group(2).split(","))
        else:
            checks.add("*")
    return out


def suppressed(finding, nolint):
    checks = nolint.get(finding.line)
    return bool(checks) and ("*" in checks or finding.check in checks)


# --------------------------------------------------------------------
# densim-unjustified-suppression (text-based; DESIGN §13's "every
# suppression is a reviewed decision", enforced)

def _has_prose(s):
    """At least two real words beyond the NOLINT machinery itself."""
    words = [w for w in re.findall(r"[A-Za-z]{2,}", s)
             if w not in ("NOLINT", "NOLINTNEXTLINE", "densim")]
    return len(words) >= 2


def check_unjustified_suppression(text, rel):
    findings = []
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        m = NOLINT_RE.search(line)
        if not m:
            continue
        targets = [c.strip() for c in (m.group(2) or "").split(",")
                   if c.strip()]
        if targets and not any(t.startswith("densim-") or t == "*"
                               for t in targets):
            continue  # Suppresses only non-densim checks — not ours.
        cpos = line.find("//")
        comment = line[cpos:] if cpos >= 0 else line
        justified = _has_prose(comment.replace(m.group(0), " "))
        if not justified and lineno >= 2:
            prev = lines[lineno - 2].strip()
            if prev.startswith(("//", "*", "/*")) and \
                    "NOLINT" not in prev and _has_prose(prev):
                justified = True
        if not justified:
            findings.append(Finding(
                "densim-unjustified-suppression", rel, lineno,
                "NOLINT suppression of a densim check without a "
                "justification; add the why in the same comment or on "
                "the preceding line — every suppression is a reviewed "
                "decision (DESIGN.md Sec. 13)"))
    return findings


# --------------------------------------------------------------------
# densim-hot-effects bridge (engine in hot_effects.py)

def hot_effects_findings(repo, files, override=None):
    """Run the interprocedural link over `files` [(full, rel)] and
    return NOLINT-filtered Finding objects."""
    raw = hot_effects.analyze(files, override=override)
    findings = []
    nolint_by_file = {}
    for rel, line, message in raw:
        f = Finding("densim-hot-effects", rel, line, message)
        nolint = nolint_by_file.get(rel)
        if nolint is None:
            try:
                with open(os.path.join(repo, rel),
                          encoding="utf-8") as fh:
                    nolint = nolint_lines(fh.read())
            except OSError:
                nolint = {}
            nolint_by_file[rel] = nolint
        if not suppressed(f, nolint):
            findings.append(f)
    return findings


# --------------------------------------------------------------------
# The per-file checks over the token stream


def unordered_names(toks):
    """Names (variables and aliases) declared with an unordered type."""
    names, aliases = set(), set()
    for i, t in enumerate(toks):
        if t.text == "using" and i + 2 < len(toks) and \
                toks[i + 2].text == "=":
            j = i + 3
            end = j
            while end < len(toks) and toks[end].text != ";":
                end += 1
            if any(x.text in ("unordered_map", "unordered_set")
                   or x.text in aliases
                   for x in toks[j:end]):
                aliases.add(toks[i + 1].text)
        if t.text in ("unordered_map", "unordered_set") or \
                t.text in aliases:
            j = i + 1
            if j < len(toks) and toks[j].text == "<":
                j = skip_template_args(toks, j)
            while j < len(toks) and toks[j].text in ("&", "*", "const"):
                j += 1
            if j < len(toks) and is_ident(toks[j]) and (
                    j + 1 >= len(toks)
                    or toks[j + 1].text in (";", "=", "{", ",", ")")):
                names.add(toks[j].text)
    return names, aliases


def body_local_names(body):
    """Names declared inside a loop body (declaration heuristics)."""
    locals_ = set()
    for i, t in enumerate(body):
        if not is_ident(t):
            continue
        k = i - 1
        while k >= 0 and body[k].text in ("&", "*", "const"):
            k -= 1
        if k >= 0 and (body[k].text in TYPE_KEYWORDS
                       or body[k].text == ">"):
            nxt = body[i + 1].text if i + 1 < len(body) else ";"
            if nxt in ("=", ";", "{", "(", ",", ")"):
                locals_.add(t.text)
    return locals_


def write_base(body, i):
    """Base identifier of the lvalue chain ending before body[i]."""
    k = i - 1
    while k >= 0:
        t = body[k].text
        if t == "]":
            depth = 0
            while k >= 0:
                if body[k].text == "]":
                    depth += 1
                elif body[k].text == "[":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            k -= 1
        elif t == ")":
            depth = 0
            while k >= 0:
                if body[k].text == ")":
                    depth += 1
                elif body[k].text == "(":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            k -= 1
        elif t in TYPE_KEYWORDS or t == "const":
            break  # `const bool hot = ...` — chain starts after type.
        elif is_ident(body[k]) or t in (".", "->", "::", "*"):
            k -= 1
        else:
            break
    # First identifier after position k is the chain base.
    for j in range(k + 1, i):
        if is_ident(body[j]):
            return body[j].text
    return None


def body_writes_external(body, loop_vars):
    """Line of the first write to state declared outside the body."""
    locals_ = body_local_names(body) | set(loop_vars)
    for i, t in enumerate(body):
        base = None
        if t.text in ASSIGN_OPS:
            base = write_base(body, i)
        elif t.text in ("++", "--"):
            if i + 1 < len(body) and is_ident(body[i + 1]):
                base = body[i + 1].text
            else:
                base = write_base(body, i)
        elif t.text in (".", "->") and i + 2 < len(body) and \
                body[i + 1].text in MUTATING_CALLS and \
                body[i + 2].text == "(":
            base = write_base(body, i)
        if base is None:
            continue
        if base == "this":
            return body[i].line
        if base not in locals_:
            return body[i].line
    return None


def check_nondeterministic_iteration(toks, path):
    findings = []
    unordered, aliases = unordered_names(toks)
    i = 0
    while i < len(toks):
        if toks[i].text != "for":
            i += 1
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            i += 1
            continue
        close = match_paren(toks, i + 1)
        head = toks[i + 2:close]
        # Range-for: a ':' at top nesting level inside the head.
        colon = None
        depth = 0
        for k, t in enumerate(head):
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif t.text == ":" and depth == 0:
                colon = k
                break
        over_unordered = False
        loop_vars = []
        if colon is not None:
            range_expr = head[colon + 1:]
            over_unordered = any(
                t.text in ("unordered_map", "unordered_set")
                or t.text in unordered or t.text in aliases
                for t in range_expr)
            loop_vars = [t.text for t in head[:colon]
                         if is_ident(t) and t.text not in TYPE_KEYWORDS]
        else:
            # Classic for: iterator walk `for (auto it = c.begin(); ...`
            for k, t in enumerate(head):
                if t.text == "begin" and k >= 2 and \
                        head[k - 1].text in (".", "->") and \
                        head[k - 2].text in unordered:
                    over_unordered = True
            loop_vars = [t.text for t in head
                         if is_ident(t) and t.text not in TYPE_KEYWORDS]
        if not over_unordered:
            i = close + 1
            continue
        if close + 1 < len(toks) and toks[close + 1].text == "{":
            body_end = match_brace(toks, close + 1)
            body = toks[close + 2:body_end]
        else:
            body_end = close + 1
            while body_end < len(toks) and \
                    toks[body_end].text != ";":
                body_end += 1
            body = toks[close + 1:body_end]
        wline = body_writes_external(body, loop_vars)
        if wline is not None:
            findings.append(Finding(
                "densim-nondeterministic-iteration", path, toks[i].line,
                "iteration over an unordered container writes "
                "sim-visible state (write at line {}); iteration order "
                "is unspecified — iterate a sorted snapshot or use "
                "std::map/std::set".format(wline)))
        i = close + 1
    return findings


def check_unseeded_entropy(toks, path):
    findings = []
    for i, t in enumerate(toks):
        prev = toks[i - 1].text if i > 0 else ""
        nxt = toks[i + 1].text if i + 1 < len(toks) else ""
        qualified_std = prev == "::" and i >= 2 and \
            toks[i - 2].text == "std"
        plain = prev not in (".", "->", "::")
        if t.text in ENTROPY_FUNCS and nxt == "(" and \
                (plain or qualified_std):
            findings.append(Finding(
                "densim-unseeded-entropy", path, t.line,
                "call to {}() draws wall-clock/ambient entropy; use a "
                "seeded densim::Rng stream or simulated time".format(
                    t.text)))
        elif t.text in ENTROPY_TYPES and (plain or qualified_std):
            findings.append(Finding(
                "densim-unseeded-entropy", path, t.line,
                "std::{} is banned in engine code; all randomness "
                "flows through explicitly seeded densim::Rng "
                "streams".format(t.text)))
        elif t.text in CLOCK_NAMES and nxt == "::" and \
                i + 2 < len(toks) and toks[i + 2].text == "now":
            findings.append(Finding(
                "densim-unseeded-entropy", path, t.line,
                "std::chrono::{}::now() reads the wall clock inside "
                "engine code; simulation time must come from the "
                "event loop".format(t.text)))
        elif t.text in ("map", "set") and qualified_std and nxt == "<":
            end = skip_template_args(toks, i + 1)
            arg = toks[i + 2:end - 1]
            depth = 0
            first_arg = []
            for a in arg:
                if a.text == "<":
                    depth += 1
                elif a.text in (">", ">>"):
                    depth -= 1 if a.text == ">" else 2
                elif a.text == "," and depth == 0:
                    break
                first_arg.append(a)
            if any(a.text == "*" for a in first_arg):
                findings.append(Finding(
                    "densim-unseeded-entropy", path, t.line,
                    "pointer key in an ordered container: address "
                    "order is allocation (ASLR) entropy and varies "
                    "run to run; key on a stable id instead"))
    return findings


def check_hot_layout(toks, path):
    findings = []
    for i, t in enumerate(toks):
        if t.text == "vector" and i + 3 < len(toks) and \
                toks[i + 1].text == "<" and \
                toks[i + 2].text == "bool" and \
                toks[i + 3].text in (">", ">>"):
            findings.append(Finding(
                "densim-hot-layout", path, t.line,
                "std::vector<bool> is a bit-packed proxy container "
                "(no .data(), no vectorizable loads); hot-path flags "
                "use std::vector<std::uint8_t> (DESIGN.md Sec. 12)"))
        elif t.text in ("list", "forward_list") and i >= 2 and \
                toks[i - 1].text == "::" and \
                toks[i - 2].text == "std" and \
                i + 1 < len(toks) and toks[i + 1].text == "<":
            findings.append(Finding(
                "densim-hot-layout", path, t.line,
                "std::{} is a non-contiguous node container; SoA "
                "hot-path state must live in flat arrays".format(
                    t.text)))
    return findings


def check_raw_double_boundary(toks, path, allow):
    if not path.endswith(".hh"):
        return []
    findings = []
    paren = 0
    for i, t in enumerate(toks):
        if t.text == "(":
            paren += 1
        elif t.text == ")":
            paren -= 1
        if t.text != "double" or paren <= 0:
            continue
        prev = toks[i - 1].text if i > 0 else ""
        if prev == "<":  # template argument, e.g. vector<double>
            continue
        if i + 1 >= len(toks) or not is_ident(toks[i + 1]):
            continue
        name = toks[i + 1].text
        after = toks[i + 2].text if i + 2 < len(toks) else ""
        if after not in (",", ")", "="):
            continue
        if name in densim_lint.DIMENSIONLESS:
            continue
        if not densim_lint.UNIT_NAME_RE.match(name):
            continue
        if "{}:{}".format(path, name) in allow:
            continue
        findings.append(Finding(
            "densim-raw-double-boundary", path, t.line,
            "raw `double {}` parameter crosses a header API boundary; "
            "use a typed quantity from core/units.hh or add "
            "'{}:{}' to tools/lint/raw_double_allowlist.txt with a "
            "review".format(name, path, name)))
    return findings


def check_file(path, rel, checks, allow):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    toks = tokenize(text)
    nolint = nolint_lines(text)
    findings = []
    if "densim-nondeterministic-iteration" in checks:
        findings += check_nondeterministic_iteration(toks, rel)
    if "densim-unseeded-entropy" in checks and \
            not rel.startswith(ENTROPY_ALLOW_PREFIXES):
        findings += check_unseeded_entropy(toks, rel)
    if "densim-hot-layout" in checks:
        findings += check_hot_layout(toks, rel)
    if "densim-raw-double-boundary" in checks:
        findings += check_raw_double_boundary(toks, rel, allow)
    findings = [f for f in findings if not suppressed(f, nolint)]
    # Appended after the NOLINT filter: a suppression-policy violation
    # cannot suppress the policy check.
    if "densim-unjustified-suppression" in checks:
        findings += check_unjustified_suppression(text, rel)
    return findings


# --------------------------------------------------------------------
# Driver

def tree_files(repo, check):
    out = []
    for scope in CHECK_SCOPES[check]:
        root = os.path.join(repo, scope)
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in sorted(filenames):
                if name.endswith((".cc", ".hh")):
                    full = os.path.join(dirpath, name)
                    rel = os.path.relpath(full, repo).replace(
                        os.sep, "/")
                    out.append((full, rel))
    return out


def scan(repo, files, checks):
    """Run `checks` over `files` [(full, rel)]; return findings."""
    allow = densim_lint.load_allowlist(repo)
    per_file_checks = checks - INTERPROCEDURAL_CHECKS
    findings = []
    if per_file_checks:
        for full, rel in files:
            findings += check_file(full, rel, per_file_checks, allow)
    if "densim-hot-effects" in checks:
        findings += hot_effects_findings(repo, files)
    return findings


def run_tree(repo, checks):
    per_file = {}
    for check in checks:
        if check in INTERPROCEDURAL_CHECKS:
            continue
        for full, rel in tree_files(repo, check):
            per_file.setdefault((full, rel), set()).add(check)
    allow = densim_lint.load_allowlist(repo)
    findings = []
    for (full, rel), file_checks in sorted(per_file.items()):
        findings += check_file(full, rel, file_checks, allow)
    if "densim-hot-effects" in checks:
        findings += hot_effects_findings(
            repo, tree_files(repo, "densim-hot-effects"))
    return findings


# --------------------------------------------------------------------
# SARIF 2.1.0 output (GitHub code scanning)

def sarif_report(findings, repo):
    rules = []
    for check in ALL_CHECKS:
        rules.append({
            "id": check,
            "shortDescription": {"text": RULE_DESCRIPTIONS[check]},
            "defaultConfiguration": {"level": "error"},
        })
    results = []
    for f in findings:
        results.append({
            "ruleId": f.check,
            "ruleIndex": ALL_CHECKS.index(f.check),
            "level": "error",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": f.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {"startLine": max(1, int(f.line))},
                },
            }],
        })
    return {
        "$schema": "https://docs.oasis-open.org/sarif/sarif/v2.1.0/"
                   "os/schemas/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "densim-tidy",
                    "informationUri":
                        "https://example.invalid/densim/tools/tidy",
                    "rules": rules,
                },
            },
            "originalUriBaseIds": {
                "SRCROOT": {"uri": "file://" + repo.rstrip("/") + "/"},
            },
            "results": results,
        }],
    }


def validate_sarif(doc):
    """Structural sanity of the emitted SARIF (used by check.sh)."""
    assert doc["version"] == "2.1.0"
    assert isinstance(doc["runs"], list) and doc["runs"]
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "densim-tidy"
    rule_ids = {r["id"] for r in driver["rules"]}
    for res in run["results"]:
        assert res["ruleId"] in rule_ids
        loc = res["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"]
        assert loc["region"]["startLine"] >= 1
        assert res["message"]["text"]
    return True


# --------------------------------------------------------------------
# Self-test over the fixture TUs

FIXTURE_CHECKS = {
    "nondeterministic_iteration": "densim-nondeterministic-iteration",
    "unseeded_entropy": "densim-unseeded-entropy",
    "hot_layout": "densim-hot-layout",
    "raw_double_boundary": "densim-raw-double-boundary",
    "hot_effects": "densim-hot-effects",
    "unjustified_suppression": "densim-unjustified-suppression",
}

# The reason string may wrap across lines as adjacent literals, so
# match one-or-more quoted pieces inside the macro parens.
HOT_MUTATION_RE = re.compile(
    r"DENSIM_ALLOCATES\s*\(\s*(?:\"[^\"]*\"\s*)+\)")


def hot_effects_negative_test(repo):
    """The gate must FAIL when a DENSIM_ALLOCATES sanction is deleted
    from a known allocating path: strip every DENSIM_ALLOCATES from a
    real src file (in memory) and assert the whole-tree link reports
    findings. Returns the number of failures (0 or 1)."""
    files = tree_files(repo, "densim-hot-effects")
    candidates = []
    for full, rel in files:
        if rel.endswith("core/effects.hh"):
            continue  # The macro definitions, not a use.
        try:
            with open(full, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            continue
        if HOT_MUTATION_RE.search(text):
            candidates.append((rel, text))
    if not candidates:
        print("run_densim_tidy: SELF-TEST FAILED — no src file carries "
              "a DENSIM_ALLOCATES sanction to mutate")
        return 1
    for rel, text in candidates:
        mutated = HOT_MUTATION_RE.sub("", text)
        got = hot_effects_findings(repo, files, override={rel: mutated})
        if got:
            print("run_densim_tidy: negative self-test passed — "
                  "stripping DENSIM_ALLOCATES from {} produced {} "
                  "hot-effects finding(s)".format(rel, len(got)))
            return 0
    print("run_densim_tidy: SELF-TEST FAILED — stripping every "
          "DENSIM_ALLOCATES sanction (tried {} file(s)) produced no "
          "findings; the hot-effects gate is not actually gating"
          .format(len(candidates)))
    return 1


def self_test(repo):
    fixdir = os.path.join(repo, "tests", "tidy_fixtures")
    if not os.path.isdir(fixdir):
        print("run_densim_tidy: SELF-TEST FAILED — fixture directory "
              "{} is missing".format(fixdir))
        return 1
    failures = 0
    for stem, check in sorted(FIXTURE_CHECKS.items()):
        for flavor in ("bad", "good"):
            matches = [n for n in sorted(os.listdir(fixdir))
                       if n.startswith("{}_{}".format(stem, flavor))]
            if not matches:
                print("run_densim_tidy: SELF-TEST FAILED — no {}_{} "
                      "fixture".format(stem, flavor))
                failures += 1
                continue
            for name in matches:
                full = os.path.join(fixdir, name)
                rel = "tests/tidy_fixtures/" + name
                got = scan(repo, [(full, rel)], set(ALL_CHECKS))
                hits = [f for f in got if f.check == check]
                if flavor == "bad" and not hits:
                    print("run_densim_tidy: SELF-TEST FAILED — "
                          "known-bad fixture {} was NOT flagged by {}"
                          .format(name, check))
                    failures += 1
                elif flavor == "good" and hits:
                    print("run_densim_tidy: SELF-TEST FAILED — "
                          "known-good fixture {} was flagged:"
                          .format(name))
                    for f in hits:
                        print("    {}".format(f))
                    failures += 1
    if os.path.isfile(os.path.join(repo, "src", "core", "effects.hh")):
        failures += hot_effects_negative_test(repo)
    if failures == 0:
        print("run_densim_tidy: self-test passed — every known-bad "
              "fixture flagged, every known-good fixture clean")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="densim determinism & lifetime analyzer")
    parser.add_argument("--repo", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    parser.add_argument("--checks", default=",".join(ALL_CHECKS),
                        help="comma-separated subset of checks")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--sarif", metavar="OUT",
                        help="also write findings as SARIF 2.1.0")
    parser.add_argument("files", nargs="*",
                        help="specific files (default: tree scope scan)")
    args = parser.parse_args()

    if args.list_checks:
        for check in ALL_CHECKS:
            print(check)
        return 0

    repo = os.path.abspath(args.repo)
    if args.self_test:
        return self_test(repo)

    checks = set()
    for name in args.checks.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in ALL_CHECKS:
            print("run_densim_tidy: unknown check '{}'".format(name),
                  file=sys.stderr)
            return 2
        checks.add(name)

    if args.files:
        files = [(os.path.abspath(f),
                  os.path.relpath(os.path.abspath(f), repo).replace(
                      os.sep, "/"))
                 for f in args.files]
        findings = scan(repo, files, checks)
    else:
        findings = run_tree(repo, checks)

    if args.sarif:
        doc = sarif_report(findings, repo)
        validate_sarif(doc)
        with open(args.sarif, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        print("run_densim_tidy: SARIF written to {}".format(
            args.sarif))

    for f in findings:
        print(f)
    if findings:
        print("run_densim_tidy: {} finding(s)".format(len(findings)),
              file=sys.stderr)
        return 1
    print("run_densim_tidy: clean ({} checks)".format(len(checks)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
