#!/usr/bin/env python3
"""densim-hot-effects — interprocedural hot-path effect analysis.

Statically proves the per-epoch hot loop's contract (DESIGN.md
Sec. 14): no heap allocation, no throw, no IO, no ambient entropy and
no unordered-iteration-with-escape on ANY path reachable from a
DENSIM_HOT root, not just the paths the test matrix executes.

The pass has the classic two-phase shape:

  1. **Per-TU summaries.** Each translation unit is reduced to a map
     `qualified function name -> {direct effects, outgoing calls,
     annotations}`.

  2. **Link step.** Summaries are merged into one call graph and
     effects propagate bottom-up from leaves into the hot roots
     (equivalently: a reachability walk from the roots that reports
     every unsanctioned direct effect it can reach, with the witness
     call path). Virtual calls resolve conservatively to EVERY
     override family member of the called name; calls through
     function pointers / std::function cannot be resolved at all and
     are findings in themselves unless the calling function carries a
     DENSIM_ALLOCATES sanction.

Effect lattice (a fixed product of five booleans, so the merge is a
plain set union and the fixpoint is trivially monotone):

  allocates  new/delete, malloc family, growing std containers,
             local owning-container construction
  throws     throw expressions (std::vector::at and friends are
             resolved as project methods when a project class defines
             the name — see "shadowing" below)
  io         stdio calls, std iostream globals, fstream construction
  entropy    rand/time/chrono-now/random_device/getenv — the same
             ambient sources densim-unseeded-entropy bans
  unordered  range-for over std::unordered_{map,set} whose body
             writes state that escapes the loop

Annotations (src/core/effects.hh):

  DENSIM_HOT                 root: analysis covers everything
                             reachable from here. On a virtual
                             method the whole override family roots.
  DENSIM_ALLOCATES(reason)   sanctions THIS function's direct
                             allocates effects and its indirect
                             calls; a reviewed decision, same policy
                             as the raw-double allowlist.
  DENSIM_COLD                cold endpoint (panic/fatal/diagnostics):
                             propagation stops, effects never reach
                             hot callers.

The summaries come from the shared token layer (cxx_tokens.py) with
preprocessor lines dropped first. Honesty notes (all deliberate,
documented choices):
  - Unresolved *named* calls are assumed pure: the std surface is
    carried by curated effect tables, and a closed project namespace
    means unknown names are either std or macros.
  - A member call whose name a project class defines ("shadowing",
    e.g. LeakageModel::at) resolves to the project methods only; the
    std container tables apply only to unshadowed names.
  - ALL-CAPS macro invocations are opaque (DENSIM_CHECK bodies are
    compiled out by default and must not contribute effects).
"""

import re

from cxx_tokens import (is_ident, match_brace, match_paren,
                        skip_template_args, tokenize)

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_cast", "const_cast", "reinterpret_cast", "dynamic_cast",
    "catch", "throw", "new", "delete", "else", "do", "case", "goto",
    "typeid", "decltype", "noexcept", "assert", "defined",
}

TYPE_KEYWORDS = {
    "auto", "void", "int", "long", "unsigned", "signed", "short",
    "double", "float", "bool", "char", "size_t", "uint8_t", "uint16_t",
    "uint32_t", "uint64_t", "int8_t", "int16_t", "int32_t", "int64_t",
    "ptrdiff_t", "uintptr_t", "const", "constexpr", "static", "inline",
    "virtual", "explicit", "friend", "extern", "mutable", "typename",
}

# Member calls that may grow a std container (unless the name is
# shadowed by a project method). pop_*/erase/clear never allocate.
ALLOC_METHODS = {
    "push_back", "emplace_back", "push_front", "emplace_front",
    "insert", "emplace", "emplace_hint", "resize", "reserve", "assign",
    "append", "shrink_to_fit",
}
ALLOC_FUNCS = {
    "malloc", "calloc", "realloc", "free", "aligned_alloc", "strdup",
    "make_unique", "make_shared", "to_string",
}
IO_FUNCS = {
    "printf", "fprintf", "sprintf", "snprintf", "vsnprintf", "puts",
    "fputs", "fputc", "fopen", "fclose", "fwrite", "fread", "fflush",
    "system", "remove", "rename", "perror",
}
IO_STREAMS = {"cout", "cerr", "clog", "ofstream", "ifstream", "fstream"}
ENTROPY_FUNCS = {
    "rand", "srand", "time", "clock", "gettimeofday", "timespec_get",
    "getenv",
}
ENTROPY_TYPES = {
    "random_device", "mt19937", "mt19937_64", "minstd_rand",
    "minstd_rand0", "default_random_engine", "ranlux24", "ranlux48",
    "knuth_b",
}
CLOCK_NAMES = {"steady_clock", "system_clock", "high_resolution_clock"}

# Local construction of one of these (by value) owns heap memory.
OWNING_CONTAINERS = {
    "vector", "deque", "string", "map", "set", "multimap", "multiset",
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "list", "forward_list", "function",
    "stringstream", "ostringstream", "istringstream", "priority_queue",
    "queue", "stack", "basic_string",
}

ANNOT_TOKENS = {
    "DENSIM_HOT": "hot",
    "DENSIM_COLD": "cold",
    "DENSIM_ALLOCATES": "allocates",
}

MACRO_RE = re.compile(r"[A-Z][A-Z0-9_]{2,}\Z")


def drop_preprocessor(text):
    """Preprocessor directives (with their backslash continuations)
    blanked, newlines preserved. Runs before tokenize(), so macro
    bodies and #include lines never read as code."""
    out = []
    directive = False
    for line in text.split("\n"):
        if directive or line.lstrip(" \t").startswith("#"):
            directive = line.rstrip("\r").endswith("\\")
            out.append("")
        else:
            out.append(line)
    return "\n".join(out)


# --------------------------------------------------------------------
# Per-TU summary extraction


def new_entry(rel, line):
    return {
        "file": rel,
        "line": line,
        "effects": {},   # effect -> [[line, detail], ...]
        "calls": [],     # [kind, name, line]
        "indirect": [],  # [line, ...]
        "annot": {},     # hot/cold -> True, allocates -> True
        "virtual": False,
    }


def add_effect(entry, effect, line, detail):
    entry["effects"].setdefault(effect, []).append([line, detail])


def head_annotations(head):
    out = {}
    for t in head:
        if t.text in ANNOT_TOKENS:
            out[ANNOT_TOKENS[t.text]] = True
    return out


def fn_from_head(head):
    """(name, explicit_qualifier, tail_start) of the function this
    head declares, or None if the head is not a function."""
    depth_angle = 0
    depth_round = 0
    depth_square = 0
    for k, t in enumerate(head):
        x = t.text
        if x == "<":
            depth_angle += 1
        elif x in (">", ">>"):
            depth_angle = max(0, depth_angle - (2 if x == ">>" else 1))
        elif x == "[":
            depth_square += 1
        elif x == "]":
            depth_square = max(0, depth_square - 1)
        elif x == ")":
            depth_round = max(0, depth_round - 1)
        elif x == "(":
            if depth_angle == 0 and depth_round == 0 and \
                    depth_square == 0 and k > 0 and \
                    is_ident(head[k - 1]) and \
                    head[k - 1].text not in KEYWORDS and \
                    head[k - 1].text not in TYPE_KEYWORDS and \
                    not MACRO_RE.match(head[k - 1].text):
                name = head[k - 1].text
                qual = None
                if k >= 3 and head[k - 2].text == "::" and \
                        is_ident(head[k - 3]):
                    qual = head[k - 3].text
                close = match_paren(head, k)
                return name, qual, close + 1
            depth_round += 1
    return None


FN_TAIL_OK = {"const", "noexcept", "override", "final", "mutable", "&",
              "&&", "->", "try", "(", ")"}


def head_is_function(head):
    got = fn_from_head(head)
    if got is None:
        return False
    _name, _qual, tail_start = got
    tail = head[tail_start:]
    if not tail:
        return True
    if tail[0].text == ":":  # Constructor initializer list.
        return True
    return tail[0].text in FN_TAIL_OK or is_ident(tail[0])


def fp_names_in_head(head):
    """Function-pointer / std::function parameter names declared in a
    function head: calls through them in the body are indirect."""
    names = set()
    for k in range(len(head)):
        if head[k].text == "(" and k + 4 < len(head) and \
                head[k + 1].text == "*" and is_ident(head[k + 2]) and \
                head[k + 3].text == ")" and head[k + 4].text == "(":
            names.add(head[k + 2].text)
        if head[k].text == "function" and k + 1 < len(head) and \
                head[k + 1].text == "<":
            j = skip_template_args(head, k + 1)
            while j < len(head) and head[j].text in ("&", "&&", "*",
                                                     "const"):
                j += 1
            if j != k + 1 and j < len(head) and is_ident(head[j]):
                names.add(head[j].text)
    return names


def analyze_body(body, rel, entry, fp_seed=()):
    """Scan a function body's tokens for direct effects and calls."""
    fp_names = set(fp_seed)
    n = len(body)
    i = 0
    while i < n:
        t = body[i]
        x = t.text
        nxt = body[i + 1].text if i + 1 < n else ""
        prev = body[i - 1].text if i > 0 else ""

        # ALL-CAPS macro invocation: opaque (DENSIM_CHECK and friends
        # are compiled out by default; their arguments must not
        # contribute effects).
        if MACRO_RE.match(x) and nxt == "(" and x not in ANNOT_TOKENS:
            i = match_paren(body, i + 1) + 1
            continue

        if x == "new":
            if nxt == "(":
                # Placement new targets pre-owned storage.
                i = match_paren(body, i + 1) + 1
                continue
            add_effect(entry, "allocates", t.line, "new expression")
        elif x == "delete":
            add_effect(entry, "allocates", t.line, "delete expression")
        elif x == "throw":
            add_effect(entry, "throws", t.line, "throw expression")
        elif x in ENTROPY_FUNCS and nxt == "(" and \
                prev not in (".", "->"):
            add_effect(entry, "entropy", t.line,
                       "call to {}()".format(x))
        elif x in ENTROPY_TYPES and prev not in (".", "->"):
            add_effect(entry, "entropy", t.line,
                       "std::{} engine".format(x))
        elif x in CLOCK_NAMES and nxt == "::" and i + 2 < n and \
                body[i + 2].text == "now":
            add_effect(entry, "entropy", t.line,
                       "std::chrono::{}::now()".format(x))
        elif x in IO_FUNCS and nxt == "(" and prev not in (".", "->"):
            add_effect(entry, "io", t.line, "call to {}()".format(x))
        elif x in IO_STREAMS and prev not in (".", "->"):
            add_effect(entry, "io", t.line, "std::{} use".format(x))

        # Local owning-container construction (by value, no & / *).
        if x in OWNING_CONTAINERS and prev not in (".", "->", "::") or \
                (x in OWNING_CONTAINERS and prev == "::" and i >= 2
                 and body[i - 2].text == "std"):
            j = i + 1
            if nxt == "<":
                j2 = skip_template_args(body, j)
                if j2 != j:
                    j = j2
                else:
                    j = None  # `x < y` comparison, not a template.
            elif x not in ("string", "stringstream", "ostringstream",
                           "istringstream"):
                j = None
            if j is not None and j < n:
                byref = False
                while j < n and body[j].text in ("&", "&&", "*",
                                                 "const"):
                    if body[j].text in ("&", "&&", "*"):
                        byref = True
                    j += 1
                if not byref and j < n and is_ident(body[j]) and \
                        j + 1 < n and body[j + 1].text in \
                        (";", "=", "{", "("):
                    add_effect(entry, "allocates", t.line,
                               "local std::{} construction".format(x))
                    if x == "function":
                        fp_names.add(body[j].text)

        # Function-pointer declaration or call: `(*name)(...)`.
        if x == "(" and nxt == "*" and i + 4 < n and \
                is_ident(body[i + 2]) and body[i + 3].text == ")" and \
                body[i + 4].text == "(":
            fp_names.add(body[i + 2].text)
            entry["indirect"].append(body[i + 2].line)
            i += 5
            continue

        # Calls — `name(`, including `name<T...>(` template calls.
        is_call = nxt == "("
        if not is_call and nxt == "<" and is_ident(t):
            j2 = skip_template_args(body, i + 1)
            is_call = j2 != i + 1 and j2 < n and body[j2].text == "("
        if is_ident(t) and is_call and x not in KEYWORDS and \
                x not in TYPE_KEYWORDS and not MACRO_RE.match(x):
            if x in fp_names:
                entry["indirect"].append(t.line)
            elif prev in (".", "->"):
                entry["calls"].append(["member", x, t.line])
            elif prev == "::":
                qual = body[i - 2].text if i >= 2 else ""
                if qual == "std":
                    if x in ALLOC_FUNCS:
                        add_effect(entry, "allocates", t.line,
                                   "call to std::{}()".format(x))
                    elif x in IO_FUNCS:
                        add_effect(entry, "io", t.line,
                                   "call to std::{}()".format(x))
                    elif x in ENTROPY_FUNCS:
                        add_effect(entry, "entropy", t.line,
                                   "call to std::{}()".format(x))
                elif is_ident(body[i - 2]) if i >= 2 else False:
                    entry["calls"].append(
                        ["qualified", qual + "::" + x, t.line])
            else:
                entry["calls"].append(["plain", x, t.line])

        i += 1

    detect_unordered_escape(body, entry)


def detect_unordered_escape(body, entry):
    """Range-for over an unordered container whose body writes state
    declared outside the loop — the 'unordered' lattice effect. Kept
    deliberately close to densim-nondeterministic-iteration."""
    unordered_vars = set()
    for i, t in enumerate(body):
        if t.text in ("unordered_map", "unordered_set") and \
                i + 1 < len(body) and body[i + 1].text == "<":
            j = skip_template_args(body, i + 1)
            while j < len(body) and body[j].text in ("&", "*", "const"):
                j += 1
            if j < len(body) and is_ident(body[j]):
                unordered_vars.add(body[j].text)
    i = 0
    while i < len(body):
        if body[i].text != "for" or i + 1 >= len(body) or \
                body[i + 1].text != "(":
            i += 1
            continue
        close = match_paren(body, i + 1)
        head = body[i + 2:close]
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
        if colon is None:
            i = close + 1
            continue
        range_expr = head[colon + 1:]
        over_unordered = any(
            t.text in ("unordered_map", "unordered_set")
            or t.text in unordered_vars for t in range_expr)
        if not over_unordered:
            i = close + 1
            continue
        loop_vars = {t.text for t in head[:colon]
                     if is_ident(t) and t.text not in TYPE_KEYWORDS}
        if close + 1 < len(body) and body[close + 1].text == "{":
            end = match_brace(body, close + 1)
            inner = body[close + 2:end]
        else:
            end = close + 1
            while end < len(body) and body[end].text != ";":
                end += 1
            inner = body[close + 1:end]
        wline = _writes_external(inner, loop_vars)
        if wline is not None:
            add_effect(entry, "unordered", body[i].line,
                       "unordered iteration writes escaping state "
                       "(write at line {})".format(wline))
        i = close + 1


ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "<<=", ">>="}


def _writes_external(body, loop_vars):
    locals_ = set(loop_vars)
    for i, t in enumerate(body):
        if is_ident(t):
            k = i - 1
            while k >= 0 and body[k].text in ("&", "*", "const"):
                k -= 1
            if k >= 0 and (body[k].text in TYPE_KEYWORDS
                           or body[k].text == ">"):
                locals_.add(t.text)
    for i, t in enumerate(body):
        if t.text in ASSIGN_OPS:
            for j in range(i - 1, -1, -1):
                if is_ident(body[j]):
                    if body[j].text not in locals_:
                        return body[j].line
                    break
                if body[j].text not in (".", "->", "]", ")", "::"):
                    break
    return None


def extract_summary(text, rel):
    """TU summary: every function body's direct effects and calls."""
    toks = tokenize(drop_preprocessor(text))
    funcs = {}
    scope = []  # (kind, name) with kind in {"ns", "class"}
    head_start = 0
    i = 0
    n = len(toks)
    while i < n:
        x = toks[i].text
        if x == ";":
            head = toks[head_start:i]
            _record_annotated_decl(head, funcs, scope, rel)
            head_start = i + 1
        elif x == "}":
            if scope:
                scope.pop()
            head_start = i + 1
        elif x == "{":
            head = toks[head_start:i]
            words = {t.text for t in head}
            if "namespace" in words:
                scope.append(("ns", None))
                head_start = i + 1
            elif "enum" in words:
                i = match_brace(toks, i)
                head_start = i + 1
            elif ("class" in words or "struct" in words
                  or "union" in words) and not head_is_function(head):
                scope.append(("class", _class_name(head)))
                head_start = i + 1
            elif head_is_function(head):
                got = fn_from_head(head)
                name, qual, _tail = got
                cls = qual or _innermost_class(scope)
                qname = cls + "::" + name if cls else name
                end = match_brace(toks, i)
                line = head[0].line if head else toks[i].line
                entry = funcs.setdefault(qname, new_entry(rel, line))
                entry["annot"].update(head_annotations(head))
                if "virtual" in words or "override" in words or \
                        "final" in words:
                    entry["virtual"] = True
                analyze_body(toks[i + 1:end], rel, entry,
                             fp_seed=fp_names_in_head(head))
                i = end
                head_start = i + 1
            else:
                # Initializer / braced construct we do not model:
                # consume it but KEEP accumulating the same head, so
                # a constructor's member-init braces do not truncate
                # its head.
                i = match_brace(toks, i)
        i += 1
    return {"functions": funcs}


def _class_name(head):
    for k, t in enumerate(head):
        if t.text in ("class", "struct", "union") and k + 1 < len(head):
            j = k + 1
            while j < len(head) and not is_ident(head[j]):
                j += 1
            if j < len(head):
                return head[j].text
    return None


def _innermost_class(scope):
    for kind, name in reversed(scope):
        if kind == "class":
            return name
    return None


def _record_annotated_decl(head, funcs, scope, rel):
    if not any(t.text in ANNOT_TOKENS for t in head):
        return
    if not head_is_function(head) and fn_from_head(head) is None:
        return
    got = fn_from_head(head)
    if got is None:
        return
    name, qual, _tail = got
    cls = qual or _innermost_class(scope)
    qname = cls + "::" + name if cls else name
    line = head[0].line if head else 0
    entry = funcs.setdefault(qname, new_entry(rel, line))
    entry["annot"].update(head_annotations(head))
    words = {t.text for t in head}
    if "virtual" in words or "override" in words or "final" in words:
        entry["virtual"] = True


# --------------------------------------------------------------------
# Link step: merge summaries, propagate, report


EFFECT_HUMAN = {
    "allocates": "heap allocation",
    "throws": "throw",
    "io": "IO",
    "entropy": "ambient entropy",
    "unordered": "nondeterministic unordered iteration",
}


def link_and_check(summaries):
    """Merge per-TU summaries and walk the call graph from every
    DENSIM_HOT root. Returns [(file, line, message)]."""
    funcs = {}
    for summary in summaries:
        for qname, entry in summary["functions"].items():
            cur = funcs.get(qname)
            if cur is None:
                funcs[qname] = {
                    "file": entry["file"], "line": entry["line"],
                    "effects": {k: list(v) for k, v
                                in entry["effects"].items()},
                    "calls": list(entry["calls"]),
                    "indirect": list(entry["indirect"]),
                    "annot": dict(entry["annot"]),
                    "virtual": entry["virtual"],
                }
            else:
                for k, v in entry["effects"].items():
                    cur["effects"].setdefault(k, []).extend(v)
                cur["calls"].extend(entry["calls"])
                cur["indirect"].extend(entry["indirect"])
                cur["annot"].update(entry["annot"])
                cur["virtual"] = cur["virtual"] or entry["virtual"]
                if entry["effects"] or entry["calls"]:
                    cur["file"] = entry["file"]
                    cur["line"] = entry["line"]

    methods = {}  # bare method name -> [qname]
    frees = {}    # free function name -> qname
    for qname in funcs:
        if "::" in qname:
            methods.setdefault(qname.rsplit("::", 1)[1],
                               []).append(qname)
        else:
            frees[qname] = qname
    virtual_names = {q.rsplit("::", 1)[1] for q, e in funcs.items()
                     if e["virtual"] and "::" in q}
    project_method_names = set(methods)

    roots = [q for q, e in funcs.items() if e["annot"].get("hot")]
    # A hot virtual method roots its whole override family: the call
    # through the base may land in any of them.
    family = set(roots)
    for q in roots:
        if "::" in q:
            bare = q.rsplit("::", 1)[1]
            if bare in virtual_names:
                family.update(methods.get(bare, []))
    roots = sorted(family)

    def resolve(kind, name, caller):
        if kind == "member":
            if name in virtual_names:
                return methods.get(name, [])
            return methods.get(name, [])
        if kind == "qualified":
            if name in funcs:
                return [name]
            bare = name.rsplit("::", 1)[1]
            return methods.get(bare, [])
        # plain
        if "::" in caller:
            self_q = caller.rsplit("::", 1)[0] + "::" + name
            if self_q in funcs:
                return [self_q]
        if name in frees:
            return [frees[name]]
        if name in virtual_names or name in methods:
            return methods.get(name, [])
        return []

    findings = []
    parent = {}
    visited = set()
    queue = []
    for r in roots:
        if r not in visited:
            visited.add(r)
            parent[r] = None
            queue.append(r)

    def witness(qname):
        chain = []
        cur = qname
        while cur is not None:
            chain.append(cur)
            cur = parent[cur]
        chain.reverse()
        if len(chain) == 1:
            return "hot root '{}'".format(chain[0])
        return "hot root '{}' via {}".format(
            chain[0], " -> ".join(chain[1:]))

    while queue:
        q = queue.pop(0)
        e = funcs[q]
        annot = e["annot"]
        if annot.get("cold"):
            if annot.get("hot"):
                findings.append((
                    e["file"], e["line"],
                    "'{}' is marked both DENSIM_HOT and DENSIM_COLD; "
                    "pick one".format(q)))
            continue
        sanction_alloc = annot.get("allocates", False)
        for effect, sites in sorted(e["effects"].items()):
            if effect == "allocates" and sanction_alloc:
                continue
            for line, detail in sites:
                findings.append((
                    e["file"], line,
                    "{} ({}) in '{}' is reachable from {}; sanction "
                    "it with DENSIM_ALLOCATES(reason) on '{}' if "
                    "reviewed, mark the callee DENSIM_COLD if it is "
                    "a deliberate cold path, or restructure".format(
                        EFFECT_HUMAN[effect], detail, q, witness(q),
                        q.rsplit("::", 1)[-1])))
        if not sanction_alloc:
            for line in e["indirect"]:
                findings.append((
                    e["file"], line,
                    "indirect call (function pointer / "
                    "std::function) in '{}' reachable from {} cannot "
                    "be resolved; effects unknown — annotate '{}' "
                    "with DENSIM_ALLOCATES(reason) after review or "
                    "devirtualize".format(
                        q, witness(q), q.rsplit("::", 1)[-1])))
        seen_member_alloc = set()
        for kind, name, line in e["calls"]:
            if kind == "member" and name in ALLOC_METHODS and \
                    name not in project_method_names and \
                    not sanction_alloc and \
                    (name, line) not in seen_member_alloc:
                seen_member_alloc.add((name, line))
                findings.append((
                    e["file"], line,
                    "heap allocation (std container .{}()) in '{}' "
                    "is reachable from {}; sanction it with "
                    "DENSIM_ALLOCATES(reason) on '{}' if the "
                    "container is pre-reserved, or restructure"
                    .format(name, q, witness(q),
                            q.rsplit("::", 1)[-1])))
            targets = resolve(kind, name, q)
            if not targets and kind in ("plain", "qualified"):
                bare = name.rsplit("::", 1)[-1]
                if bare in ALLOC_FUNCS and not sanction_alloc and \
                        (bare, line) not in seen_member_alloc:
                    seen_member_alloc.add((bare, line))
                    findings.append((
                        e["file"], line,
                        "heap allocation (call to {}()) in '{}' is "
                        "reachable from {}; sanction it with "
                        "DENSIM_ALLOCATES(reason) on '{}' if "
                        "reviewed, or restructure".format(
                            bare, q, witness(q),
                            q.rsplit("::", 1)[-1])))
            for target in targets:
                if target not in visited:
                    visited.add(target)
                    parent[target] = q
                    queue.append(target)

    dedup = sorted(set(findings), key=lambda f: (f[0], f[1], f[2]))
    return dedup


def analyze(files, override=None):
    """files: [(full, rel)]. override: {rel: text} replaces a file's
    content (the negative self-test strips an annotation in memory).
    Returns [(file, line, message)] findings."""
    override = override or {}
    summaries = []
    for full, rel in files:
        text = override.get(rel)
        if text is None:
            with open(full, encoding="utf-8") as fh:
                text = fh.read()
        summaries.append(extract_summary(text, rel))
    return link_and_check(summaries)
