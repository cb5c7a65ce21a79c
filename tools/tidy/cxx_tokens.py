"""C++ token layer shared by the densim analyzer's per-file checks
(run_densim_tidy.py) and its hot-effects pass (hot_effects.py).

Not a parser: comments and string/char literals (raw strings
included) are blanked with their newlines kept, so every token carries
its true source line, and what is left is split by one regex. The
helpers below match brackets and template argument lists over the
resulting token list.
"""

import re

TOKEN_RE = re.compile(r"""
      [A-Za-z_][A-Za-z0-9_]*
    | 0[xX][0-9a-fA-F'.pP+-]+ | \.?\d[\d'.eEpPfFuUlL+-]*
    | <<= | >>= | ->\* | \.\.\. | :: | -> | \+\+ | -- | << | >>
    | <= | >= | == | != | && | \|\| | [+\-*/%&|^!=]=
    | [{}()\[\];:,<>.?~!+\-*/%&|^=]
""", re.X)

IDENT_RE = re.compile(r"[A-Za-z_]")


class Tok:
    __slots__ = ("text", "line")

    def __init__(self, text, line):
        self.text = text
        self.line = line

    def __repr__(self):
        return "Tok({!r}@{})".format(self.text, self.line)


def strip_comments_strings(text):
    """Comments and string/char literals removed, newlines preserved
    (so token lines stay true)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        two = text[i:i + 2]
        if two == "//":
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif two == "/*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == '"':
            if text[i - 1:i] == "R":
                # Raw string: R"delim( ... )delim", quotes inside.
                m = re.match(r'"([^(]*)\(', text[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    j = text.find(close, i)
                    j = n if j < 0 else j + len(close)
                    out.append("\n" * text.count("\n", i, j))
                    i = j
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            i = j + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def tokenize(text):
    clean = strip_comments_strings(text)
    toks = []
    line = 1
    pos = 0
    for m in TOKEN_RE.finditer(clean):
        line += clean.count("\n", pos, m.start())
        pos = m.start()
        toks.append(Tok(m.group(0), line))
    return toks


def is_ident(tok):
    return tok is not None and bool(IDENT_RE.match(tok.text))


def match_paren(toks, i):
    """toks[i] == '(': index of the matching ')'."""
    depth = 0
    while i < len(toks):
        if toks[i].text == "(":
            depth += 1
        elif toks[i].text == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks) - 1


def match_brace(toks, i):
    """toks[i] == '{': index of the matching '}'."""
    depth = 0
    while i < len(toks):
        if toks[i].text == "{":
            depth += 1
        elif toks[i].text == "}":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(toks) - 1


def skip_template_args(toks, i):
    """toks[i] == '<': index just past the matching '>' (or i if this
    was not a template argument list after all)."""
    depth = 0
    j = i
    while j < len(toks):
        t = toks[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t in (";", "{", "}"):
            return i
        j += 1
    return i
