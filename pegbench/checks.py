"""Output checks that do not trust the parser under test.

``Tokenizer`` is a separate lexer for the generated dialects, written from
their token definitions as one regular expression; ``coverage`` uses it to
check that a recovered tree accounts for every input token exactly once.
"""

from __future__ import annotations

import hashlib
import json
import re

from gen import Language


def digest(obj) -> str:
    """Stable digest of a JSON-able value."""
    data = json.dumps(obj, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


class Tokenizer:
    """Longest match over the dialect's fixed tokens, NUMBER and NAME; a
    word that spells a keyword is that keyword.  Layout and ``//``
    comments are skipped; any other character is a stray token (None)."""

    def __init__(self, lang: Language):
        spelling = lang.spelling()
        self.words = {t: k for k, t in spelling.items() if t.isalpha()}
        self.symbols = {t: k for k, t in spelling.items() if not t.isalpha()}
        # symbols first: "System.out.println" outlasts the word "System";
        # longer symbols first, so "==" is not read as "=" "="
        alternatives = sorted(self.symbols, key=len, reverse=True)
        self.pattern = re.compile(
            r"(?P<skip>\s+|//[^\n]*)"
            r"|(?P<sym>" + "|".join(map(re.escape, alternatives)) + ")"
            r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
            r"|(?P<num>[0-9]+)"
            r"|(?P<stray>.)", re.S)

    def __call__(self, text: str) -> list[tuple[str | None, int, int]]:
        out: list[tuple[str | None, int, int]] = []
        for m in self.pattern.finditer(text):
            group = m.lastgroup
            if group == "skip":
                continue
            if group == "sym":
                kind = self.symbols[m.group()]
            elif group == "word":
                kind = self.words.get(m.group(), "NAME")
            elif group == "num":
                kind = "NUMBER"
            else:
                kind = None
            out.append((kind, m.start(), m.end()))
        return out


def leaves(tree: dict):
    """Token leaves and error nodes of a ``tree_to_json`` tree, in order."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if "children" in node:
            stack.extend(reversed(node["children"]))
        else:
            yield node


def coverage(tree: dict, tokens, stop: int | None = None) -> tuple[str | None, int]:
    """Check that the tree holds every token once, in order: as a leaf of
    the same kind and span, or inside an error node's span.  With ``stop``
    (the token index of an "expected end of input" error) tokens from
    there on are exempt.  Returns (first violation or None, tokens inside
    error nodes)."""
    end = len(tokens) if stop is None else stop
    i = skipped = 0
    for node in leaves(tree):
        s, e = node["span"]
        if "token" in node:
            if i >= end or (node["token"], s, e) != tuple(tokens[i]):
                return f"leaf {node} is not token {i} of {end}", skipped
            i += 1
        elif s < e:
            if i >= end or tokens[i][1] != s:
                return f"error span {s}-{e} does not start at token {i}", skipped
            first = i
            while i < end and tokens[i][2] <= e:
                i += 1
            if tokens[i - 1][2] != e:
                return f"error span {s}-{e} ends inside a token", skipped
            skipped += i - first
    if i != end:
        return f"tree covers {i} of {end} tokens", skipped
    return None, skipped


def count_nodes(tree: dict) -> tuple[int, int]:
    """(all nodes, error nodes)."""
    nodes = errors = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        nodes += 1
        if "children" in node:
            stack.extend(node["children"])
        elif "error" in node:
            errors += 1
    return nodes, errors


def error_records(errors) -> list[list]:
    """Every field of each ParseError, for digests."""
    return [[e.label, e.message, e.offset, e.line, e.col, e.token_index]
            for e in errors]


def exempt_from(outcome, ntokens: int) -> int | None:
    """Where the parse stopped early with an "expected end of input"
    error: the tokens from there on are not in the tree."""
    end = outcome.end
    if end is None or end >= ntokens:
        return None
    if any(e.label == "fail" and e.token_index == end for e in outcome.errors):
        return end
    return None


_DSL = re.compile(
    r"(?P<skip>\s+|//[^\n]*)"
    r"|(?P<lit>'(?:\\.|[^'\\\n])*'|\"(?:\\.|[^\"\\\n])*\")"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<arrow><-)"
    r"|(?P<punct>.)", re.S)
_CLASS = re.compile(r"\[(?:\\.|[^\]\\\n])*\]")


def dsl_token_count(text: str) -> int:
    """Tokens of grammar text as the grammar DSL reads them: in a lexical
    (ALL-CAPS) rule a character class is one token, elsewhere '[' is an
    annotation bracket."""
    count = 0
    pos = 0
    last_name = ""
    lexical = False
    while pos < len(text):
        m = _DSL.match(text, pos)
        group = m.lastgroup
        if group == "skip":
            pos = m.end()
            continue
        if lexical and text[pos] == "[":
            m = _CLASS.match(text, pos)
        elif group == "name":
            last_name = m.group()
        elif group == "arrow":
            lexical = (len(last_name) >= 2 and last_name.upper() == last_name
                       and any(c.isalpha() for c in last_name))
        count += 1
        pos = m.end()
    return count
