"""Shared test utilities.

naive_match is an independent reference implementation of the matching
semantics over a plain kind sequence, written directly from the defining
equations with no sharing of engine code, so differential tests mean
something; naive_tokenize does the same for the lexer, CharLoopScanner
for the scanner of grammar text, nullable for the epsilon flag of FIRST
sets, reference_first for FIRST sets, check_left_recursion for the
left-recursion check of ``validate``, reference_guard for the matcher's
guards, reference_follow for FOLLOW sets, and json_structural_eq for
``ast_structural_eq`` on the dicts of ``tree_to_json``.  The generators produce random grammars (acyclic by
construction: each rule only references later ones) and random valid
programs for the miniature Java grammar, and pegbench_gen loads the
benchmark's own program generator.  run_fresh runs a script in a new
Python process, which starts at the default recursion limit.
"""

from __future__ import annotations

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

from pegrec.model import (
    And,
    AnyToken,
    CharClass,
    Choice,
    Empty,
    Expr,
    First,
    Grammar,
    GrammarError,
    Literal,
    NonTerminal,
    Not,
    Optional,
    Plus,
    Sequence,
    Star,
    Terminal,
    Throw,
    TokenSet,
    children,
    desugar_expr,
    validate,
)

EOF = "EOF"


def naive_match(rules: dict[str, Expr], e: Expr, kinds: tuple[str, ...],
                pos: int) -> int | None:
    """End position if e matches kinds at pos, else None.  Handles only
    label-free desugared grammars; Terminal('EOF') matches at the end."""
    if isinstance(e, Empty):
        return pos
    if isinstance(e, Terminal):
        if e.kind == EOF:
            return pos if pos == len(kinds) else None
        if pos < len(kinds) and kinds[pos] == e.kind:
            return pos + 1
        return None
    if isinstance(e, AnyToken):
        return pos + 1 if pos < len(kinds) else None
    if isinstance(e, Sequence):
        mid = naive_match(rules, e.left, kinds, pos)
        if mid is None:
            return None
        return naive_match(rules, e.right, kinds, mid)
    if isinstance(e, Choice):
        out = naive_match(rules, e.first, kinds, pos)
        if out is not None:
            return out
        return naive_match(rules, e.second, kinds, pos)
    if isinstance(e, Star):
        while True:
            nxt = naive_match(rules, e.body, kinds, pos)
            if nxt is None or nxt == pos:
                return pos
            pos = nxt
    if isinstance(e, Not):
        return pos if naive_match(rules, e.body, kinds, pos) is None else None
    if isinstance(e, NonTerminal):
        return naive_match(rules, rules[e.name], kinds, pos)
    raise TypeError(f"naive_match cannot handle {e!r}")


def _naive_chars(rules: dict[str, Expr], e: Expr, text: str, pos: int) -> int | None:
    """End position if lexical pattern e matches text at pos, else None."""
    if isinstance(e, Literal):
        return pos + len(e.text) if text[pos:pos + len(e.text)] == e.text else None
    if isinstance(e, CharClass):
        if pos < len(text) and any(lo <= text[pos] <= hi for lo, hi in e.ranges):
            return pos + 1
        return None
    if isinstance(e, AnyToken):
        return pos + 1 if pos < len(text) else None
    if isinstance(e, Empty):
        return pos
    if isinstance(e, Sequence):
        mid = _naive_chars(rules, e.left, text, pos)
        return None if mid is None else _naive_chars(rules, e.right, text, mid)
    if isinstance(e, Choice):
        out = _naive_chars(rules, e.first, text, pos)
        return out if out is not None else _naive_chars(rules, e.second, text, pos)
    if isinstance(e, Star):
        while True:
            nxt = _naive_chars(rules, e.body, text, pos)
            if nxt is None or nxt == pos:
                return pos
            pos = nxt
    if isinstance(e, Not):
        return pos if _naive_chars(rules, e.body, text, pos) is None else None
    if isinstance(e, NonTerminal):
        return _naive_chars(rules, rules[e.name], text, pos)
    raise TypeError(f"_naive_chars cannot handle {e!r}")


def naive_tokenize(grammar: Grammar, text: str) -> list[tuple[str | None, str, int]]:
    """(kind, text, start) of every token, by trying every pattern at every
    position.  Layout is blanks and '//' comments; the longest non-empty
    match wins, the earlier pattern (lexical rules as declared, then
    literal kinds) on a tie; a character nothing matches is a kind-None
    token of its own."""
    rules = {n: desugar_expr(b) for n, b in grammar.lexical.items()}
    patterns = [(n, rules[n]) for n in rules] + [
        (k, Literal(k[1:-1])) for k in grammar.literal_kinds]
    out = []
    pos = 0
    while True:
        while pos < len(text):
            if text[pos] in " \t\r\n":
                pos += 1
            elif text[pos:pos + 2] == "//":
                while pos < len(text) and text[pos] != "\n":
                    pos += 1
            else:
                break
        if pos == len(text):
            return out
        best_kind, best_end = None, pos + 1
        for kind, pat in patterns:
            end = _naive_chars(rules, pat, text, pos)
            if end is not None and end > pos and (best_kind is None or end > best_end):
                best_kind, best_end = kind, end
        out.append((best_kind, text[pos:best_end], pos))
        pos = best_end


# --- reference grammar-text scanner --------------------------------------------

class CharLoopScanner:
    """Reference scanner for grammar text: it moves one character at a
    time and keeps the line and column as it goes.  next_token returns
    (kind, text, line, col); scan_class is called just after a '[' token
    and consumes through the closing ']'."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, msg: str) -> GrammarError:
        return GrammarError(msg, self.line, self.col)

    def _advance(self, n: int) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def skip_space(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
            elif self.text.startswith("//", self.pos):
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance(1)
            else:
                return

    def next_token(self) -> tuple[str, str, int, int]:
        self.skip_space()
        line, col = self.line, self.col
        if self.pos >= len(self.text):
            return ("eof", "", line, col)
        ch = self.text[self.pos]
        if ch in "'\"":
            return ("literal", self._scan_quoted(ch), line, col)
        if ch == "[":
            self._advance(1)
            return ("[", "[", line, col)
        for p in ("<-", "/", "(", ")", "*", "+", "?", "!", "&", ".", ";", "^",
                  "]", "%"):
            if self.text.startswith(p, self.pos):
                self._advance(len(p))
                return (p, p, line, col)
        if ch.isalpha() or ch == "_":
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self._advance(1)
            return ("name", self.text[start:self.pos], line, col)
        raise self.error(f"unexpected character {ch!r}")

    def _scan_quoted(self, quote: str) -> str:
        self._advance(1)
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated literal")
            ch = self.text[self.pos]
            if ch == quote:
                self._advance(1)
                return "".join(out)
            if ch == "\n":
                raise self.error("unterminated literal")
            if ch == "\\":
                self._advance(1)
                if self.pos >= len(self.text):
                    raise self.error("unterminated literal")
                esc = self.text[self.pos]
                out.append({"n": "\n", "t": "\t", "r": "\r"}.get(esc, esc))
                self._advance(1)
            else:
                out.append(ch)
                self._advance(1)

    def scan_class(self) -> CharClass:
        """Called just after '['; consumes through the closing ']'."""
        ranges: list[tuple[str, str]] = []

        def read_char() -> str:
            if self.pos >= len(self.text) or self.text[self.pos] == "\n":
                raise self.error("unterminated character class")
            ch = self.text[self.pos]
            if ch == "\\":
                self._advance(1)
                if self.pos >= len(self.text):
                    raise self.error("unterminated character class")
                esc = self.text[self.pos]
                self._advance(1)
                return {"n": "\n", "t": "\t", "r": "\r"}.get(esc, esc)
            self._advance(1)
            return ch

        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated character class")
            if self.text[self.pos] == "]":
                self._advance(1)
                return CharClass(tuple(ranges))
            lo = read_char()
            if (
                self.pos + 1 < len(self.text)
                and self.text[self.pos] == "-"
                and self.text[self.pos + 1] != "]"
            ):
                self._advance(1)
                hi = read_char()
                if hi < lo:
                    raise self.error(f"bad range {lo!r}-{hi!r}")
                ranges.append((lo, hi))
            else:
                ranges.append((lo, lo))


# --- reference nullability and left-recursion check ---------------------------

def _least_fixpoint(rules: dict[str, Expr], value) -> dict[str, bool]:
    """Per rule, the least fixed point of a monotone ``value(body, table)``
    from False."""
    table = {name: False for name in rules}
    while True:
        new = {name: value(body, table) for name, body in rules.items()}
        if new == table:
            return table
        table = new


def nullable(e: Expr, table: dict[str, bool]) -> bool:
    """Whether e can succeed without consuming input; ``table`` says which
    rules can."""
    if isinstance(e, Sequence):
        return nullable(e.left, table) and nullable(e.right, table)
    if isinstance(e, Choice):
        return nullable(e.first, table) or nullable(e.second, table)
    if isinstance(e, NonTerminal):
        return table[e.name]
    if isinstance(e, Terminal):
        return e.kind == EOF
    if isinstance(e, Literal):
        return e.text == ""
    if isinstance(e, Plus):
        return nullable(e.body, table)
    return isinstance(e, (Empty, Star, Not, Optional, And))


def nullable_rules(rules: dict[str, Expr]) -> dict[str, bool]:
    """Per rule, whether it can succeed without consuming input."""
    return _least_fixpoint(rules, nullable)


def check_left_recursion(rules: dict[str, Expr], what: str) -> None:
    """Reference for ``model._check_left_recursion``: from every rule, in
    declaration order, a search of the rules it can invoke before any input
    has necessarily been consumed, raising on the first rule that reaches
    itself."""
    table = nullable_rules(rules)

    def heads(e: Expr, out: set[str]) -> None:
        if isinstance(e, NonTerminal):
            out.add(e.name)
        elif isinstance(e, Sequence):
            heads(e.left, out)
            if nullable(e.left, table):
                heads(e.right, out)
        else:
            for child in children(e):
                heads(child, out)

    head_map: dict[str, set[str]] = {}
    for name, body in rules.items():
        out: set[str] = set()
        heads(body, out)
        head_map[name] = out

    for name in rules:
        seen: set[str] = set()
        frontier = set(head_map[name])
        while frontier:
            n = frontier.pop()
            if n == name:
                raise GrammarError(f"left recursion detected in {what} {name}")
            if n in seen or n not in head_map:
                continue
            seen.add(n)
            frontier |= head_map[n]


def count_first_calls(monkeypatch) -> list[Expr]:
    """A list to which every call into the FIRST walk of ``model.First``
    appends its node, for as long as monkeypatch lasts."""
    calls: list[Expr] = []
    real = First._of

    def counted(self, e, rules, memo=None):
        calls.append(e)
        return real(self, e, rules, memo)
    monkeypatch.setattr(First, "_of", counted)
    return calls


# --- reference FIRST ------------------------------------------------------------

def reference_first_of(e: Expr, table: dict[str, TokenSet], leaf) -> TokenSet:
    """FIRST of e from its defining equations, given each rule's set in
    ``table``; ``leaf`` gives the set of any node that is not a sequence,
    a choice, a repetition, an option or a rule reference."""
    if isinstance(e, NonTerminal):
        return table[e.name]
    if isinstance(e, Sequence):
        left = reference_first_of(e.left, table, leaf)
        if not left.has_epsilon:
            return left
        right = reference_first_of(e.right, table, leaf)
        return TokenSet(left.kinds | right.kinds, right.has_epsilon)
    if isinstance(e, Choice):
        first = reference_first_of(e.first, table, leaf)
        second = reference_first_of(e.second, table, leaf)
        return TokenSet(first.kinds | second.kinds, first.has_epsilon or second.has_epsilon)
    if isinstance(e, (Star, Optional)):
        return TokenSet(reference_first_of(e.body, table, leaf).kinds, True)
    if isinstance(e, Plus):
        return reference_first_of(e.body, table, leaf)
    return leaf(e)


def reference_first(rules: dict[str, Expr], leaf) -> dict[str, TokenSet]:
    """Per rule, FIRST as a least fixed point: every body computed again
    from the last round's table until a round changes nothing."""
    table = {name: TokenSet(frozenset()) for name in rules}
    while True:
        new = {name: reference_first_of(body, table, leaf) for name, body in rules.items()}
        if new == table:
            return table
        table = new


# --- reference FOLLOW -----------------------------------------------------------

def reference_follow(a) -> dict:
    """FOLLOW of every rule of ``a.grammar``, as ``Analysis`` once computed
    it: a recursive walk of every rule body per round, merging into the
    table until a round changes nothing.  FIRST comes from ``a.first_of``."""
    g = a.grammar
    first = a.first_of
    follow = {n: TokenSet(frozenset()) for n in g.rules}
    follow[g.start] = TokenSet(frozenset((EOF,)))
    dirty = True

    def calck(e: Expr, flw: TokenSet) -> TokenSet:
        f = first(e)
        if not f.has_epsilon:
            return f
        return f.without_epsilon().union(flw.without_epsilon())

    def visit(e: Expr, flw: TokenSet) -> None:
        nonlocal dirty
        if isinstance(e, NonTerminal):
            merged = follow[e.name].union(flw.without_epsilon())
            if merged != follow[e.name]:
                follow[e.name] = merged
                dirty = True
        elif isinstance(e, Sequence):
            visit(e.left, calck(e.right, flw))
            visit(e.right, flw)
        elif isinstance(e, Choice):
            visit(e.first, flw)
            visit(e.second, flw)
        elif isinstance(e, (Star, Plus)):
            visit(e.body, first(e.body).without_epsilon().union(flw.without_epsilon()))
        elif isinstance(e, Optional):
            visit(e.body, flw)

    while dirty:
        dirty = False
        for name, body in g.rules.items():
            visit(body, follow[name])
    return follow


# --- reference guards ---------------------------------------------------------

def _acts(e: Expr, table: dict[str, bool], null: dict[str, bool]) -> bool:
    """Whether e can reach a throw, a predicate or ``.`` before it consumes
    a token; ``table`` says which rules can, ``null`` which are nullable."""
    if isinstance(e, (Throw, Not, And, AnyToken)):
        return True
    if isinstance(e, NonTerminal):
        return table[e.name]
    if isinstance(e, Sequence):
        return (_acts(e.left, table, null)
                or nullable(e.left, null) and _acts(e.right, table, null))
    return any(_acts(child, table, null) for child in children(e))


def reference_guard(rules: dict[str, Expr], first_kinds):
    """Reference for ``engine._Matcher.guard`` over rules: a function of
    a node that gives ``first_kinds(node)``, or None when the node is
    nullable or can act before it consumes a token."""
    null = nullable_rules(rules)
    acts = _least_fixpoint(rules, lambda body, table: _acts(body, table, null))

    def guard(e: Expr):
        if nullable(e, null) or _acts(e, acts, null):
            return None
        return first_kinds(e)
    return guard


# --- reference structural equality -------------------------------------------

def json_structural_eq(got: dict, want: dict) -> bool:
    """Reference for ``engine.ast_structural_eq``, on the dicts of
    ``tree_to_json``: equality ignoring spans, where an error node on
    either side matches one node whose rule name or token kind equals its
    expectation, and two error nodes match when they expect the same."""
    got_error, want_error = "error" in got, "error" in want
    if got_error or want_error:
        if got_error and want_error:
            return got["expected"] == want["expected"]
        node, err = (want, got) if got_error else (got, want)
        name = node["rule"] if "rule" in node else node["token"]
        return name == err["expected"]
    if ("rule" in got) != ("rule" in want):
        return False
    if "token" in got:
        return got["token"] == want["token"]
    if got["rule"] != want["rule"] or len(got["children"]) != len(want["children"]):
        return False
    for a, b in zip(got["children"], want["children"]):
        if not json_structural_eq(a, b):
            return False
    return True


# --- random grammars ---------------------------------------------------------

ALPHABET = ("AA", "BB", "CC")
ALPHABET_LEXICAL = {"AA": "a", "BB": "b", "CC": "c"}


def _random_expr(rng: random.Random, later_rules: list[str], depth: int,
                 nullable_rules: set[str]) -> tuple[Expr, bool]:
    """Random expression plus its nullability (needed to keep star bodies
    from being nullable, which would make repetition ill-defined)."""
    choices = ["terminal", "terminal", "terminal", "empty"]
    if depth > 0:
        choices += ["seq", "seq", "choice", "choice", "star", "not"]
    if later_rules:
        choices += ["ref", "ref"]
    kind = rng.choice(choices)
    if kind == "terminal":
        return Terminal(rng.choice(ALPHABET)), False
    if kind == "empty":
        return Empty(), True
    if kind == "ref":
        name = rng.choice(later_rules)
        return NonTerminal(name), name in nullable_rules
    if kind == "seq":
        a, na = _random_expr(rng, later_rules, depth - 1, nullable_rules)
        b, nb = _random_expr(rng, later_rules, depth - 1, nullable_rules)
        return Sequence(a, b), na and nb
    if kind == "choice":
        a, na = _random_expr(rng, later_rules, depth - 1, nullable_rules)
        b, nb = _random_expr(rng, later_rules, depth - 1, nullable_rules)
        return Choice(a, b), na or nb
    if kind == "star":
        for _ in range(20):
            body, nb = _random_expr(rng, later_rules, depth - 1, nullable_rules)
            if not nb:
                return Star(body), True
        return Star(Terminal(rng.choice(ALPHABET))), True
    if kind == "not":
        body, _ = _random_expr(rng, later_rules, depth - 1, nullable_rules)
        return Not(body), True
    raise AssertionError(kind)


def random_grammar(seed: int, max_rules: int = 5, depth: int = 3) -> Grammar:
    """Small random grammar over the a/b/c alphabet.  Acyclic, so free of
    left recursion; rule Rule0 is the start."""
    rng = random.Random(seed)
    n = rng.randint(1, max_rules)
    names = [f"Rule{i}" for i in range(n)]
    rules: dict[str, Expr] = {}
    nullable_rules: set[str] = set()
    for i in reversed(range(n)):
        later = names[i + 1:]
        body, nb = _random_expr(rng, later, depth, nullable_rules)
        rules[names[i]] = body
        if nb:
            nullable_rules.add(names[i])
    ordered = {name: rules[name] for name in names}
    g = Grammar(rules=ordered, lexical={}, start="Rule0")
    return validate(_with_abc_lexicon(g))


def _with_abc_lexicon(g: Grammar) -> Grammar:
    from pegrec.model import Literal

    g.lexical = {kind: Literal(text) for kind, text in ALPHABET_LEXICAL.items()}
    return g


def render_input(kinds: tuple[str, ...]) -> str:
    """Text whose token sequence is exactly `kinds`."""
    return " ".join(ALPHABET_LEXICAL[k] for k in kinds)


def all_inputs(max_len: int):
    """Every kind sequence over the alphabet up to max_len, shortest first."""
    frontier: list[tuple[str, ...]] = [()]
    for seq in frontier:
        yield seq
        if len(seq) < max_len:
            frontier.extend(seq + (k,) for k in ALPHABET)


# --- random miniature Java programs ------------------------------------------

NAMES = ("x", "y", "z", "count", "total", "value", "i_0", "tmp")


def random_program(seed: int) -> str:
    """A syntactically valid program for the tiny_java grammar."""
    rng = random.Random(seed)

    def atom(depth: int) -> str:
        roll = rng.random()
        if depth > 0 and roll < 0.2:
            return f"( {expr(depth - 1)} )"
        if roll < 0.6:
            return str(rng.randint(0, 9999))
        return rng.choice(NAMES)

    def expr(depth: int) -> str:
        # ops appear tightest first, so the chain always parses
        parts = [atom(depth)]
        for op in ("*", "/", "+", "-", "<", "=="):
            while rng.random() < 0.2:
                parts.append(op)
                parts.append(atom(depth))
        return " ".join(parts)

    def stmt(depth: int) -> str:
        roll = rng.randrange(6) if depth > 0 else rng.randrange(3)
        if roll == 0:
            return f"int {rng.choice(NAMES)} = {expr(depth)} ;"
        if roll == 1:
            return f"int {rng.choice(NAMES)} ;"
        if roll == 2:
            return f"{rng.choice(NAMES)} = {expr(depth)} ;"
        if roll == 3:
            return f"System.out.println ( {expr(depth)} ) ;"
        if roll == 4:
            body = stmt(depth - 1)
            alt = f" else {stmt(depth - 1)}" if rng.random() < 0.5 else ""
            return f"if ( {expr(depth)} ) {body}{alt}"
        if roll == 5:
            return f"while ( {expr(depth)} ) {block(depth - 1)}"
        raise AssertionError

    def block(depth: int) -> str:
        stmts = " ".join(stmt(depth) for _ in range(rng.randrange(3)))
        return "{ " + stmts + " }" if stmts else "{ }"

    body = " ".join(stmt(2) for _ in range(rng.randint(1, 4)))
    return ("public class Example { "
            "public static void main ( String [ ] args ) { "
            f"{body} }} }}")


def fix_factorial(text: str) -> str:
    """grammars/factorial.java with its two syntax errors corrected."""
    return text.replace("while(0 < n {", "while(0 < n) {").replace("n - 1\n", "n - 1;\n")


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c script args`` in a new process that imports pegrec from
    this source tree."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def pegbench_gen():
    """The module ``pegbench/gen.py``, which builds tiny-Java programs
    from their derivations; loaded once, read-only."""
    name = "pegbench_gen"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "pegbench" / "gen.py"
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        # dataclasses look the module up while the class is built
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]
