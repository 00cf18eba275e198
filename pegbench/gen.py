"""Seeded inputs for the benchmark: languages, grammars, programs, mutants.

Everything is drawn from ``random.Random(seed)``.  Programs are built from
their own derivation, so each comes with the tree the grammar must give it
and its token list; neither is computed by the parser under test.  The only
calls into pegrec are the mutation helpers ``delete_token`` and
``duplicate_token``, which the workloads are defined to use.

A ``Language`` describes a tiny-Java dialect: the base statements plus
extra keyword statements, and the binary-operator precedence levels.  The
base language is exactly ``grammars/tiny_java.peg``; the larger dialects
feed the grammar-tooling workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Fixed tokens of tiny_java.peg, in its declaration order.
BASE_KEYWORDS = (
    ("PUBLIC", "public"), ("CLASS", "class"), ("STATIC", "static"),
    ("VOID", "void"), ("MAIN", "main"), ("STRING", "String"), ("IF", "if"),
    ("ELSE", "else"), ("WHILE", "while"), ("PRINTLN", "System.out.println"),
    ("INT", "int"),
)
PUNCT = (
    ("LCUR", "{"), ("RCUR", "}"), ("LPAR", "("), ("RPAR", ")"),
    ("LBRA", "["), ("RBRA", "]"),
)
BASE_OPERATORS = (
    ("EQ", "=="), ("ASSIGN", "="), ("LT", "<"), ("PLUS", "+"),
    ("MINUS", "-"), ("TIMES", "*"), ("DIV", "/"), ("SEMI", ";"),
)
BASE_LEVELS = (
    ("Exp", ("EQ",)), ("RelExp", ("LT",)),
    ("AddExp", ("PLUS", "MINUS")), ("MulExp", ("TIMES", "DIV")),
)
BASE_STATEMENTS = ("IfStmt", "WhileStmt", "DecStmt", "AssignStmt", "PrintStmt")

# Pools for the generated dialects.  No keyword is a variable name below,
# and no operator is a prefix of a base token it could fuse with.
EXTRA_KEYWORDS = (
    ("DO", "do"), ("LOOP", "loop"), ("REPEAT", "repeat"),
    ("UNLESS", "unless"), ("ASSERT", "assert"), ("YIELD", "yield"),
    ("EMIT", "emit"), ("CHECK", "check"), ("GUARD", "guard"),
    ("SPIN", "spin"), ("TRACE", "trace"), ("RETURN", "return"),
)
EXTRA_OPERATORS = (
    ("MOD", "%"), ("AND", "&&"), ("OR", "||"), ("XOR", "^"),
    ("BITOR", "|"), ("BITAND", "&"), ("GT", ">"), ("GE", ">="),
    ("LE", "<="), ("NE", "!="), ("SHL", "<<"), ("SHR", ">>"),
)
NAMES = ("x", "y", "z", "n", "k", "count", "total", "value", "acc", "tmp",
         "i_0", "idx")

HEADER = ("PUBLIC", "CLASS", "NAME", "LCUR", "PUBLIC", "STATIC", "VOID",
          "MAIN", "LPAR", "STRING", "LBRA", "RBRA", "NAME", "RPAR")


@dataclass(frozen=True)
class Language:
    """extra_statements: (rule, keyword kind, form) with form "loop"
    (KW ( Exp ) Stmt) or "simple" (KW Exp ;).  levels: (rule, operator
    kinds), loosest first; the first is always Exp."""

    extra_keywords: tuple[tuple[str, str], ...] = ()
    extra_operators: tuple[tuple[str, str], ...] = ()
    extra_statements: tuple[tuple[str, str, str], ...] = ()
    levels: tuple[tuple[str, tuple[str, ...]], ...] = BASE_LEVELS

    def spelling(self) -> dict[str, str]:
        """Every fixed token kind with its text, in declaration order."""
        return dict(BASE_KEYWORDS + self.extra_keywords + PUNCT
                    + BASE_OPERATORS + self.extra_operators)


BASE = Language()


def random_language(rng: random.Random, extra_statements: int,
                    extra_levels: int) -> Language:
    """A dialect with the given number of extra keyword statements and
    extra precedence levels (one or two new operators each)."""
    keywords = tuple(rng.sample(EXTRA_KEYWORDS, extra_statements))
    ops = list(rng.sample(EXTRA_OPERATORS, min(len(EXTRA_OPERATORS),
                                               2 * extra_levels)))
    statements = tuple(
        (f"{kind.title()}Stmt", kind, rng.choice(("loop", "simple")))
        for kind, _ in keywords)
    levels = list(BASE_LEVELS)
    used: list[tuple[str, str]] = []
    for i in range(extra_levels):
        take = 1 if len(ops) < 2 or rng.random() < 0.5 else 2
        group = tuple(ops.pop() for _ in range(take))
        used.extend(group)
        levels.insert(rng.randint(1, len(levels)),
                      (f"Op{i}Exp", tuple(k for k, _ in group)))
    return Language(keywords, tuple(used), statements, tuple(levels))


def grammar_text(lang: Language) -> str:
    """The dialect as grammar text, in the layout of tiny_java.peg."""
    stmts = BASE_STATEMENTS + tuple(r for r, _, _ in lang.extra_statements)
    lines = [
        "%start Prog ;", "",
        "Prog <- " + " ".join(HEADER) + " BlockStmt RCUR ;",
        "BlockStmt <- LCUR Stmt* RCUR ;",
        "Stmt <- " + " / ".join(stmts + ("BlockStmt",)) + " ;",
        "IfStmt <- IF LPAR Exp RPAR Stmt (ELSE Stmt / '') ;",
        "WhileStmt <- WHILE LPAR Exp RPAR Stmt ;",
        "DecStmt <- INT NAME (ASSIGN Exp / '') SEMI ;",
        "AssignStmt <- NAME ASSIGN Exp SEMI ;",
        "PrintStmt <- PRINTLN LPAR Exp RPAR SEMI ;",
    ]
    for rule, kw, form in lang.extra_statements:
        body = "LPAR Exp RPAR Stmt" if form == "loop" else "Exp SEMI"
        lines.append(f"{rule} <- {kw} {body} ;")
    names = [r for r, _ in lang.levels] + ["AtomExp"]
    for (rule, ops), sub in zip(lang.levels, names[1:]):
        op = ops[0] if len(ops) == 1 else "(" + " / ".join(ops) + ")"
        lines.append(f"{rule} <- {sub} ({op} {sub})* ;")
    lines.append("AtomExp <- LPAR Exp RPAR / NUMBER / NAME ;")
    lines.append("")
    for kind, text in lang.spelling().items():
        lines.append(f"{kind} <- '{text}' ;")
    lines.append("NUMBER <- [0-9]+ ;")
    lines.append("NAME <- [a-zA-Z_][a-zA-Z0-9_]* ;")
    return "\n".join(lines) + "\n"


# --- programs ------------------------------------------------------------------

@dataclass
class Program:
    """Source text, its tokens as (kind, start, end), the expected tree in
    the shape of ``pegrec.tree_to_json``, and the token index ranges of the
    top-level pieces (header, each statement of main, trailer)."""

    text: str
    tokens: list[tuple[str, int, int]]
    tree: dict
    chunks: list[tuple[int, int]]


class _Writer:
    """Lays out tokens as formatted source while the derivation is built."""

    _TIGHT_AFTER = ("(", "[")
    _TIGHT_BEFORE = (")", "]", ";", "[")

    def __init__(self, lang: Language, rng: random.Random):
        self.spelling = lang.spelling()
        self.rng = rng
        self.parts: list[str] = []
        self.pos = 0
        self.tokens: list[tuple[str, int, int]] = []
        self.prev = ""
        self.indent = 0
        self.newline = False

    def tok(self, kind: str, text: str | None = None) -> dict:
        text = self.spelling[kind] if text is None else text
        if self.newline:
            gap = "\n" + "  " * self.indent
            if self.rng.random() < 0.05:
                gap += f"// step {self.rng.randrange(1000)}" + gap
            self.newline = False
        elif not self.prev or self.prev in self._TIGHT_AFTER \
                or text in self._TIGHT_BEFORE \
                or (text == "(" and self.prev in ("System.out.println", "main")):
            gap = ""
        else:
            gap = " "
        self.parts.append(gap)
        self.pos += len(gap)
        start = self.pos
        self.parts.append(text)
        self.pos += len(text)
        self.tokens.append((kind, start, self.pos))
        self.prev = text
        return {"token": kind, "span": [start, self.pos]}


def _node(rule: str, children: list[dict]) -> dict:
    return {"rule": rule, "span": [children[0]["span"][0], children[-1]["span"][1]],
            "children": children}


class _Deriver:
    def __init__(self, lang: Language, rng: random.Random):
        self.lang = lang
        self.rng = rng
        self.w = _Writer(lang, rng)

    def atom(self, depth: int) -> dict:
        w, roll = self.w, self.rng.random()
        if depth > 0 and roll < 0.15:
            kids = [w.tok("LPAR"), self.expr(depth - 1), w.tok("RPAR")]
        elif roll < 0.55:
            kids = [w.tok("NUMBER", str(self.rng.randrange(10000)))]
        else:
            kids = [w.tok("NAME", self.rng.choice(NAMES))]
        return _node("AtomExp", kids)

    def level(self, i: int, depth: int) -> dict:
        if i == len(self.lang.levels):
            return self.atom(depth)
        rule, ops = self.lang.levels[i]
        kids = [self.level(i + 1, depth)]
        while self.rng.random() < 0.2:
            kids.append(self.w.tok(self.rng.choice(ops)))
            kids.append(self.level(i + 1, depth))
        return _node(rule, kids)

    def expr(self, depth: int = 2) -> dict:
        return self.level(0, depth)

    def block(self, depth: int) -> dict:
        w = self.w
        kids = [w.tok("LCUR")]
        w.indent += 1
        for _ in range(self.rng.randrange(4)):
            kids.append(self.stmt(depth))
        w.indent -= 1
        w.newline = True
        kids.append(w.tok("RCUR"))
        return _node("BlockStmt", kids)

    def stmt(self, depth: int) -> dict:
        """One Stmt node; compound forms only while depth > 0."""
        w, rng = self.w, self.rng
        w.newline = True
        extra = self.lang.extra_statements
        kinds = ["dec", "dec", "assign", "assign", "print"]
        if depth > 0:
            kinds += ["if", "while", "block"]
        kinds += [f"x{i}" for i, (_, _, form) in enumerate(extra)
                  if depth > 0 or form == "simple"]
        kind = rng.choice(kinds)
        if kind == "dec":
            kids = [w.tok("INT"), w.tok("NAME", rng.choice(NAMES))]
            if rng.random() < 0.7:
                kids += [w.tok("ASSIGN"), self.expr()]
            inner = _node("DecStmt", kids + [w.tok("SEMI")])
        elif kind == "assign":
            inner = _node("AssignStmt", [
                w.tok("NAME", rng.choice(NAMES)), w.tok("ASSIGN"),
                self.expr(), w.tok("SEMI")])
        elif kind == "print":
            inner = _node("PrintStmt", [
                w.tok("PRINTLN"), w.tok("LPAR"), self.expr(), w.tok("RPAR"),
                w.tok("SEMI")])
        elif kind == "if":
            has_else = rng.random() < 0.4
            kids = [w.tok("IF"), w.tok("LPAR"), self.expr(), w.tok("RPAR")]
            # a block before "else" keeps it from binding to an inner if
            kids.append(_node("Stmt", [self.block(depth - 1)]) if has_else
                        else self.body(depth - 1))
            if has_else:
                w.newline = True
                kids += [w.tok("ELSE"), self.body(depth - 1)]
            inner = _node("IfStmt", kids)
        elif kind == "while":
            inner = _node("WhileStmt", [
                w.tok("WHILE"), w.tok("LPAR"), self.expr(), w.tok("RPAR"),
                self.body(depth - 1)])
        elif kind == "block":
            inner = self.block(depth - 1)
        else:
            rule, kw, form = extra[int(kind[1:])]
            if form == "loop":
                kids = [w.tok(kw), w.tok("LPAR"), self.expr(), w.tok("RPAR"),
                        self.body(depth - 1)]
            else:
                kids = [w.tok(kw), self.expr(), w.tok("SEMI")]
            inner = _node(rule, kids)
        return _node("Stmt", [inner])

    def body(self, depth: int) -> dict:
        """The statement under if/while: a block most of the time."""
        if self.rng.random() < 0.7:
            return _node("Stmt", [self.block(depth)])
        self.w.indent += 1
        node = self.stmt(depth)
        self.w.indent -= 1
        return node


def program(lang: Language, rng: random.Random, min_tokens: int) -> Program:
    """A valid program of at least min_tokens tokens."""
    d = _Deriver(lang, rng)
    w = d.w
    head = [w.tok(k, "Main" if k == "NAME" else None) for k in HEADER[:4]]
    w.indent = 1
    w.newline = True
    head += [w.tok(k, "args" if k == "NAME" else None) for k in HEADER[4:]]
    chunks = [(0, len(w.tokens))]
    body = [w.tok("LCUR")]
    w.indent = 2
    while len(w.tokens) < min_tokens - 2:
        first = len(w.tokens)
        body.append(d.stmt(3))
        chunks.append((first, len(w.tokens)))
    w.indent = 1
    w.newline = True
    body.append(w.tok("RCUR"))
    w.indent = 0
    w.newline = True
    tail = w.tok("RCUR")
    # the block's braces belong to the header and trailer pieces
    chunks[0] = (0, chunks[0][1] + 1)
    chunks.append((len(w.tokens) - 2, len(w.tokens)))
    tree = _node("Prog", head + [_node("BlockStmt", body), tail])
    return Program("".join(w.parts) + "\n", w.tokens, tree, chunks)


# --- mutants -----------------------------------------------------------------

def mutate(grammar, prog: Program, rng: random.Random, edits: int) -> str:
    """Apply ``edits`` single-token deletes or duplicates at distinct random
    token positions, each made with pegrec's ``delete_token`` or
    ``duplicate_token``.  Edits are applied per top-level piece, so each
    call re-lexes a few hundred characters, not the whole file; a piece
    starts and ends on token boundaries, so its tokens are the file's."""
    from pegrec import delete_token, duplicate_token

    picks = sorted(rng.sample(range(len(prog.tokens)), edits), reverse=True)
    ops = {i: rng.choice((delete_token, duplicate_token)) for i in picks}
    out: list[str] = []
    prev_end = 0
    for first, last in prog.chunks:
        start = prog.tokens[first][1]
        end = prog.tokens[last - 1][2]
        piece = prog.text[start:end]
        for i in picks:
            if first <= i < last:
                piece = ops[i](grammar, piece, i - first).text
        out.append(prog.text[prev_end:start])
        out.append(piece)
        prev_end = end
    out.append(prog.text[prev_end:])
    return "".join(out)
