import random
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from pegrec import lexer, model
from pegrec.analysis import Analysis
from pegrec.annotate import annotate
from pegrec.dsl import parse_grammar
from pegrec.engine import parse
from pegrec.evaluate import token_spans
from pegrec.lexer import TokenStream, _lexer
from pegrec.model import (
    And,
    AnyToken,
    CharClass,
    Choice,
    Empty,
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
    literal_kind,
    validate,
)

from helpers import count_first_calls, naive_tokenize, pegbench_gen, random_program


def toks(grammar, text):
    stream = TokenStream(grammar, text)
    out = []
    i = 0
    while (t := stream.token(i)) is not None:
        out.append((t.kind, t.text))
        i += 1
    return out


def test_longest_match_wins():
    g = parse_grammar("start <- EQ / ASSIGN ;\nEQ <- '==' ;\nASSIGN <- '=' ;")
    assert toks(g, "== =") == [("EQ", "=="), ("ASSIGN", "=")]
    # order never makes '=' shadow '=='
    g2 = parse_grammar("start <- EQ / ASSIGN ;\nASSIGN <- '=' ;\nEQ <- '==' ;")
    assert toks(g2, "===") == [("EQ", "=="), ("ASSIGN", "=")]


def test_declaration_order_breaks_ties(tiny_java):
    assert toks(tiny_java, "while")[0] == ("WHILE", "while")
    assert toks(tiny_java, "whilex")[0] == ("NAME", "whilex")
    assert toks(tiny_java, "main") == [("MAIN", "main")]


def test_keyword_like_prefix(tiny_java):
    assert toks(tiny_java, "System.out.println") == [
        ("PRINTLN", "System.out.println")]
    assert toks(tiny_java, "System") == [("NAME", "System")]


def test_whitespace_and_comments_skipped(tiny_java):
    text = "int x // trailing comment\n  = 1 ; // another\n"
    assert toks(tiny_java, text) == [
        ("INT", "int"), ("NAME", "x"), ("ASSIGN", "="),
        ("NUMBER", "1"), ("SEMI", ";")]


def test_stray_character_becomes_kindless_token(tiny_java):
    assert toks(tiny_java, "x @ y") == [
        ("NAME", "x"), (None, "@"), ("NAME", "y")]


def test_anonymous_literals_tokenize():
    g = parse_grammar("start <- 'if' 'then' ;")
    assert toks(g, "if then") == [("'if'", "if"), ("'then'", "then")]


def test_zero_width_match_is_ignored():
    # AA can match empty; the lexer must not loop or emit empty tokens
    g = parse_grammar("start <- AA BB ;\nAA <- 'a'* ;\nBB <- 'b' ;")
    assert toks(g, "b aab") == [("BB", "b"), ("AA", "aa"), ("BB", "b")]


def test_spans_and_positions(tiny_java):
    stream = TokenStream(tiny_java, "int x\n= 1;")
    t = stream.token(2)
    assert (t.kind, t.start, t.end) == ("ASSIGN", 6, 7)
    assert stream.pos_info(t.start) == (2, 1)
    assert stream.pos_info(0) == (1, 1)


def test_a_negative_token_index_is_a_value_error(tiny_java):
    stream = TokenStream(tiny_java, "public class A { }")
    assert stream.token(4).kind == "RCUR" and stream.token(5) is None
    # it once counted from the end, and token(-1) was the RCUR
    with pytest.raises(ValueError, match="^negative token index -1$"):
        stream.token(-1)


def test_frontier_offsets(tiny_java):
    stream = TokenStream(tiny_java, "  int x  ")
    # before anything is consumed: start of the first token
    assert stream.frontier_offset(0) == 2
    # after token 0: its end
    assert stream.frontier_offset(1) == 5
    # past the last token: end of input after trailing layout
    assert stream.frontier_offset(2) == 7
    assert stream.eof_offset() == 9


GRAMMAR_DIR = Path(__file__).resolve().parent.parent / "grammars"


@pytest.mark.parametrize("grammar_file", sorted(p.name for p in GRAMMAR_DIR.glob("*.peg")))
def test_token_columns_agree_with_reference(grammar_file):
    grammar = parse_grammar((GRAMMAR_DIR / grammar_file).read_text(encoding="utf-8"))
    factorial = (GRAMMAR_DIR / "factorial.java").read_text(encoding="utf-8")
    texts = [factorial,
             factorial.replace("int f", "int @ f // stray\n # ").replace("\n", " \t\n"),
             "// only a comment", "x\u00e9 $ // trailing", "",
             " ".join(random_program(seed) for seed in range(3))]
    for text in texts:
        want = [(kind, tok, start, start + len(tok))
                for kind, tok, start in naive_tokenize(grammar, text)]
        stream = TokenStream(grammar, text)
        # ask from the back first: token(i) must not depend on the order
        got = [stream.token(i) for i in reversed(range(len(want) + 2))][::-1]
        assert got[len(want):] == [None, None]
        assert [tuple(t) for t in got[:len(want)]] == want
        assert stream.kinds == [t[0] for t in want]
        assert stream.spans == [t[2:] for t in want]
        assert all(type(span) is tuple for span in stream.spans)
        assert token_spans(grammar, text) == stream.spans


# a token is a regular pattern: a lexical rule may not reach itself, even
# after consuming input
SELF_REACHING = {
    "direct": ("NEST <- '(' NEST* ')' ;", "NEST", lambda: {
        "NEST": Sequence(Sequence(Literal("("), Star(NonTerminal("NEST"))),
                         Literal(")"))}),
    "indirect": ("AA <- 'a' BB? ;\nBB <- 'b' AA ;", "AA", lambda: {
        "AA": Sequence(Literal("a"), Optional(NonTerminal("BB"))),
        "BB": Sequence(Literal("b"), NonTerminal("AA"))}),
    "predicate": ("BB <- 'b' !BB ;", "BB", lambda: {
        "BB": Sequence(Literal("b"), Not(NonTerminal("BB")))}),
}


@pytest.mark.parametrize("case", SELF_REACHING)
def test_self_reaching_lexical_rule_is_a_grammar_error(case):
    text, name, lexical = SELF_REACHING[case]
    message = f"lexical rule {name} reaches itself; a token must be a regular pattern"
    with pytest.raises(GrammarError) as exc:
        parse_grammar("start <- . ;\n" + text)
    assert exc.value.message == message
    for entry in (lambda g: parse(g, "ab"), annotate, Analysis):
        grammar = Grammar(rules={"start": AnyToken()}, lexical=lexical(),
                          start="start")
        with pytest.raises(GrammarError) as exc:
            entry(grammar)
        assert exc.value.message == message


def test_left_recursive_lexical_rule_keeps_its_message():
    with pytest.raises(GrammarError,
                       match="^left recursion detected in lexical rule AA$"):
        parse_grammar("start <- . ;\nAA <- BB 'a' ;\nBB <- AA? 'b' ;")


def test_nested_plus_writes_its_body_once():
    # p+ desugars to p p*, which share p; written twice, the pattern would
    # grow fourfold per two levels (7184 characters at depth 8)
    def size(depth: int) -> int:
        g = parse_grammar("start <- AA ;\nAA <- " + "(" * depth + "'a'"
                          + ")+" * depth + " ;")
        assert toks(g, "aaa a") == [("AA", "aaa"), ("AA", "a")]
        return len(_lexer(g).sources["AA"])
    # one possessive group of 6 characters per level
    assert size(8) < 250
    assert size(16) - size(8) <= 30 * 8


def _doubling_chain(depth: int):
    """``XAA <- XAB XAB ; XAB <- XAC XAC ; ...`` depth rules deep, the last
    one 'a': the pattern doubles with each level once it is inlined."""
    names = [f"X{chr(65 + i // 26)}{chr(65 + i % 26)}" for i in range(depth)]
    rules = "".join(f"{a} <- {b} {b} ;\n" for a, b in zip(names, names[1:]))
    return parse_grammar(f"start <- XAA ;\n{rules}{names[-1]} <- 'a' ;\n")


def test_a_pattern_over_the_budget_is_a_grammar_error():
    # at depth 24 the pattern would be about 75 million characters long
    g = _doubling_chain(24)
    t0 = time.perf_counter()
    with pytest.raises(GrammarError, match="^lexical rule XAA is too large a pattern"):
        TokenStream(g, "a")
    assert time.perf_counter() - t0 < 1
    assert toks(_doubling_chain(8), "a" * 128) == [("XAA", "a" * 128)]
    # the bundled grammars' largest pattern is far below the budget
    for path in GRAMMAR_DIR.glob("*.peg"):
        rules = _lexer(parse_grammar(path.read_text(encoding="utf-8")))._rules
        sizes: dict[str, int] = {}
        assert max(lexer._pattern_size(k, rules, sizes) for k in rules) < 100


def test_line_starts_match_a_character_scan():
    for text in ("", "\n", "a\nb", "a\r\nb\n\n", "x\n" * 5 + "y"):
        stream = TokenStream(parse_grammar("start <- . ;"), text)
        want = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
        # built by the first pos_info
        assert stream._line_starts is None
        for offset in range(len(text) + 1):
            line = text.count("\n", 0, offset) + 1
            col = offset - (text.rfind("\n", 0, offset) + 1) + 1
            assert stream.pos_info(offset) == (line, col)
        assert stream._line_starts == want


def text_mode(path) -> str:
    """What ``read_text`` once did: the file in text mode, an OSError
    with the decoder's message when it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from exc


@pytest.mark.parametrize("data", [
    b"a\r\nb\r\n", b"a\rb\r", b"a\r\r\nb\n\r", b"\xef\xbb\xbfpublic class",
    "café ☃\r\n".encode("utf-8"), b"",
], ids=["crlf", "lone-cr", "mixed-newlines", "bom", "non-ascii", "empty"])
def test_read_text_reads_as_text_mode(tmp_path, data):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    assert lexer.read_text(path) == text_mode(path)
    assert "\r" not in lexer.read_text(path)
    if data.startswith(b"\xef\xbb\xbf"):
        # UTF-8, not UTF-8-SIG: the byte order mark stays in the text
        assert lexer.read_text(path).startswith("\ufeff")


@pytest.mark.parametrize("data", [
    b"a" * 9000 + b"\xff" + b"b",
    b"a" * 8191 + b"\xc3",
    b"x" * 8192 + "é".encode("utf-8") * 10 + b"\x80\r\n",
], ids=["bad-byte-past-8k", "cut-at-8k", "bad-continuation-past-8k"])
def test_read_text_of_a_file_that_is_not_utf8_fails_as_text_mode(tmp_path, data):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with pytest.raises(OSError) as want:
        text_mode(path)
    with pytest.raises(OSError) as got:
        lexer.read_text(path)
    assert str(got.value) == str(want.value)
    assert isinstance(got.value.__cause__, UnicodeDecodeError)


# --- differential check against the naive reference lexer ------------------------

# Mostly 'a' and 'b', so patterns overlap often; then characters special
# inside a class, layout, and comment starts.
CHARS = "aaabbb]-\\(^/) \n"


def _strings(min_size: int, max_size: int):
    return st.lists(st.sampled_from(CHARS), min_size=min_size,
                    max_size=max_size).map("".join)


@st.composite
def _lexical_expr(draw, refs: list[str], depth: int):
    kinds = ["literal", "class", "any", "empty"] + (["ref"] if refs else [])
    if depth > 0:
        kinds += ["seq", "seq", "choice", "choice", "star", "not",
                  "optional", "plus", "and"]
    kind = draw(st.sampled_from(kinds))
    if kind == "literal":
        return Literal(draw(_strings(1, 2)))
    if kind == "class":
        ranges = []
        for _ in range(draw(st.integers(0, 3))):
            lo, hi = sorted(draw(st.sampled_from(CHARS)) for _ in range(2))
            ranges.append((lo, hi))
        return CharClass(tuple(ranges))
    if kind == "any":
        return AnyToken()
    if kind == "empty":
        return Empty()
    if kind == "ref":
        return NonTerminal(draw(st.sampled_from(refs)))
    sub = _lexical_expr(refs, depth - 1)
    if kind == "seq":
        return Sequence(draw(sub), draw(sub))
    if kind == "choice":
        return Choice(draw(sub), draw(sub))
    return {"star": Star, "not": Not, "optional": Optional, "plus": Plus,
            "and": And}[kind](draw(sub))


@st.composite
def lexical_grammars(draw):
    """Random lexical rules (each referring only to later ones), plus
    anonymous literal kinds from the start rule."""
    names = ["RA", "RB", "RC", "RD"][:draw(st.integers(1, 4))]
    lexical = {}
    for i, name in enumerate(names):
        lexical[name] = draw(_lexical_expr(names[i + 1:], 3))
    start = AnyToken()
    for text in draw(st.lists(st.text(alphabet="ab()-", min_size=1, max_size=2),
                              max_size=2, unique=True)):
        start = Choice(Terminal(literal_kind(text)), start)
    return validate(Grammar(rules={"start": Star(start)}, lexical=lexical,
                            start="start"))


def _lexical(rules: str):
    return parse_grammar("start <- . ;\n" + rules)


@given(lexical_grammars(), _strings(0, 30))
@settings(max_examples=400, deadline=None)
# PEG neither backtracks into a repetition nor into a choice
@example(_lexical("RA <- 'a'* 'a' ;"), "aa a")
@example(_lexical("RA <- ('a' / 'ab') 'a' ;"), "aba aa")
@example(_lexical("RA <- 'a'+ 'a' ;"), "aa a")
# equal-length ties, a zero-width match, stray characters
@example(_lexical("RA <- 'ab' ;\nRB <- [a-b]+ ;"), "ab abb ba")
@example(_lexical("RA <- 'a'* ;\nRB <- 'b' ;"), "baab ]")
# class ranges holding ']', '-', '\\' and '^'
@example(_lexical("RA <- [\\]\\--\\\\^] ;"), "]-\\^a(")
# a rule reference inside a predicate, and p+ with a nullable p
@example(_lexical("RA <- !RB . ;\nRB <- '(' 'a'* ')' ;"), "(a) )( (")
@example(_lexical("RA <- ('a' 'b'? / '')+ 'b' ;"), "aab ab b")
# literals beside a run, declared before and after it, one the run does
# not cover, two with one text, and two runs with a first character in
# common
@example(_lexical("RA <- 'ab' ;\nRB <- [a-b][a-b]* ;\nRC <- 'ba' ;\nRD <- 'a-b' ;"),
         "ab abb ba bab a-b a-bb a- a")
@example(_lexical("RA <- 'b' ;\nRB <- [ab]+ ;\nRC <- 'b' ;\nRD <- 'a' ;"), "b bb a ab")
@example(_lexical("RA <- [a-b]+ ;\nRB <- 'a' [a\\-]* ;\nRC <- 'ab' ;"), "a ab a-a aab")
def test_lexer_agrees_with_naive_reference(grammar, text):
    stream = TokenStream(grammar, text)
    got = []
    while (t := stream.token(len(got))) is not None:
        got.append((t.kind, t.text, t.start))
    assert got == naive_tokenize(grammar, text)


# --- the plan: one pattern per group of first characters ---------------------

def _char_class(draw) -> CharClass:
    chars = st.sampled_from("-ab")
    ranges = tuple(tuple(sorted((draw(chars), draw(chars))))
                   for _ in range(draw(st.integers(1, 2))))
    return CharClass(ranges)


def _columns(stream: TokenStream) -> list[tuple]:
    """(kind, text, start) of each token, as naive_tokenize gives them."""
    return [(kind, stream.text[start:end], start)
            for kind, (start, end) in zip(stream.kinds, stream.spans)]


@st.composite
def run_grammars(draw):
    """Literals over 'ab-' beside runs ``C0 C1*`` and ``C+`` of classes
    over 'ab-', declared in any order, then anonymous literal kinds: the
    shapes for which the lexer writes a keyword table, drops a literal
    that never wins, or keeps its loop."""
    texts = st.text(alphabet="ab-", min_size=1, max_size=3)
    lexical = {}
    for name in ["RA", "RB", "RC", "RD", "RE"][:draw(st.integers(1, 5))]:
        shape = draw(st.sampled_from(["literal", "literal", "run", "plus"]))
        if shape == "literal":
            lexical[name] = Literal(draw(texts))
        elif shape == "run":
            lexical[name] = Sequence(_char_class(draw), Star(_char_class(draw)))
        else:
            lexical[name] = Plus(_char_class(draw))
    start = AnyToken()
    for text in draw(st.lists(texts, max_size=3, unique=True)):
        start = Choice(Terminal(literal_kind(text)), start)
    return validate(Grammar(rules={"start": Star(start)}, lexical=lexical,
                            start="start"))


@given(run_grammars(), st.text(alphabet="aab-- c", max_size=30))
@settings(max_examples=300, deadline=None)
# a covered literal at the end of the text, before a run character, and
# before a character outside the run that is not layout
@example(_lexical("RA <- 'ab' ;\nRB <- [ab]+ ;"), "abb ab- ab")
# two covered literals, one a prefix of the other
@example(_lexical("RA <- 'a' ;\nRB <- 'ab' ;\nRC <- [ab]+ ;"), "a ab abb ab- a- aab a")
# an uncovered literal beside a covered one it starts with
@example(_lexical("RA <- 'ab' ;\nRB <- 'ab-' ;\nRC <- [ab]+ ;"), "ab- ab ab-b abb- ab")
# a run whose C1 holds the '-' that class syntax escapes
@example(_lexical("RA <- 'a-' ;\nRB <- [a][a\\-]* ;"), "a- a-- a-a a-b a-")
def test_lexer_plan_agrees_with_naive_reference(grammar, text):
    assert _columns(TokenStream(grammar, text)) == naive_tokenize(grammar, text)


def _takes_the_loop(grammar, ch: str) -> bool:
    return _lexer(grammar).plan(ch)[0] is None


def test_the_plan_keeps_the_loop_only_where_no_rule_applies():
    # (a) literals only; (b) one rule that cannot match empty; (c) one run
    # beside literals
    g = _lexical("RA <- 'ab' ;\nRB <- [a-b][a-b]* ;\nRC <- 'ba' ;\nRD <- 'a-b' ;\n"
                 "RE <- '-' / '--' ;\nRF <- [0-9]+ ;\nRG <- '==' ;\nRH <- '=' ;")
    assert not any(_takes_the_loop(g, ch) for ch in "ab-0=@")
    # two rules that are not literals, a rule that is no run beside a
    # literal, a rule that can match empty
    for rules in ("RA <- [a-b]+ ;\nRB <- 'a' [a\\-]* ;",
                  "RA <- 'a' ;\nRB <- 'a' ('b' / 'c') ;",
                  "RA <- 'a'* ;"):
        assert _takes_the_loop(_lexical(rules), "a")
    # a covered literal declared before the run is an alternative of its
    # own, ahead of the run; one declared after it never wins and is dropped
    g = _lexical("RA <- 'ab' ;\nRB <- [ab]+ ;\nRC <- 'ba' ;")
    _, kinds = _lexer(g).plan("a")
    assert kinds == (None, "RA", "RB", None)
    _, kinds = _lexer(g).plan("b")
    assert kinds == (None, "RB", None)
    assert toks(g, "ab ba abb") == [("RA", "ab"), ("RB", "ba"), ("RB", "abb")]


def test_no_tiny_java_character_takes_the_loop(tiny_java):
    # the keywords are covered by NAME, System.out.println is not, '==' and
    # '=' are literals only and NUMBER stands alone
    assert not any(_takes_the_loop(tiny_java, chr(c)) for c in range(128))


def test_tiny_java_lexes_as_the_reference_does(tiny_java):
    gen = pegbench_gen()
    texts = ["publicx iff int_ String1 System.out.printlnx a==b=c",
             "public if int String System.out.println System.out.print Systemx "
             "class1 mainly while_ elsewhere voids static_ a===b",
             "if(x==1){int y=2;}else{System.out.println(y);}//done",
             "while(x)if(y)x=1;else int"]
    texts += [gen.program(gen.BASE, random.Random(seed), 1000).text for seed in (1, 2)]
    for text in texts:
        got = _columns(TokenStream(tiny_java, text))
        assert got == naive_tokenize(tiny_java, text)
    assert len(got) > 1000


def first_chars(rules: dict) -> dict:
    """The first-character ranges of each lexical rule, as the lexer
    computes them."""
    first = model.First(rules, lexer._first_chars)
    return {name: f.kinds for name, f in first.rules.items()}


def test_first_chars_are_linear_in_sequence_depth(monkeypatch):
    # at every level of a left-nested sequence, the first-character sets
    # once asked whether the left operand is nullable, walking its whole
    # spine again
    calls = count_first_calls(monkeypatch)

    def count(depth: int) -> int:
        body = Literal("")
        for _ in range(depth):
            body = Sequence(body, Literal("a"))
        calls.clear()
        assert first_chars({"AA": body})["AA"] == {("a", "a")}
        return len(calls)
    assert count(400) <= 2 * count(200) + 10


def test_first_chars_are_linear_in_nested_plus_depth(monkeypatch):
    # p+ desugars to p p*, which share p; with a nullable p, the
    # first-character sets once walked p twice per level
    calls = count_first_calls(monkeypatch)

    def count(depth: int) -> int:
        rules = model.desugar(parse_grammar(
            "start <- AA ;\nAA <- " + "(" * depth + "'a'?" + ")+" * depth
            + " ;")).lexical
        calls.clear()
        assert first_chars(rules)["AA"] == {("a", "a")}
        return len(calls)
    assert count(16) <= 2 * count(8) + 10
