"""The generated matcher: the parse facts of the closures it replaced, and
for any valid grammar a compiled program or a GrammarError."""

import copy
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from pegrec.annotate import AnnotatorConfig, annotate
from pegrec.dsl import load_grammar, parse_grammar
from pegrec.engine import ErrorNode, Session, match, parse, tree_to_json
from pegrec.evaluate import delete_token, duplicate_token, token_spans
from pegrec.model import (
    AnyToken,
    Choice,
    Grammar,
    GrammarError,
    Literal,
    NonTerminal,
    Not,
    Plus,
    Sequence,
    Star,
    Terminal,
    Throw,
    _walk,
    desugar,
    map_children,
)

from helpers import (all_inputs, naive_match, random_grammar, random_program,
                     render_input)

ABC = "AA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;\n"


def _facts(session: Session, outcome) -> bytes:
    tree = outcome.tree
    return json.dumps([outcome.status, outcome.end, outcome.fail_label,
                       [vars(e) for e in outcome.errors],
                       None if tree is None else tree_to_json(tree),
                       session.farthest]).encode()


def _tuple_nodes(nodes) -> tuple:
    """A match's children as the closures' tuple nodes: ``(name, span,
    children)``, ``(kind, span)`` and an ErrorNode, which is what their
    repr in the digests below was taken of."""
    out = []
    for node in nodes:
        span = tuple(node["span"])
        if "error" in node:
            out.append(ErrorNode(node["error"], node["expected"], span))
        elif "token" in node:
            out.append((node["token"], span))
        else:
            out.append((node["rule"], span, _tuple_nodes(node["children"])))
    return tuple(out)


# --- the same facts as the closures ------------------------------------------
#
# Both digests were computed with the closure interpreter this matcher
# replaced, from the same code as below.  The second once also hashed a
# run with max_errors=0 after each pair, now a ValueError; it was taken
# again without those runs from a matcher that still gave the closures'
# digest with them.

def test_random_grammars_parse_as_the_closures_did():
    texts = [" ".join(chars) for n in range(5) for chars in itertools.product("abc?", repeat=n)]
    h = hashlib.sha256()
    for seed in range(200):
        star_rules = tuple(random_grammar(seed).rules)
        for g in (random_grammar(seed), annotate(random_grammar(seed))[0],
                  annotate(random_grammar(seed), AnnotatorConfig(star_mode_rules=star_rules))[0]):
            for text in texts:
                for max_errors in (50, 1):
                    session = Session(g, text, max_errors=max_errors)
                    h.update(_facts(session, session.parse()))
                result = Session(g, text).match_expr(NonTerminal(g.start), 1)
                h.update(repr({**vars(result),
                               "children": _tuple_nodes(result.children)}).encode())
    assert h.hexdigest() == "cbfc33b26d075f32243a0820421b23693f85be714313f6a16928edf06af63855"


def test_tiny_java_mutants_parse_as_the_closures_did(grammar_dir):
    # the mutants of test_dispatch_changes_no_outcome_on_tiny_java_mutants
    g = load_grammar(str(grammar_dir / "tiny_java_annotated.peg"))
    rng = random.Random(4)
    h = hashlib.sha256()
    for seed in range(30):
        program = random_program(seed)
        count = len(token_spans(g, program))
        for index in rng.sample(range(count), 4):
            for mutate in (delete_token, duplicate_token):
                text = mutate(g, program, index).text
                for max_errors in (50, 2):
                    session = Session(g, text, max_errors=max_errors)
                    h.update(_facts(session, session.parse()))
    assert h.hexdigest() == "722e06d82574832874a33beaf66e2ac6e9eea8c22cafa04316f6cbfcfee084cf"


# --- a Session answers alike on every call -------------------------------------

def test_a_reused_session_answers_as_a_fresh_one():
    texts = [render_input(kinds) for kinds in all_inputs(4)]
    for seed in range(50):
        star_rules = tuple(random_grammar(seed).rules)
        for g in (random_grammar(seed), annotate(random_grammar(seed))[0],
                  annotate(random_grammar(seed), AnnotatorConfig(star_mode_rules=star_rules))[0]):
            start = NonTerminal(g.start)
            for text in texts:
                fresh = Session(g, text)
                want = _facts(fresh, fresh.parse())
                want_match = repr(vars(Session(g, text).match_expr(start, 1)))
                session = Session(g, text)
                for _ in range(2):
                    assert _facts(session, session.parse()) == want, (seed, text)
                    assert repr(vars(session.match_expr(start, 1))) == want_match, (seed, text)


def test_factorial_parses_alike_twice_on_one_session(tiny_java_annotated_file, grammar_dir):
    session = Session(tiny_java_annotated_file, (grammar_dir / "factorial.java").read_text())
    first = session.parse()
    second = session.parse()
    for outcome in (first, second):
        assert outcome.status == "matched"
        assert [e.line for e in outcome.errors] == [5, 7]
    assert first.tree == second.tree


def _with_one_or_more(g: Grammar, seed: int, make) -> Grammar | None:
    """g with one of its stars b*, picked by seed, replaced by make(b), or
    None when g has no star."""
    stars = [e for body in g.rules.values() for e in _walk(body) if e.__class__ is Star]
    if not stars:
        return None
    target = random.Random(seed).choice(stars)

    def rewrite(e):
        return make(e.body) if e is target else map_children(e, rewrite)
    return Grammar(rules={name: rewrite(body) for name, body in g.rules.items()},
                   lexical=dict(g.lexical), start=g.start)


def test_plus_parses_as_its_hand_expansion():
    # desugaring b+ shares b between b and b*; the same expression written
    # out with two copies of b must parse alike, plainly and annotated
    texts = [render_input(kinds) for kinds in all_inputs(4)]
    compared = 0
    for seed in range(100):
        # random_grammar makes no star of a nullable body
        plus = _with_one_or_more(random_grammar(seed), seed, Plus)
        if plus is None:
            continue
        written = _with_one_or_more(random_grammar(seed), seed,
                                    lambda b: Sequence(b, Star(copy.deepcopy(b))))
        for a, b in ((plus, written), (annotate(plus)[0], annotate(written)[0])):
            for text in texts:
                sa, sb = Session(a, text), Session(b, text)
                assert _facts(sa, sa.parse()) == _facts(sb, sb.parse()), (seed, text)
        compared += 1
    assert compared > 40


# --- grammars that are hard to write as Python ---------------------------------

def test_literals_that_need_escapes_compile():
    g = parse_grammar("%start start ;\nstart <- Q* [EOF]^end ;\n"
                      "Q <- '\\'' / '\"\"\"' / '\\\\' / ')' / '\\n' / 'x' / 'größe' ;\n"
                      "%recovery\nend <- (!EOF .)* ;\n")
    out = parse(g, "' \"\"\" \\ ) x größe")
    assert out.ok
    assert [child["children"][0]["token"] for child in tree_to_json(out.tree)["children"]] == \
        ["'''", "'\"\"\"'", "'\\'", "')'", "'x'", "'größe'"]
    assert [(e.label, e.token_index) for e in parse(g, "' ? )").errors] == [("end", 1)]


def test_names_labels_and_kinds_of_any_characters_compile():
    # rule names, labels and token kinds reach the generated source only as
    # repr() or not at all
    odd = "'\"\"\"\\)\n\t\x00é"
    kind, rule, label = "Q" + odd.upper(), "r" + odd, "l" + odd
    g = Grammar(
        rules={"start": Sequence(Star(NonTerminal(rule)), Choice(Terminal("EOF"), Throw(label))),
               rule: Choice(Terminal(kind), Terminal("'" + odd + "'"))},
        lexical={kind: Literal("q")}, start="start",
        recovery={label: Star(Sequence(Not(Terminal("EOF")), AnyToken()))})
    out = parse(g, "q ? q")
    assert out.status == "matched"
    assert [(e.label, e.message, e.token_index) for e in out.errors] == \
        [(label, "expected EOF", 1)]
    assert [node["rule"] if "rule" in node else node["error"]
            for node in tree_to_json(out.tree)["children"]] == [rule, label]
    result = match(g, Sequence(NonTerminal(rule), Throw(label)), "q ?")
    assert (result.status, result.end) == ("matched", 2)
    g = parse_grammar("%start größe ;\ngröße <- [名前]^fehler_ä x* ;\nx <- 'x' ;\n"
                      "名前 <- 'y' ;\n%recovery\nfehler_ä <- (!'x' .)* ;\n")
    out = parse(g, "z y x")
    assert [(e.label, e.message) for e in out.errors] == [("fehler_ä", "expected 名前")]
    assert tree_to_json(out.tree)["children"][-1] == \
        {"rule": "x", "span": [4, 5], "children": [{"token": "'x'", "span": [4, 5]}]}


_WRAPPERS = ("!({})", "&({})", "({})*", "({})?", "({} / BB)", "(CC / {})", "(AA {})",
             "({} BB?)", "(!{} .)")


def _nested_text(depth: int, seed: int, label: bool) -> str:
    """A rule whose one expression nests predicates, repetitions and
    choices depth levels deep; with label, an annotation at every level."""
    rng = random.Random(seed)
    e = "AA"
    for n in range(depth):
        e = rng.choice(_WRAPPERS).format(e)
        if label and n % 3 == 0:
            e = f"[{e}]^l{n}"
    return ABC + "%start start ;\nstart <- " + e + " CC? ;\n"


@pytest.mark.parametrize("depth", [30, 120])
def test_deeply_nested_predicates_compile_and_match_the_reference(depth):
    # Python allows 20 statically nested blocks and 100 levels of indent
    inputs = list(all_inputs(4))
    for seed in range(20):
        g = parse_grammar(_nested_text(depth, seed, False))
        rules = desugar(g).rules
        for seq in inputs:
            want = naive_match(rules, rules["start"], seq, 0)
            got = match(g, NonTerminal("start"), render_input(seq))
            assert (got.end if got.status == "matched" else None) == want, (seed, seq)
        labeled = parse_grammar(_nested_text(depth, seed, True))
        for seq in inputs[:40]:
            assert parse(labeled, render_input(seq)).status in ("matched", "failed")


def test_nesting_deeper_than_the_stack_is_a_grammar_error():
    for depth in (2000, 30000):
        e = Terminal("AA")
        for n in range(depth):
            e = (Not, Star, lambda x: Choice(x, Terminal("BB")))[n % 3](e)
        g = Grammar(rules={"start": e}, lexical={"AA": Literal("a"), "BB": Literal("b")},
                    start="start")
        try:
            outcome = parse(g, "a")
        except GrammarError as exc:
            assert exc.message == "grammar nested too deeply"
        else:
            assert outcome.status in ("matched", "failed")


_AT_THE_DEFAULT_LIMIT = """
import sys
from pegrec.engine import Session
from pegrec.model import Choice, Grammar, Literal, Not, Sequence, Star, Terminal
assert sys.getrecursionlimit() == 1000
wrappers = {"mixed": (Not, Star, lambda x: Choice(x, Terminal("BB"))),
            "alternating": (lambda x: Choice(Sequence(Terminal("AA"), x), Terminal("BB")),)}
for shape, depth in (("mixed", 423), ("alternating", 164)):
    e = Terminal("AA")
    for n in range(depth):
        e = wrappers[shape][n % len(wrappers[shape])](e)
    Session(Grammar(rules={"start": e}, lexical={"AA": Literal("a"), "BB": Literal("b")},
                    start="start"), "a").parse()
"""


def test_hand_built_nesting_compiles_at_the_default_recursion_limit():
    # the deepest of each shape that the closures took in a fresh process
    # with the default limit; generating code takes more frames per level,
    # so it runs under the stack budget of a pegrec call
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _AT_THE_DEFAULT_LIMIT],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


# --- the generated source of the bundled grammars -------------------------------
#
# Count, total length and SHA-256 of every source the matcher compiles, in
# order, with every recovery expression compiled; a change to the code
# generator that moves any of them has to say why.

@pytest.mark.parametrize("name, functions, chars, digest", [
    ("tiny_java.peg", 20, 8925,
     "9bc2c2163d66d00bd3ff43d51d0ff158d46a0f58ee42c77edbd16becfa7b2fa1"),
    ("tiny_java_annotated.peg", 43, 17082,
     "75fe0315fe8d14263dd045b2cbfd50f2e0a1bf53eb0b47271e41926a8394f869"),
    ("tiny_java_labeled.peg", 20, 12104,
     "511dc94d4be07e90db11738fd4052af3bd9b783311c5ae1c01c17b0ad7b7bfba"),
])
def test_bundled_grammars_compile_to_the_pinned_source(grammar_dir, monkeypatch,
                                                       name, functions, chars, digest):
    sources: list[str] = []

    def recording_compile(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr("pegrec.engine.compile", recording_compile, raising=False)
    g = load_grammar(str(grammar_dir / name))
    matcher = Session(g, "")._matcher
    for label in g.recovery:
        matcher.recover(label)
    assert (len(sources), sum(map(len, sources))) == (functions, chars)
    assert hashlib.sha256("".join(sources).encode()).hexdigest() == digest
