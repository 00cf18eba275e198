"""The four workloads, the shared reference check, and the layer pass.

A workload turns a seed into operations, runs one operation through the
public pegrec API (``run``), and checks its first output against a
reference that does not come from the parser (``check``).  Repeated runs
of an operation must give the first output again, byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from pegrec import (
    Analysis,
    AnnotatorConfig,
    Session,
    annotate,
    classify_recovery,
    delete_token,
    duplicate_token,
    format_error,
    load_corpus,
    load_grammar,
    load_messages,
    parse_grammar,
    serialize_grammar,
    tree_from_json,
    tree_to_json,
)
from pegrec import cli
from pegrec.evaluate import run_case
from pegrec.lexer import TokenStream
from pegrec.model import desugar, grammar_eq

import checks
import gen
from spans import NoTracer

ROOT = Path(__file__).resolve().parent.parent
GRAMMARS = ROOT / "grammars"
ANNOTATED = GRAMMARS / "tiny_java_annotated.peg"
MESSAGES = GRAMMARS / "tiny_java_messages.json"
TINY_JAVA = GRAMMARS / "tiny_java.peg"
LABELED = GRAMMARS / "tiny_java_labeled.peg"

# Inputs of the reference check, whose outputs are frozen in frozen.json.
REFERENCE_SEED = 20250703


def load_workload_grammar():
    """The annotated tiny-Java grammar and messages, loaded as
    ``pegrec parse --messages`` loads them."""
    grammar = load_grammar(str(ANNOTATED))
    with warnings.catch_warnings():
        # the message file names labels of tiny_java_labeled.peg
        warnings.simplefilter("ignore")
        messages = load_messages(str(MESSAGES), grammar)
    return grammar, messages


class Context:
    """What the workloads and the reference check share, plus logs the
    per-layer metrics read, kept apart by phase ("layers" or
    "reference")."""

    def __init__(self, work: Path):
        self.grammar, self.messages = load_workload_grammar()
        self.labels = self.grammar.labels | {"fail"}
        self.work = work
        # (tokens, stray tokens, lex seconds, parse seconds) per text
        self.lexed: dict[str, list] = {"layers": [], "reference": []}
        self.sites: list[tuple[int, int]] = []
        self.reference_ratings: list[str] = []


@dataclass
class Op:
    """One operation: ``cls`` is its size or kind class, ``tokens`` the
    input tokens it handles, ``data`` what ``run`` needs."""

    id: str
    cls: str
    tokens: int
    data: object


@dataclass
class Stats:
    """Exact counts over the outputs a workload checked."""

    parses: int = 0
    errors: int = 0
    error_nodes: int = 0
    tree_nodes: int = 0
    tokens: int = 0
    skipped_tokens: int = 0
    fatal: int = 0
    ratings: list = field(default_factory=list)
    sites_inserted: int = 0
    sites_skipped: int = 0

    def add_parse(self, outcome, tree_json, ntokens: int, skipped: int) -> None:
        self.parses += 1
        self.errors += len(outcome.errors)
        self.tokens += ntokens
        self.skipped_tokens += skipped
        if tree_json is None:
            self.fatal += 1
        else:
            nodes, errs = checks.count_nodes(tree_json)
            self.tree_nodes += nodes
            self.error_nodes += errs


# --- the parse operation ----------------------------------------------------

def parse_file(tr, grammar, messages, filename: str, text: str):
    """What ``pegrec parse --json`` does with one file: parse with
    recovery, format each error, convert the tree to JSON."""
    session = tr.call("engine.Session", Session, grammar, text,
                      messages=messages)
    outcome = tr.call("engine.parse", session.parse)
    lines = tr.call("diagnostics.format_error", _format_all, filename,
                    outcome.errors) if outcome.errors else []
    tree = (tr.call("engine.tree_to_json", tree_to_json, outcome.tree)
            if outcome.tree is not None else None)
    return outcome, {"status": outcome.status, "errors": lines,
                     "records": checks.error_records(outcome.errors),
                     "tree": tree}


def _format_all(filename, errors):
    return [format_error(filename, e) for e in errors]


def check_parse(outcome, out, tokens, labels, expected=None) -> tuple[str | None, int]:
    """Check one parse output; returns (problem, tokens skipped by
    recovery).  A clean input must give exactly the expected tree."""
    bad = [e.label for e in outcome.errors if e.label not in labels]
    if bad:
        return f"error labels not in the grammar: {bad}", 0
    if expected is not None:
        if outcome.errors or out["tree"] != expected:
            return "clean parse differs from the derivation tree", 0
        return None, 0
    if out["tree"] is None:
        return (None if outcome.errors else "failed parse without errors"), 0
    return checks.coverage(out["tree"], tokens,
                           checks.exempt_from(outcome, len(tokens)))


# --- workloads -------------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, ctx, seed: int):
        self.ctx = ctx
        self.rng = random.Random(seed)
        self.stats = Stats()

    def first_round(self):
        """Yield (op, check) pairs; ``check(raw, out)`` takes what
        ``run`` returned and gives a problem or None.  Inputs are made
        lazily, so the derivation trees kept for checking do not pile up."""
        raise NotImplementedError

    def run(self, tr, op):
        raise NotImplementedError

    def trace_subset(self, ops):
        """Operations the traced run repeats with and without tracing."""
        return ops

    def layer_pass(self, tr, ops) -> str | None:
        """Extra public calls for the per-layer metrics, on this
        workload's own inputs; returns a problem found, or None."""
        return None


class ParseFiles(Workload):
    """clean_files and broken_files: tiny-Java files of about 1k, 10k and
    40k tokens; one operation is one ``pegrec parse --json``."""

    # (class, tokens, files).  The counts put the latency median in the
    # 1k class and, for clean_files, the 90th percentile in the 10k class.
    # The time of a broken 10k file varies by a factor of two or more with
    # where its edits fall and what recovery then does, so a percentile
    # there would change with the seed; broken_files has so many 1k files
    # that both percentiles fall among them.
    CLEAN = (("1k", 1000, 12), ("10k", 10000, 4), ("40k", 40000, 1))
    BROKEN = (("1k", 1000, 300), ("10k", 10000, 8), ("40k", 40000, 2))

    def __init__(self, ctx, seed: int, broken: bool):
        super().__init__(ctx, seed)
        self.broken = broken
        self.classes = self.BROKEN if broken else self.CLEAN
        self.name = "broken_files" if broken else "clean_files"
        self.tokenize = checks.Tokenizer(gen.BASE)

    def first_round(self):
        g = self.ctx.grammar
        for cls, size, count in self.classes:
            for i in range(count):
                prog = gen.program(gen.BASE, self.rng, size)
                if self.broken:
                    edits = max(1, round(len(prog.tokens) / 1000))
                    text = gen.mutate(g, prog, self.rng, edits)
                    tokens = self.tokenize(text)
                else:
                    text, tokens = prog.text, prog.tokens
                op = Op(f"{cls}_{i:02}", cls, len(tokens), (f"{cls}_{i:02}.java", text))
                expected = None if self.broken else prog.tree
                yield op, (lambda outcome, out, tokens=tokens, expected=expected:
                           self._check(outcome, out, tokens, expected))

    def _check(self, outcome, out, tokens, expected):
        problem, skipped = check_parse(outcome, out, tokens, self.ctx.labels,
                                       expected)
        self.stats.add_parse(outcome, out["tree"], len(tokens), skipped)
        return problem

    def run(self, tr, op):
        filename, text = op.data
        return parse_file(tr, self.ctx.grammar, self.ctx.messages, filename, text)

    def trace_subset(self, ops):
        return [op for op in ops if op.cls == "1k"][:6] + \
               [op for op in ops if op.cls == "10k"][:1]

    def layer_pass(self, tr, ops):
        for op in self.trace_subset(ops):
            lex_and_parse(tr, self.ctx, self.ctx.grammar, op.data[1])


class EvalCorpus(Workload):
    """A few hundred ~60-token programs, one single-token mutant each,
    written as .bad/.ok pairs and rated one case at a time."""

    name = "eval_corpus"
    PROGRAMS = 400

    def __init__(self, ctx, seed: int):
        super().__init__(ctx, seed)
        self.dir = ctx.work / "corpus"
        self.tokenize = checks.Tokenizer(gen.BASE)
        self.trees: dict[str, dict] = {}
        for i in range(self.PROGRAMS):
            name = f"case_{i:04}"
            prog = gen.program(gen.BASE, self.rng, 44)
            op = self.rng.choice((delete_token, duplicate_token))
            bad = op(ctx.grammar, prog.text,
                     self.rng.randrange(len(prog.tokens))).text
            write_case(self.dir, name, bad, prog.text)
            self.trees[name] = prog.tree
        self.cases = {c.name: c for c in load_corpus(self.dir)}

    def first_round(self):
        for name, case in self.cases.items():
            bad = case.bad_path.read_text(encoding="utf-8")
            ok = case.ok_path.read_text(encoding="utf-8")
            ntok = len(self.tokenize(bad)) + len(self.tokenize(ok))
            op = Op(name, "case", ntok, case)
            yield op, (lambda result, out, name=name, bad=bad, ok=ok:
                       self._check(name, result, bad, ok))

    def _check(self, name, result, bad, ok):
        g, labels = self.ctx.grammar, self.ctx.labels
        self.stats.ratings.append(result.rating)
        if result.first_label not in labels | {None}:
            return f"first label {result.first_label!r} is not a grammar label"
        intended = self.trees.pop(name)
        clean, out = parse_file(_NO_TRACE, g, None, name, ok)
        problem, _ = check_parse(clean, out, None, labels, intended)
        if problem:
            return problem
        tokens = self.tokenize(bad)
        broken, out = parse_file(_NO_TRACE, g, None, name, bad)
        problem, skipped = check_parse(broken, out, tokens, labels)
        self.stats.add_parse(broken, out["tree"], len(tokens), skipped)
        if problem:
            return problem
        if classify_recovery(broken, tree_from_json(intended)) != result.rating:
            return "run_case rating differs from classify_recovery"
        return None

    def run(self, tr, op):
        result = tr.call("evaluate.run_case", run_case, self.ctx.grammar, op.data)
        return result, vars(result)

    def trace_subset(self, ops):
        return ops[:100]

    def layer_pass(self, tr, ops):
        tr.call("evaluate.load_corpus", load_corpus, self.dir)
        for op in self.trace_subset(ops):
            outcome = lex_and_parse(tr, self.ctx, self.ctx.grammar,
                                    op.data.bad_path.read_text(encoding="utf-8"))
            intended = Session(self.ctx.grammar,
                               op.data.ok_path.read_text(encoding="utf-8")).parse().tree
            tr.call("evaluate.classify_recovery", classify_recovery, outcome, intended)
        report = cli_eval(tr, self.dir)
        want = dict(zip(self.cases, self.stats.ratings))
        got = {c["name"]: c["rating"] for c in report["cases"]}
        if got != want:
            return "pegrec eval --json ratings differ from run_case"
        return None


class GrammarTooling(Workload):
    """load_grammar -> annotate -> Analysis -> serialize_grammar ->
    parse_grammar over the bundled grammars and larger generated ones."""

    name = "grammar_tooling"
    # generated dialects: (extra keyword statements, extra precedence levels)
    LADDER = ((2, 1), (4, 2), (6, 3), (8, 4))

    def __init__(self, ctx, seed: int):
        super().__init__(ctx, seed)
        self.grammars = [("tiny_java", TINY_JAVA, None, None),
                         ("tiny_java_labeled", LABELED, None, None)]
        ctx.work.mkdir(parents=True, exist_ok=True)
        for i, (stmts, levels) in enumerate(self.LADDER):
            lang = gen.random_language(self.rng, stmts, levels)
            path = ctx.work / f"dialect_{i}.peg"
            path.write_text(gen.grammar_text(lang), encoding="utf-8")
            self.grammars.append((f"dialect_{i}", path, lang,
                                  gen.program(lang, self.rng, 400)))
        self.annotated_body = "\n".join(
            line for line in ANNOTATED.read_text(encoding="utf-8").split("\n")
            if not line.startswith("//")).lstrip("\n")

    def first_round(self):
        for name, path, lang, sample in self.grammars:
            text = path.read_text(encoding="utf-8")
            op = Op(name, name, checks.dsl_token_count(text), path)
            yield op, (lambda result, out, name=name, lang=lang, sample=sample:
                       self._check(name, result, out, lang, sample))

    def _check(self, name, result, out, lang, sample):
        annotated, report, reparsed = result
        self.stats.sites_inserted += len(report.inserted)
        self.stats.sites_skipped += len(report.skipped)
        if not grammar_eq(reparsed, annotated):
            return "serialize_grammar/parse_grammar round trip changed the grammar"
        if serialize_grammar(reparsed) != out["text"]:
            return "serialized text is not a fixed point"
        if name == "tiny_java" and out["text"] != self.annotated_body:
            return "annotate(tiny_java) differs from tiny_java_annotated.peg"
        if sample is not None:
            # annotation must not change the language: the derivation tree
            # comes back with no errors
            outcome, tree = parse_file(_NO_TRACE, annotated, None, name, sample.text)
            self.stats.add_parse(outcome, tree["tree"], len(sample.tokens), 0)
            if outcome.errors or tree["tree"] != sample.tree:
                return "annotated dialect does not parse its sample program"
            if checks.Tokenizer(lang)(sample.text) != sample.tokens:
                return "sample tokens differ from the derivation"
        return None

    def run(self, tr, op):
        preserve = op.id == "tiny_java_labeled"
        g = tr.call("dsl.load_grammar", load_grammar, str(op.data))
        annotated, report = tr.call(
            "annotate.annotate", annotate, g,
            AnnotatorConfig(preserve_existing=preserve))
        analysis = tr.call("analysis.Analysis", Analysis, annotated)
        text = tr.call("model.serialize_grammar", serialize_grammar, annotated)
        reparsed = tr.call("dsl.parse_grammar", parse_grammar, text)
        follow = {r: sorted(analysis.follow_of(r).kinds) for r in annotated.rules}
        return (annotated, report, reparsed), {
            "text": text, "report": report.to_json(), "follow": follow}

    def layer_pass(self, tr, ops):
        for name, path, lang, sample in self.grammars:
            g = load_grammar(str(path))
            tr.call("model.desugar", desugar, g)
            if sample is not None:
                annotated, _ = annotate(g)
                outcome = lex_and_parse(tr, self.ctx, annotated, sample.text)
                tr.call("evaluate.classify_recovery", classify_recovery,
                        outcome, tree_from_json(sample.tree))


WORKLOADS = {
    "clean_files": lambda ctx, seed: ParseFiles(ctx, seed, broken=False),
    "broken_files": lambda ctx, seed: ParseFiles(ctx, seed, broken=True),
    "eval_corpus": EvalCorpus,
    "grammar_tooling": GrammarTooling,
}


_NO_TRACE = NoTracer()


# --- helpers shared by the layer pass and the reference check ---------------

def write_case(directory: Path, name: str, bad: str, ok: str) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.bad").write_text(bad, encoding="utf-8")
    (directory / f"{name}.ok").write_text(ok, encoding="utf-8")


def scan_all(grammar, text: str) -> tuple[int, int]:
    """Lex the whole text with a fresh TokenStream; (tokens, stray)."""
    stream = TokenStream(grammar, text)
    i = stray = 0
    while (tok := stream.token(i)) is not None:
        stray += tok.kind is None
        i += 1
    return i, stray


def lex_and_parse(tr, ctx, grammar, text: str):
    """Lex the text alone, then parse it, logging both times for
    lexer.scan_tok_s and lexer.share."""
    t0 = perf_counter()
    ntok, stray = tr.call("lexer.TokenStream", scan_all, grammar, text)
    t1 = perf_counter()
    session = tr.call("engine.Session", Session, grammar, text)
    outcome = tr.call("engine.parse", session.parse)
    t2 = perf_counter()
    ctx.lexed.setdefault(tr.phase, []).append((ntok, stray, t1 - t0, t2 - t1))
    return outcome


def cli_eval(tr, directory: Path) -> dict:
    """One in-process ``pegrec eval GRAMMAR DIR --json``."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        tr.call("cli.main", cli.main, ["eval", str(ANNOTATED), str(directory), "--json"])
    return json.loads(buf.getvalue())


# --- the reference check ----------------------------------------------------

def reference_outputs(tr, ctx) -> dict[str, str]:
    """Digests of outputs on fixed inputs, one per item, to compare with
    the frozen outputs of the seed commit.  Touches every layer."""
    rng = random.Random(REFERENCE_SEED)
    g, messages = ctx.grammar, ctx.messages
    out: dict[str, str] = {}

    programs = [gen.program(gen.BASE, rng, 300) for _ in range(3)]
    for i, prog in enumerate(programs):
        outcome, res = parse_file(tr, g, messages, f"clean_{i}.java", prog.text)
        out[f"parse.clean_{i}"] = checks.digest(res)
        intended = outcome.tree
        for j in range(2):
            text = gen.mutate(g, prog, rng, 2)
            outcome = lex_and_parse(tr, ctx, g, text)
            _, res = parse_file(tr, g, messages, f"broken_{i}_{j}.java", text)
            rating = tr.call("evaluate.classify_recovery", classify_recovery,
                             outcome, intended)
            out[f"parse.broken_{i}_{j}"] = checks.digest([res, rating])

    tiny = tr.call("dsl.load_grammar", load_grammar, str(TINY_JAVA))
    tr.call("dsl.load_grammar", load_grammar, str(ANNOTATED))
    tr.call("model.desugar", desugar, g)
    tr.call("analysis.Analysis", Analysis, tiny)
    labeled = load_grammar(str(LABELED))
    dialect = parse_grammar(gen.grammar_text(gen.random_language(rng, 3, 2)))
    for name, grammar, preserve in (("tiny_java", tiny, False),
                                    ("tiny_java_labeled", labeled, True),
                                    ("dialect", dialect, False)):
        annotated, report = tr.call("annotate.annotate", annotate, grammar,
                                    AnnotatorConfig(preserve_existing=preserve))
        ctx.sites.append((len(report.inserted), len(report.skipped)))
        text = tr.call("model.serialize_grammar", serialize_grammar, annotated)
        out[f"annotate.{name}"] = checks.digest([text, report.to_json()])

    corpus = ctx.work / "reference_corpus"
    for i in range(16):
        prog = gen.program(gen.BASE, rng, 44)
        op = rng.choice((delete_token, duplicate_token))
        bad = op(g, prog.text, rng.randrange(len(prog.tokens))).text
        write_case(corpus, f"case_{i:02}", bad, prog.text)
    cases = tr.call("evaluate.load_corpus", load_corpus, corpus)
    results = [tr.call("evaluate.run_case", run_case, g, c) for c in cases]
    ctx.reference_ratings = [r.rating for r in results]
    out["evaluate.ratings"] = checks.digest([vars(r) for r in results])
    out["cli.eval"] = checks.digest(cli_eval(tr, corpus))
    return out
