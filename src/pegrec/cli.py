"""Command-line interface.

    pegrec annotate GRAMMAR [-o OUT] [--preserve] [--star-rules A,B]
                            [--report [FILE]]
    pegrec analyze GRAMMAR [--first [RULE]] [--follow [RULE]]
    pegrec parse GRAMMAR FILE [--messages M.json] [--json] [--suppress-within N]
    pegrec eval GRAMMAR DIR [--json]

``parse`` exits 0 on a clean parse, 1 when errors were recovered, and 2
when the input could not be parsed at all.  ``eval`` exits 1 when any case
failed outright or detected the wrong label, and 2 when DIR is not a
directory.
"""

from __future__ import annotations

import argparse
import json
import sys

from .annotate import AnnotatorConfig, annotate
from .analysis import Analysis
from .diagnostics import format_error, load_messages, suppress_cascaded
from .dsl import load_grammar
from .engine import DEFAULT_MAX_ERRORS, Session, tree_to_json_text
from .evaluate import load_corpus, run_corpus
from .lexer import read_text
from .model import GrammarError, serialize_grammar


def _cmd_annotate(args) -> int:
    grammar = load_grammar(args.grammar)
    config = AnnotatorConfig(
        preserve_existing=args.preserve,
        star_mode_rules=tuple(
            r for r in (args.star_rules or "").split(",") if r),
        label_prefix=args.prefix,
    )
    annotated, report = annotate(grammar, config)
    text = serialize_grammar(annotated)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    if isinstance(args.report, str):
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(report.to_json(), f, indent=2)
            f.write("\n")
    elif args.report:
        print(report.format(), file=sys.stderr)
    return 0


def _set_lines(analysis, ts) -> list[str]:
    lines = analysis.ordered_kinds(ts)
    if ts.has_epsilon:
        lines.append("ε")
    return lines


def _cmd_analyze(args) -> int:
    grammar = load_grammar(args.grammar)
    analysis = Analysis(grammar)
    # a flag given with a rule name prints that one set, one kind per line
    named = [(sel, get) for sel, get in ((args.first, analysis.first_of_rule),
                                         (args.follow, analysis.follow_of))
             if isinstance(sel, str)]
    if named:
        for name, set_of in named:
            for line in _set_lines(analysis, set_of(name)):
                print(line)
        return 0
    show_first = args.first or not args.follow
    show_follow = args.follow or not args.first
    if show_first:
        for name in grammar.rules:
            print(f"FIRST({name}) = "
                  f"{analysis.format_set(analysis.first_of_rule(name))}")
    if show_follow:
        for name in grammar.rules:
            print(f"FOLLOW({name}) = "
                  f"{analysis.format_set(analysis.follow_of(name))}")
    return 0


def _cmd_parse(args) -> int:
    grammar = load_grammar(args.grammar)
    messages = load_messages(args.messages, grammar) if args.messages else None
    text = read_text(args.file)
    outcome = Session(grammar, text, max_errors=args.max_errors,
                      messages=messages).parse()
    errors = outcome.errors
    if args.suppress_within:
        errors = suppress_cascaded(errors, args.suppress_within)
    for err in errors:
        print(format_error(args.file, err), file=sys.stderr)
    if args.json and outcome.tree is not None:
        # one line, as json.dumps writes tree_to_json's dicts with no indent
        sys.stdout.write(tree_to_json_text(outcome.tree))
        sys.stdout.write("\n")
    if outcome.status == "failed":
        return 2
    return 1 if errors else 0


def _cmd_eval(args) -> int:
    grammar = load_grammar(args.grammar)
    cases = load_corpus(args.corpus)
    summary = run_corpus(grammar, cases, max_errors=args.max_errors)
    if args.json:
        json.dump(summary.to_json(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(summary.table())
    return summary.exit_code


def _at_least_one(text: str) -> int:
    # a parse that may record no error fails with none to report
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pegrec",
        description="PEG parsing with labeled failures and error recovery")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate",
                       help="insert error labels and recovery expressions")
    p.add_argument("grammar")
    p.add_argument("-o", "--output", help="write the grammar here (default stdout)")
    p.add_argument("--preserve", action="store_true",
                   help="keep existing labels; only fill in what is missing")
    p.add_argument("--star-rules", metavar="RULES",
                   help="comma-separated rules that recover inside repetitions")
    p.add_argument("--prefix", default="Err", help="fresh label prefix")
    p.add_argument("--report", nargs="?", const=True, metavar="FILE",
                   help="describe inserted and skipped sites "
                        "(JSON to FILE, or readable text to stderr)")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("analyze", help="print FIRST and FOLLOW sets")
    p.add_argument("grammar")
    p.add_argument("--first", nargs="?", const=True, metavar="RULE",
                   help="FIRST sets; with RULE, that set one kind per line")
    p.add_argument("--follow", nargs="?", const=True, metavar="RULE",
                   help="FOLLOW sets; with RULE, that set one kind per line")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("parse", help="parse a file, recovering from errors")
    p.add_argument("grammar")
    p.add_argument("file")
    p.add_argument("--messages", help="JSON file mapping labels to messages")
    p.add_argument("--json", action="store_true",
                   help="print the syntax tree as JSON on one line")
    p.add_argument("--suppress-within", type=int, default=0, metavar="N",
                   help="drop errors within N tokens of the previous one")
    p.add_argument("--max-errors", type=_at_least_one, default=DEFAULT_MAX_ERRORS)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("eval", help="rate recovery quality over a corpus")
    p.add_argument("grammar")
    p.add_argument("corpus", help="directory of .bad/.ok/.tree/.label files")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-errors", type=_at_least_one, default=DEFAULT_MAX_ERRORS)
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GrammarError, OSError) as exc:
        print(f"pegrec: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
