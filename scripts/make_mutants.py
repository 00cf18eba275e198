#!/usr/bin/env python3
"""Build a recovery corpus by mutating known-good source files.

Each mutant is a single-token deletion or duplication of one input file.
Mutants that still parse without errors are discarded; the rest are written
as <stem>_<n>.bad next to a <stem>_<n>.ok copy of the original, the layout
`pegrec eval` expects.

    python scripts/make_mutants.py grammars/tiny_java.peg good/*.java -o corpus/
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pegrec.annotate import annotate
from pegrec.dsl import load_grammar
from pegrec.engine import Session
from pegrec.evaluate import delete_token, duplicate_token, token_spans


def mutants_for(grammar, text: str, count: int, rng: random.Random):
    spans = token_spans(grammar, text)
    produced = 0
    attempts = 0
    while produced < count and attempts < count * 20:
        attempts += 1
        index = rng.randrange(len(spans))
        op = rng.choice((delete_token, duplicate_token))
        mutant = op(grammar, text, index)
        outcome = Session(grammar, mutant.text).parse()
        if outcome.ok:
            continue  # still a valid program, useless as an error case
        produced += 1
        yield mutant


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("grammar")
    parser.add_argument("sources", nargs="+", help="files that parse cleanly")
    parser.add_argument("-o", "--output", default="corpus",
                        help="directory for .bad/.ok pairs")
    parser.add_argument("-n", "--count", type=int, default=10,
                        help="mutants per source file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-annotate", action="store_true",
                        help="use the grammar as-is instead of annotating it")
    args = parser.parse_args()

    grammar = load_grammar(args.grammar)
    if not args.no_annotate:
        grammar, _ = annotate(grammar)
    rng = random.Random(args.seed)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)

    total = 0
    for source in args.sources:
        text = Path(source).read_text(encoding="utf-8")
        outcome = Session(grammar, text).parse()
        if not outcome.ok:
            print(f"skipping {source}: does not parse cleanly",
                  file=sys.stderr)
            continue
        stem = Path(source).stem
        for i, mutant in enumerate(mutants_for(grammar, text,
                                               args.count, rng)):
            (outdir / f"{stem}_{i:03}.bad").write_text(mutant.text,
                                                       encoding="utf-8")
            (outdir / f"{stem}_{i:03}.ok").write_text(text, encoding="utf-8")
            total += 1
            print(f"{stem}_{i:03}: {mutant.kind} "
                  f"{mutant.token_text!r} at token {mutant.token_index}")
    print(f"wrote {total} cases to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
