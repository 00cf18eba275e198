#!/usr/bin/env python3
"""Measure recovery quality of the annotated tiny-Java grammar.

Annotates grammars/tiny_java.peg, derives a corpus of single-token mutants
from a few known-good programs, and rates how close each recovered tree
comes to the tree of the unbroken program.

    python scripts/eval_tiny_java.py --count 25 --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# make_mutants sits next to this script, on sys.path as its directory
from make_mutants import mutants_for
from pegrec.annotate import annotate
from pegrec.dsl import load_grammar
from pegrec.evaluate import load_corpus, run_corpus

GRAMMAR = Path(__file__).resolve().parent.parent / "grammars" / "tiny_java.peg"

SAMPLES = {
    "declaration": (
        "public class Example { public static void main(String[] args) "
        "{ int x = 1; } }"
    ),
    "loop_and_branch": (
        "public class Example { public static void main(String[] args) { "
        "while ( x < 10 ) { x = x + 1 ; } "
        "if ( x == 10 ) System.out.println ( x ) ; else { } } }"
    ),
    "expressions": (
        "public class Example { public static void main(String[] args) { "
        "int y = ( 1 + 2 ) * 3 ; while ( y == 9 < 8 ) y = y / 1 ; } }"
    ),
    "nested_blocks": (
        "public class Example { public static void main(String[] args) { "
        "if ( x ) { x = 1 ; } else { } } }"
    ),
}


def build_corpus(grammar, outdir: Path, count: int, seed: int) -> None:
    rng = random.Random(seed)
    for name, text in SAMPLES.items():
        for i, mutant in enumerate(mutants_for(grammar, text, count, rng)):
            (outdir / f"{name}_{i:03}.bad").write_text(mutant.text)
            (outdir / f"{name}_{i:03}.ok").write_text(text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", "--count", type=int, default=25,
                        help="mutants per sample program")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--keep", metavar="DIR",
                        help="write the corpus here instead of a temp dir")
    args = parser.parse_args()

    grammar, report = annotate(load_grammar(str(GRAMMAR)))
    if not args.json:
        print(f"annotated {GRAMMAR.name}: {len(report.inserted)} recovery "
              f"points, {len(report.skipped)} sites left alone")

    if args.keep:
        outdir = Path(args.keep)
        outdir.mkdir(parents=True, exist_ok=True)
        build_corpus(grammar, outdir, args.count, args.seed)
        summary = run_corpus(grammar, load_corpus(outdir))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            outdir = Path(tmp)
            build_corpus(grammar, outdir, args.count, args.seed)
            summary = run_corpus(grammar, load_corpus(outdir))

    if args.json:
        json.dump(summary.to_json(), sys.stdout, indent=2)
        print()
    else:
        print(summary.table())
    return summary.exit_code


if __name__ == "__main__":
    sys.exit(main())
