#!/usr/bin/env python3
"""Time the lexer, ``TokenStream``, on the texts of three pegbench workloads.

Builds the seed-1 texts of pegbench's clean_files (17 files of about 1k,
10k and 40k tokens), broken_files (310 files with about one token deleted
or duplicated per 1k tokens) and eval_corpus (400 mutant/original pairs of
about 60 tokens) from ``pegbench/gen.py`` with ``random.Random(SEED)``, as
the workloads draw them.  Each round lexes every text once, with the cyclic
collector on and ``gc.freeze()`` before each text, as ``pegbench/run.py``
does before each operation.  Writes BENCH_lexer.json: tokens/s per set
(median round), the tokens per path of the lexer (one group pattern, the
loop over candidates, a stray character), and the machine and the Python
version.

    python scripts/bench_lexer.py                      # every text, 7 rounds
    python scripts/bench_lexer.py --files 1 --rounds 1 -o /tmp/bench.json
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from itertools import islice
from pathlib import Path
from statistics import median
from time import perf_counter

from bench_tree_json import CLASSES, ROOT, SEED, machine  # puts src/, pegbench/ on the path
import gen  # noqa: E402  (the benchmark's generator, read-only)
from pegrec import load_grammar  # noqa: E402
from pegrec.evaluate import delete_token, duplicate_token  # noqa: E402
from pegrec.lexer import TokenStream, _lexer  # noqa: E402

BROKEN = (("1k", 1000, 300), ("10k", 10000, 8), ("40k", 40000, 2))
EVAL_PROGRAMS, EVAL_TOKENS = 400, 44


def clean_texts(rng: random.Random):
    for _, size, count in CLASSES:
        for _ in range(count):
            yield gen.program(gen.BASE, rng, size).text


def broken_texts(grammar, rng: random.Random):
    for _, size, count in BROKEN:
        for _ in range(count):
            prog = gen.program(gen.BASE, rng, size)
            yield gen.mutate(grammar, prog, rng, max(1, round(len(prog.tokens) / 1000)))


def eval_texts(grammar, rng: random.Random):
    """The mutant and the original of each case, as run_case lexes them."""
    for _ in range(EVAL_PROGRAMS):
        prog = gen.program(gen.BASE, rng, EVAL_TOKENS)
        op = rng.choice((delete_token, duplicate_token))
        yield op(grammar, prog.text, rng.randrange(len(prog.tokens))).text
        yield prog.text


def paths(grammar, texts: list[str]) -> dict[str, int]:
    """Tokens by the path that lexed them."""
    counts = dict.fromkeys(("pattern", "loop", "stray"), 0)
    by_char = _lexer(grammar).by_char
    for text in texts:
        stream = TokenStream(grammar, text)
        for kind, (start, _) in zip(stream.kinds, stream.spans):
            if kind is None:
                counts["stray"] += 1
            else:
                counts["loop" if by_char[text[start]][0] is None else "pattern"] += 1
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", type=int, default=None,
                        help="lex only the first N texts of each set (default: all)")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("-o", "--out", default=str(ROOT / "BENCH_lexer.json"))
    args = parser.parse_args(argv)

    grammar = load_grammar(str(ROOT / "grammars" / "tiny_java_annotated.peg"))
    # each workload draws its texts from a generator of its own
    sets = {name: list(islice(texts, args.files)) for name, texts in (
        ("clean_files", clean_texts(random.Random(SEED))),
        ("broken_files", broken_texts(grammar, random.Random(SEED))),
        ("eval_corpus", eval_texts(grammar, random.Random(SEED))))}
    TokenStream(grammar, "")  # build the lexer before timing

    rounds = []
    for _ in range(args.rounds):
        seconds = dict.fromkeys(sets, 0.0)
        for name, texts in sets.items():
            for text in texts:
                gc.freeze()
                t0 = perf_counter()
                TokenStream(grammar, text)
                seconds[name] += perf_counter() - t0
            gc.unfreeze()
            gc.collect()
        rounds.append({name: round(s * 1000, 3) for name, s in seconds.items()})

    result = {
        "what": "one round = every text of a set lexed once by TokenStream, "
                "collector on, gc.freeze() before each text",
        "machine": machine(),
        "seed": SEED,
        "rounds": args.rounds,
        "sets": {},
        "per_round_ms": rounds,
    }
    for name, texts in sets.items():
        count = paths(grammar, texts)
        ms = median(r[name] for r in rounds)
        result["sets"][name] = {
            "texts": len(texts), "tokens": sum(count.values()),
            "median_ms_per_round": ms,
            "tok_s": round(sum(count.values()) / ms * 1000), "paths": count}
        print(f"{name:13} {len(texts):4} texts {sum(count.values()):7} tokens "
              f"{ms:9.2f} ms/round {result['sets'][name]['tok_s']:9} tok/s  {count}")
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
