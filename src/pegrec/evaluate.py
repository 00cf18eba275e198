"""Recovery-quality measurement.

A corpus case pairs a broken source file with the corrected source it was
derived from.  Both are parsed with the same grammar; the recovered tree is
compared to the intended tree structurally (rule names and token kinds
only, spans ignored).  An error placeholder counts as equal to the single
node it stands in for when its expectation names that node's kind.  Each
case is then rated:

  excellent     recovered tree structurally equal to the intended tree
  needs-review  parse produced a tree, but not the intended shape
  failed        recovery did not produce a tree at all

The harness also checks the first reported label when the case declares
which one it expects, so a corpus can pin down where each breakage is
detected, not just that something was.
"""

from __future__ import annotations

import json
from pathlib import Path

from .engine import (
    DEFAULT_MAX_ERRORS,
    ParseOutcome,
    Session,
    Tree,
    ast_structural_eq,
    tree_from_json,
)
from .lexer import TokenStream, read_text
from .model import FrozenRecord, Grammar, Record, nesting_guard

EXCELLENT = "excellent"
NEEDS_REVIEW = "needs-review"
FAILED = "failed"


def classify_recovery(outcome: ParseOutcome, intended: Tree | None) -> str:
    if outcome.tree is None:
        return FAILED
    if intended is not None and ast_structural_eq(outcome.tree, intended):
        return EXCELLENT
    return NEEDS_REVIEW


# --- corpus ------------------------------------------------------------------

class CorpusCase(FrozenRecord):
    _fields = ("name", "bad_path", "ok_path", "tree_path", "label_path")

    def __init__(self, name: str, bad_path: Path, ok_path: Path | None = None,
                 tree_path: Path | None = None, label_path: Path | None = None):
        vars(self).update(name=name, bad_path=bad_path, ok_path=ok_path,
                          tree_path=tree_path, label_path=label_path)


class CaseResult(Record):
    _fields = ("name", "rating", "error_count", "first_label", "expected_label",
               "label_ok", "note")

    def __init__(self, name: str, rating: str, error_count: int, first_label: str | None,
                 expected_label: str | None, label_ok: bool, note: str = ""):
        self.name = name
        self.rating = rating
        self.error_count = error_count
        self.first_label = first_label
        self.expected_label = expected_label
        self.label_ok = label_ok
        self.note = note


class CorpusSummary(Record):
    _fields = ("results", "unreadable")

    def __init__(self, results: list[CaseResult] | None = None,
                 unreadable: list[str] | None = None):
        self.results = [] if results is None else results
        self.unreadable = [] if unreadable is None else unreadable

    def count(self, rating: str) -> int:
        return sum(1 for r in self.results if r.rating == rating)

    @property
    def label_mismatches(self) -> int:
        return sum(1 for r in self.results if not r.label_ok)

    @property
    def exit_code(self) -> int:
        # unreadable inputs are reported but do not fail the run
        return 1 if self.count(FAILED) or self.label_mismatches else 0

    def table(self) -> str:
        total = len(self.results)
        lines = [f"{'category':<14}{'count':>7}{'percent':>10}"]
        for rating in (EXCELLENT, NEEDS_REVIEW, FAILED):
            n = self.count(rating)
            pct = 100.0 * n / total if total else 0.0
            lines.append(f"{rating:<14}{n:>7}{pct:>9.1f}%")
        lines.append(f"{'total':<14}{total:>7}")
        if self.label_mismatches:
            lines.append(f"label mismatches: {self.label_mismatches}")
        for name in self.unreadable:
            lines.append(f"unreadable: {name}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "cases": [dict(vars(r)) for r in self.results],
            "counts": {rating: self.count(rating)
                       for rating in (EXCELLENT, NEEDS_REVIEW, FAILED)},
            "label_mismatches": self.label_mismatches,
            "unreadable": list(self.unreadable),
        }


def load_corpus(directory: str | Path) -> list[CorpusCase]:
    """Cases from a directory: <name>.bad is the broken input; optional
    <name>.ok (corrected source), <name>.tree (intended tree as JSON), and
    <name>.label (expected first label) refine the check.  ``run_corpus``
    lists a case whose file cannot be read, is not UTF-8, or (``.tree``)
    holds no tree as unreadable.  A path that is not a directory is an
    OSError naming it."""
    directory = Path(directory)
    if not directory.is_dir():
        raise OSError(f"{directory}: not a directory")
    cases = []
    for bad in sorted(directory.glob("*.bad")):
        # the name with only ".bad" dropped: fact.v1.bad pairs with fact.v1.ok
        ok, tree, label = (bad.with_name(bad.stem + ext)
                           for ext in (".ok", ".tree", ".label"))
        cases.append(CorpusCase(
            name=bad.stem,
            bad_path=bad,
            ok_path=ok if ok.exists() else None,
            tree_path=tree if tree.exists() else None,
            label_path=label if label.exists() else None,
        ))
    return cases


def _read_tree(path):
    """The syntax tree a ``.tree`` file holds as JSON (``tree_to_json``).
    A file that holds no such tree is an OSError naming it, like one that
    cannot be read."""
    text = read_text(path)
    with nesting_guard():
        try:
            return tree_from_json(json.loads(text))
        except (ValueError, RecursionError) as exc:
            raise OSError(f"{path}: not a JSON syntax tree: {exc!r}") from None


def run_case(grammar: Grammar, case: CorpusCase,
             max_errors: int = DEFAULT_MAX_ERRORS) -> CaseResult:
    text = read_text(case.bad_path)
    expected_label = None
    if case.label_path is not None:
        expected_label = read_text(case.label_path).strip() or None
    outcome = Session(grammar, text, max_errors=max_errors).parse()

    intended = None
    note = ""
    if case.tree_path is not None:
        intended = _read_tree(case.tree_path)
    elif case.ok_path is not None:
        ok_outcome = Session(grammar, read_text(case.ok_path)).parse()
        if ok_outcome.ok:
            intended = ok_outcome.tree
        else:
            note = "corrected source does not parse cleanly"

    rating = classify_recovery(outcome, intended)
    if intended is None and rating != FAILED:
        note = note or "no intended tree to compare against"

    first_label = outcome.errors[0].label if outcome.errors else None
    label_ok = expected_label is None or first_label == expected_label
    return CaseResult(
        name=case.name, rating=rating,
        error_count=len(outcome.errors),
        first_label=first_label,
        expected_label=expected_label,
        label_ok=label_ok, note=note,
    )


def run_corpus(grammar: Grammar, cases: list[CorpusCase],
               max_errors: int = DEFAULT_MAX_ERRORS) -> CorpusSummary:
    summary = CorpusSummary()
    for case in cases:
        try:
            summary.results.append(run_case(grammar, case, max_errors))
        except OSError as exc:
            summary.unreadable.append(f"{case.name}: {exc}")
    return summary


# --- mutation ----------------------------------------------------------------

class Mutant(FrozenRecord):
    """A single-token edit of a valid source text."""

    _fields = ("text", "kind", "token_index", "token_text")

    def __init__(self, text: str, kind: str, token_index: int, token_text: str):
        # kind: "delete" or "duplicate"
        vars(self).update(text=text, kind=kind, token_index=token_index,
                          token_text=token_text)


def token_spans(grammar: Grammar, text: str) -> list[tuple[int, int]]:
    """The (start, end) offsets of every token of text."""
    return TokenStream(grammar, text).spans


def _token_span(grammar: Grammar, text: str, index: int) -> tuple[int, int]:
    """The span of token index of text; an index out of range is a ValueError."""
    if index < 0:
        raise ValueError(f"negative token index {index}")
    spans = token_spans(grammar, text)
    if index >= len(spans):
        raise ValueError(f"token index {index} is past the last of {len(spans)} tokens")
    return spans[index]


def delete_token(grammar: Grammar, text: str, index: int) -> Mutant:
    s, e = _token_span(grammar, text, index)
    # a space keeps the neighbors from fusing into one token
    return Mutant(text[:s] + " " + text[e:], "delete", index, text[s:e])


def duplicate_token(grammar: Grammar, text: str, index: int) -> Mutant:
    s, e = _token_span(grammar, text, index)
    return Mutant(text[:e] + " " + text[s:e] + text[e:],
                  "duplicate", index, text[s:e])
