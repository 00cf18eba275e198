"""Automatic insertion of error labels and recovery expressions.

The annotator walks each syntactic rule tracking three facts about the
current position: whether some input must already have been consumed on
the way here (``seq``), which token kinds may legally follow the current
expression (``flw``), and whether the walk may insert labels here
(``insert``).  A terminal or non-nullable nonterminal at a ``seq``
position cannot fail by ordinary alternation, only by broken input, so it
is wrapped in an annotation [p]^l with a fresh label.  Each fresh label
gets a synthesized recovery expression (!(f1 / ... / fk) .)* that skips
tokens until one of the follow kinds, letting the parse resume where the
enclosing context can continue.

Sites are left unlabeled when labeling could change the accepted language:
the first position of a rule or alternative (failure there must stay an
ordinary backtrack), a nullable nonterminal, an alternative whose FIRST
overlaps what follows the choice, and a repetition whose body's FIRST
overlaps its follow set.  Every skip is reported with its reason.  Inside
such an alternative or repetition body, and inside a hand-written
annotation, ``insert`` is off: the walk adds and reports nothing there and
only gives hand-written labels a recovery expression.
"""

from __future__ import annotations

from functools import reduce

from .analysis import Analysis, TokenSet
from .model import (
    AnyToken,
    Choice,
    Empty,
    Expr,
    FrozenRecord,
    Grammar,
    GrammarError,
    NonTerminal,
    Not,
    Record,
    Sequence,
    Star,
    Terminal,
    Throw,
    annotation_parts,
    desugar,
    is_name,
    nesting_guard,
    render_expr,
    strip_labels,
    valid_by_construction,
)


class AnnotatorConfig(FrozenRecord):
    """preserve_existing keeps hand-written annotations as-is and only adds
    what they are missing (recovery expressions, labels elsewhere).
    star_mode_rules opts listed rules into recovering inside repetitions.
    label_prefix, empty or a grammar name, begins each fresh label."""

    _fields = ("preserve_existing", "star_mode_rules", "label_prefix")

    def __init__(self, preserve_existing: bool = False,
                 star_mode_rules: tuple[str, ...] = (), label_prefix: str = "Err"):
        vars(self).update(preserve_existing=preserve_existing,
                          star_mode_rules=star_mode_rules, label_prefix=label_prefix)


class InsertedSite(FrozenRecord):
    _fields = ("rule", "path", "label", "expected", "followed_by")

    def __init__(self, rule: str, path: str, label: str, expected: str,
                 followed_by: tuple[str, ...]):
        vars(self).update(rule=rule, path=path, label=label, expected=expected,
                          followed_by=followed_by)


class SkippedSite(FrozenRecord):
    # reason: first-position | nullable | non-disjoint-choice | repetition-overlap
    _fields = ("rule", "path", "reason", "expected")

    def __init__(self, rule: str, path: str, reason: str, expected: str):
        vars(self).update(rule=rule, path=path, reason=reason, expected=expected)


class RecoveredLabel(FrozenRecord):
    """An existing label that was given a synthesized recovery expression."""

    _fields = ("rule", "path", "label", "followed_by")

    def __init__(self, rule: str, path: str, label: str, followed_by: tuple[str, ...]):
        vars(self).update(rule=rule, path=path, label=label, followed_by=followed_by)


class AnnotationReport(Record):
    _fields = ("inserted", "skipped", "recovered", "warnings")

    def __init__(self, inserted: list[InsertedSite] | None = None,
                 skipped: list[SkippedSite] | None = None,
                 recovered: list[RecoveredLabel] | None = None,
                 warnings: list[str] | None = None):
        self.inserted = [] if inserted is None else inserted
        self.skipped = [] if skipped is None else skipped
        self.recovered = [] if recovered is None else recovered
        self.warnings = [] if warnings is None else warnings

    def to_json(self) -> dict:
        return {
            "inserted": [vars(s) | {"followed_by": list(s.followed_by)}
                         for s in self.inserted],
            "skipped": [dict(vars(s)) for s in self.skipped],
            "recovered": [vars(r) | {"followed_by": list(r.followed_by)}
                          for r in self.recovered],
            "warnings": list(self.warnings),
        }

    def format(self) -> str:
        lines = [f"inserted {len(self.inserted)} label(s), "
                 f"skipped {len(self.skipped)} site(s), "
                 f"synthesized recovery for {len(self.recovered)} existing label(s)"]
        for s in self.inserted:
            flw = ", ".join(s.followed_by)
            lines.append(f"  + {s.rule} at {s.path}: [{s.expected}]^{s.label}"
                         f"  (recover until: {flw})")
        for s in self.skipped:
            lines.append(f"  - {s.rule} at {s.path}: {s.expected}  ({s.reason})")
        for r in self.recovered:
            flw = ", ".join(r.followed_by)
            lines.append(f"  ~ {r.rule} at {r.path}: ^{r.label}"
                         f"  (recover until: {flw})")
        for w in self.warnings:
            lines.append(f"  ! {w}")
        return "\n".join(lines)


class _Annotator:
    def __init__(self, grammar: Grammar, config: AnnotatorConfig):
        self.config = config
        g = desugar(grammar)
        if not config.preserve_existing:
            g = strip_labels(g)
        self.grammar = g
        self.analysis = Analysis(g)
        self.report = AnnotationReport()
        self.recovery: dict[str, Expr] = dict(g.recovery)
        self.sync: dict[tuple[str, ...], Expr] = {}  # follow list -> _sync_expr
        self.used_labels: set[str] = set(g.labels)
        self.rule = ""
        self.counter = 0
        self.star_mode = False
        self.star_found = False

    # -- helpers ---------------------------------------------------------------

    def _fresh_label(self) -> str:
        while True:
            self.counter += 1
            candidate = f"{self.config.label_prefix}_{self.rule}_{self.counter}"
            if candidate not in self.used_labels:
                self.used_labels.add(candidate)
                return candidate

    def _sync_expr(self, kinds: tuple[str, ...]) -> Expr:
        """(!(f1 / ... / fk) .)* -- skip tokens until a follow kind; one
        expression per follow list, shared by the labels that have it."""
        found = self.sync.get(kinds)
        if found is None:
            found = self.sync[kinds] = (Star(Sequence(Not(reduce(
                Choice, [Terminal(k) for k in kinds])), AnyToken())) if kinds else Empty())
        return found

    def _addlab(self, e: Expr, flw: TokenSet, path: list[str], insert: bool) -> Expr:
        if not insert:
            return e
        label = self._fresh_label()
        kinds = tuple(self.analysis.ordered_kinds(flw))
        self.recovery[label] = self._sync_expr(kinds)
        self.report.inserted.append(InsertedSite(
            rule=self.rule, path=_fmt_path(path), label=label,
            expected=render_expr(e), followed_by=kinds,
        ))
        return Choice(e, Throw(label))

    def _skip(self, e: Expr, reason: str, path: list[str], insert: bool) -> None:
        if not insert:
            return
        self.report.skipped.append(SkippedSite(
            rule=self.rule, path=_fmt_path(path),
            reason=reason, expected=render_expr(e),
        ))

    def _register_existing(self, label: str, flw: TokenSet, path: list[str]) -> None:
        if label in self.recovery:
            return
        kinds = tuple(self.analysis.ordered_kinds(flw))
        self.recovery[label] = self._sync_expr(kinds)
        self.report.recovered.append(RecoveredLabel(
            rule=self.rule, path=_fmt_path(path), label=label, followed_by=kinds,
        ))

    # -- the walk ----------------------------------------------------------------

    def annotate_rule(self, name: str, body: Expr, star_mode: bool) -> Expr:
        self.rule = name
        self.counter = 0
        self.star_mode = star_mode
        self.star_found = False
        return self._labexp(body, False, self.analysis.follow_of(name), [], True)

    def _labexp(self, e: Expr, seq: bool, flw: TokenSet, path: list[str],
                insert: bool) -> Expr:
        """e with labels added where the algorithm allows, given ``seq``,
        ``flw`` and ``insert`` at e as the module docstring describes them;
        ``path`` locates e in its rule for the report."""
        an = self.analysis

        parts = annotation_parts(e)
        if parts is not None:
            # existing annotation (preserve mode): keep it, fill in recovery
            self._register_existing(parts[1], flw, path)
            self._labexp(parts[0], False, flw, path, insert=False)
            return e

        cls = e.__class__
        if cls is Terminal or cls is NonTerminal:
            if not seq:
                reason = "first-position"
            elif cls is NonTerminal and an.first_of(e).has_epsilon:
                reason = "nullable"
            else:
                return self._addlab(e, flw, path, insert)
            self._skip(e, reason, path, insert)
            return e

        if cls is Sequence:
            left = self._labexp(e.left, seq, an.calck(e.right, flw),
                                path + ["0"], insert)
            right_seq = seq or not an.first_of(e.left).has_epsilon
            right = self._labexp(e.right, right_seq, flw, path + ["1"], insert)
            return Sequence(left, right)

        if cls is Choice:
            if an.first_of(e.first).disjoint(an.calck(e.second, flw)):
                first = self._labexp(e.first, False, flw, path + ["0"], insert)
            else:
                # relabeling here could steal inputs from the second
                # alternative; existing labels still deserve recovery
                self._skip(e.first, "non-disjoint-choice", path + ["0"], insert)
                self._labexp(e.first, False, flw, path + ["0"], insert=False)
                first = e.first
            second = self._labexp(e.second, False, flw, path + ["1"], insert)
            out = Choice(first, second)
            if seq and not an.first_of(e).has_epsilon:
                return self._addlab(out, flw, path, insert)
            return out

        if cls is Star:
            if not an.first_of(e.body).disjoint(flw):
                self._skip(e.body, "repetition-overlap", path + ["*"], insert)
                self._labexp(e.body, False, flw, path + ["*"], insert=False)
                return e
            if self.star_mode and flw.kinds:
                # report-and-skip inside the loop: a broken element throws,
                # recovery resynchronizes at the next element start (or a
                # follow token), and the guard stops the loop cleanly once
                # a follow token is next; a region walked only for its
                # existing labels gets no star-mode label
                self.star_found |= insert
                wide = an.first_of(e.body).without_epsilon().union(
                    flw.without_epsilon())
                inner = self._labexp(e.body, False, wide, path + ["*"], insert)
                stop = reduce(Choice, [Terminal(k) for k in an.ordered_kinds(flw)])
                site = self._addlab(inner, wide, path + ["*"], insert)
                return Star(Sequence(Not(stop), site))
            return Star(self._labexp(e.body, False, flw, path + ["*"], insert))

        if cls is Throw:
            self._register_existing(e.label, flw, path)
            return e

        # Empty, Not, AnyToken: nothing to do; predicate bodies must keep
        # their exact failure behavior, so they are never annotated.
        return e


def _fmt_path(path: list[str]) -> str:
    return "/".join(path) if path else "."


@nesting_guard()
def annotate(grammar: Grammar,
             config: AnnotatorConfig | None = None) -> tuple[Grammar, AnnotationReport]:
    """Annotated copy of the grammar plus a report of what was done.

    The result is desugared; its annotation sites (p / ^l) serialize as
    [p]^l.  Labels are named <prefix>_<Rule>_<n> with n
    counting sites left to right within each rule.  A hand-built grammar
    nested too deeply to desugar or annotate is a GrammarError.
    """
    config = config or AnnotatorConfig()
    p = config.label_prefix
    if p and not is_name(p):
        raise GrammarError(f"label prefix {p!r} does not start a grammar name")
    worker = _Annotator(grammar, config)
    g = worker.grammar

    unknown = [r for r in config.star_mode_rules if r not in g.rules]
    if unknown:
        raise GrammarError(
            f"star-mode rule(s) not in grammar: {', '.join(sorted(unknown))}")
    star_rules = set(config.star_mode_rules)

    new_rules: dict[str, Expr] = {}
    for name, body in g.rules.items():
        new_rules[name] = worker.annotate_rule(name, body, name in star_rules)
        if name in star_rules and not worker.star_found:
            worker.report.warnings.append(
                f"star-mode rule {name} has no eligible repetition")

    # only fresh labels, each with a recovery expression over known kinds
    out = valid_by_construction(
        Grammar(new_rules, g.lexical, g.start, worker.recovery))
    return out, worker.report
