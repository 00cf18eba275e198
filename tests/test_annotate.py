import pytest

from pegrec.annotate import AnnotatorConfig, RecoveredLabel, annotate
from pegrec.dsl import parse_grammar
from pegrec.engine import parse, tree_to_json
from pegrec.model import (
    AnyToken,
    Choice,
    GrammarError,
    Not,
    Sequence,
    Star,
    Terminal,
    Throw,
    annotation_parts,
    grammar_eq,
    serialize_grammar,
    strip_labels,
)

ABC = "AA <- 'a' ;\nBB <- 'b' ;\nCC <- 'c' ;\n"


def g(text: str):
    return parse_grammar(ABC + "%start start ;\n" + text)


def sites(report):
    return [(s.label, s.expected, set(s.followed_by)) for s in report.inserted]


def test_terminal_after_consumption_gets_label():
    ann, report = annotate(g("start <- AA BB ;"))
    assert sites(report) == [("Err_start_1", "BB", {"EOF"})]
    got = ann.rules["start"]
    assert got == Sequence(
        Terminal("AA"), Choice(Terminal("BB"), Throw("Err_start_1")))


def test_first_position_is_never_labeled():
    ann, report = annotate(g("start <- AA ;"))
    assert report.inserted == []
    assert [s.reason for s in report.skipped] == ["first-position"]


def test_recovery_synthesized_from_follow():
    ann, _ = annotate(g("start <- AA BB CC ;"))
    rec = ann.recovery["Err_start_1"]
    # stop set for BB is {CC}; skip anything else
    assert rec == Star(Sequence(Not(Terminal("CC")), AnyToken()))


def test_nullable_nonterminal_skipped():
    ann, report = annotate(g("start <- AA Tail ;\nTail <- BB / '' ;"))
    reasons = {(s.reason, s.expected) for s in report.skipped}
    assert ("nullable", "Tail") in reasons
    assert report.inserted == []


def test_non_disjoint_choice_alternative_left_alone():
    # BB starts both the first alternative and what follows the choice
    ann, report = annotate(g("start <- AA (BB CC / '') BB ;"))
    reasons = [s.reason for s in report.skipped]
    assert "non-disjoint-choice" in reasons
    # and no label was planted inside that alternative
    inner = ann.rules["start"].left.right
    first_alt = inner.first
    assert first_alt == Sequence(Terminal("BB"), Terminal("CC"))


def test_disjoint_choice_alternatives_annotated_inside():
    ann, report = annotate(g("start <- AA (BB CC / CC) ;"))
    assert ("Err_start_1", "CC", {"EOF"}) in sites(report)


def test_choice_wrapped_when_mandatory():
    ann, report = annotate(g("start <- AA (BB / CC) ;"))
    wrapped = [s for s in report.inserted if s.expected == "BB / CC"]
    assert len(wrapped) == 1
    parts = annotation_parts(ann.rules["start"].right)
    assert parts is not None


def test_nullable_choice_not_wrapped():
    ann, report = annotate(g("start <- AA (BB / '') ;"))
    assert all(s.expected != "BB / ''" for s in report.inserted)


def test_repetition_with_overlapping_follow_left_alone():
    # BB* is followed by BB CC, so a failing iteration must stay a plain
    # fail; nothing inside may be labeled
    ann, report = annotate(g("start <- AA BB* BB CC ;"))
    assert any(s.reason == "repetition-overlap" for s in report.skipped)
    star = ann.rules["start"].left.left.right
    assert star == Star(Terminal("BB"))


def test_repetition_with_disjoint_follow_annotated_inside():
    # the loop body inherits the repetition's own follow set unchanged
    ann, report = annotate(g("start <- AA (BB CC)* ;"))
    assert ("Err_start_1", "CC", {"EOF"}) in sites(report)


def test_labels_count_per_rule_and_in_order():
    ann, report = annotate(g("start <- AA BB CC Other ;\nOther <- CC AA BB ;"))
    assert [s.label for s in report.inserted] == [
        "Err_start_1", "Err_start_2", "Err_start_3",
        "Err_Other_1", "Err_Other_2"]


def test_existing_labels_replaced_by_default():
    ann, report = annotate(g("start <- AA [BB]^custom CC ;"))
    assert "custom" not in ann.labels
    assert [s.label for s in report.inserted] == ["Err_start_1", "Err_start_2"]


def test_preserve_mode_keeps_labels_and_adds_recovery():
    ann, report = annotate(
        g("start <- AA [BB]^custom CC ;"),
        AnnotatorConfig(preserve_existing=True))
    assert "custom" in ann.labels
    assert "custom" in ann.recovery
    assert [r.label for r in report.recovered] == ["custom"]
    # the unlabeled CC site still gets a fresh label
    assert [s.label for s in report.inserted] == ["Err_start_1"]


def test_preserve_mode_does_not_overwrite_user_recovery():
    text = """
start <- AA [BB]^custom CC ;
%recovery
custom <- BB ;
"""
    ann, report = annotate(g(text), AnnotatorConfig(preserve_existing=True))
    assert ann.recovery["custom"] == Terminal("BB")
    assert report.recovered == []


def test_preserve_mode_reaches_labels_in_unannotatable_spots():
    # the alternative is non-disjoint, so no new labels may go inside,
    # but the existing one still needs a recovery expression
    text = "start <- AA ([BB]^inner CC / '') BB ;"
    ann, report = annotate(g(text), AnnotatorConfig(preserve_existing=True))
    assert "inner" in ann.recovery
    # inside an overlapping repetition body and inside a hand-written
    # annotation the walk only gives existing labels recovery: it inserts
    # and skips nothing there
    for text, recovered, skipped in [
        ("start <- AA ([BB]^inner CC)* BB ;",
         [("0/1/*/0", "inner", ("CC",))],
         [("0/0", "first-position"), ("0/1/*", "repetition-overlap")]),
        ("start <- AA [BB [CC]^inner BB]^outer CC ;",
         [("0/1", "outer", ("CC",)), ("0/1/0/1", "inner", ("BB",))],
         [("0/0", "first-position")]),
    ]:
        ann, report = annotate(g(text), AnnotatorConfig(preserve_existing=True))
        assert [(r.path, r.label, r.followed_by) for r in report.recovered] == recovered
        assert [(s.path, s.label) for s in report.inserted] == [("1", "Err_start_1")]
        assert [(s.path, s.reason) for s in report.skipped] == skipped
        assert report.warnings == []


@pytest.mark.parametrize("preserve", [False, True])
def test_a_bare_throw_keeps_its_label_and_gets_recovery(preserve):
    # a throw that no annotation wraps is kept in either mode, and its
    # recovery skips to what follows it
    ann, report = annotate(g("start <- AA ^boom BB ;"),
                           AnnotatorConfig(preserve_existing=preserve))
    assert ann.rules["start"] == Sequence(
        Sequence(Terminal("AA"), Throw("boom")),
        Choice(Terminal("BB"), Throw("Err_start_1")))
    assert ann.recovery["boom"] == Star(Sequence(Not(Terminal("BB")), AnyToken()))
    assert report.recovered == [RecoveredLabel("start", "0/1", "boom", ("BB",))]
    assert report.format().splitlines() == [
        "inserted 1 label(s), skipped 1 site(s), synthesized recovery for 1 existing label(s)",
        "  + start at 1: [BB]^Err_start_1  (recover until: EOF)",
        "  - start at 0/0: AA  (first-position)",
        "  ~ start at 0/1: ^boom  (recover until: BB)",
    ]


def test_a_report_prints_its_warnings():
    _, report = annotate(g("start <- AA BB ;"),
                         AnnotatorConfig(star_mode_rules=("start",)))
    assert report.format().splitlines()[-1] == \
        "  ! star-mode rule start has no eligible repetition"


def test_fresh_labels_avoid_collisions():
    text = "start <- [AA BB]^Err_start_1 CC AA ;"
    ann, report = annotate(g(text), AnnotatorConfig(preserve_existing=True))
    fresh = [s.label for s in report.inserted]
    assert "Err_start_1" not in fresh
    assert len(set(fresh)) == len(fresh)


def test_label_prefix_configurable():
    ann, report = annotate(g("start <- AA BB ;"),
                           AnnotatorConfig(label_prefix="E"))
    assert [s.label for s in report.inserted] == ["E_start_1"]


def test_label_prefix_must_begin_a_name(tiny_java):
    # <prefix>_<Rule>_<n> is a name in grammar text for these prefixes, so
    # the annotated grammar reads back as it was written
    for prefix in ["", "Err", "_", "é"]:
        ann, _ = annotate(tiny_java, AnnotatorConfig(label_prefix=prefix))
        assert grammar_eq(parse_grammar(serialize_grammar(ann)), ann), prefix
    for prefix in ["9x", "a b", "a-b", "é!", "-"]:
        with pytest.raises(GrammarError, match=f"label prefix {prefix!r}"):
            annotate(tiny_java, AnnotatorConfig(label_prefix=prefix))


def test_star_mode_requires_known_rule():
    with pytest.raises(GrammarError, match="star-mode"):
        annotate(g("start <- AA* ;"), AnnotatorConfig(star_mode_rules=("Nope",)))


def test_star_mode_warns_without_repetition():
    _, report = annotate(g("start <- AA BB ;"),
                         AnnotatorConfig(star_mode_rules=("start",)))
    assert any("no eligible repetition" in w for w in report.warnings)


@pytest.mark.parametrize("text", [
    # the one repetition sits in an alternative that gets no labels
    "start <- (AA BB* CC) / AA DD ;\nDD <- 'd' ;",
    # the repetition's body overlaps what follows it
    "start <- AA BB* BB ;",
    "start <- AA CC ;",
])
def test_star_mode_warns_when_it_labels_no_repetition(text):
    ann, report = annotate(g(text), AnnotatorConfig(star_mode_rules=("start",)))
    assert report.warnings == ["star-mode rule start has no eligible repetition"]
    assert grammar_eq(ann, annotate(g(text))[0])


def test_star_mode_recovers_inside_repetition():
    plain, _ = annotate(g("start <- AA (BB CC)* ;"))
    # broken element: plain mode throws at the CC site and recovery skips
    # to EOF's follow; the whole remaining input lands in one error
    starred, _ = annotate(g("start <- AA (BB CC)* ;"),
                          AnnotatorConfig(star_mode_rules=("start",)))
    out = parse(starred, "a b c b b b c")
    assert out.status == "matched"
    assert out.errors  # the bad element was reported
    # and the loop carried on: the last (BB CC) group is in the tree
    kinds = ["err" if "error" in c else c["token"] for c in tree_to_json(out.tree)["children"]]
    assert kinds.count("CC") == 2


def test_annotated_grammar_still_accepts_valid_input(tiny_java):
    ann, _ = annotate(tiny_java)
    text = ("public class Example { public static void main ( String [ ] "
            "args ) { int x = 1 ; } }")
    assert parse(ann, text).ok
    assert parse(tiny_java, text).ok


def test_annotation_is_stable_under_reannotation(tiny_java):
    ann1, _ = annotate(tiny_java)
    ann2, _ = annotate(strip_labels(ann1))
    assert grammar_eq(ann1, ann2)


def test_labels_with_equal_follow_lists_share_one_recovery_expression(tiny_java, grammar_dir):
    ann, report = annotate(tiny_java)
    by_follow: dict = {}
    for site in report.inserted:
        by_follow.setdefault(site.followed_by, []).append(site.label)
    shared = [labels for labels in by_follow.values() if len(labels) > 1]
    assert shared
    for labels in by_follow.values():
        assert len({id(ann.recovery[label]) for label in labels}) == 1
    assert len({id(body) for body in ann.recovery.values()}) == len(by_follow)
    # each label still prints its own recovery rule, as the pinned text has it
    text = serialize_grammar(ann)
    pinned = (grammar_dir / "tiny_java_annotated.peg").read_text(encoding="utf-8")
    assert text in pinned
    for labels in shared:
        assert all(f"\n{label} <- " in text for label in labels)
    assert serialize_grammar(parse_grammar(text)) == text
