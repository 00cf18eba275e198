import json
import re
import warnings

import pytest

from pegrec.diagnostics import format_error, load_messages, suppress_cascaded
from pegrec.dsl import parse_grammar
from pegrec.engine import ParseError, parse
from pegrec.model import Annotated, Grammar, GrammarError, Literal, Sequence, Terminal


def err(token_index: int, label: str = "x") -> ParseError:
    return ParseError(label=label, message="m", offset=0, line=1, col=1,
                      token_index=token_index)


def test_format_error():
    e = ParseError(label="rpw", message="missing ')' in while",
                   offset=42, line=5, col=17, token_index=9)
    assert format_error("factorial.java", e) == \
        "factorial.java:5: syntax error, missing ')' in while"


def test_suppress_cascaded_keeps_first_and_spaced():
    errors = [err(3), err(5), err(30), err(31), err(60)]
    kept = suppress_cascaded(errors, 10)
    assert [e.token_index for e in kept] == [3, 30, 60]


def test_suppress_cascaded_zero_window_keeps_all():
    errors = [err(3), err(4)]
    assert suppress_cascaded(errors, 0) == errors


def test_suppress_measures_from_last_kept():
    # 10, 15, 21: the middle one is dropped, and 21 is kept because it is
    # measured against 10, not against the suppressed 15
    errors = [err(10), err(15), err(21)]
    kept = suppress_cascaded(errors, 10)
    assert [e.token_index for e in kept] == [10, 21]


def test_load_messages_returns_the_file_table_and_parse_keeps_defaults(tmp_path):
    g = parse_grammar("start <- AA [BB]^miss [AA]^also ;\nAA <- 'a' ;\nBB <- 'b' ;")
    path = tmp_path / "messages.json"
    path.write_text(json.dumps({"miss": "b goes here"}))
    merged = load_messages(str(path), g)
    assert merged == {"miss": "b goes here"}
    # a label the file leaves out still reads what its site expects
    assert [e.message for e in parse(g, "a b", messages=merged).errors] == ["expected AA"]


def test_load_messages_warns_on_unknown_label(tmp_path):
    g = parse_grammar("start <- AA [BB]^miss ;\nAA <- 'a' ;\nBB <- 'b' ;")
    path = tmp_path / "messages.json"
    path.write_text(json.dumps({"mis": "typo"}))
    with pytest.warns(UserWarning, match="unknown label 'mis'"):
        load_messages(str(path), g)


def test_load_messages_knows_the_labels_of_a_hand_built_grammar(tmp_path):
    # a grammar's labels are derived when it is validated, which for one
    # built by hand and not used yet is load_messages' own check
    aa = Terminal("AA")
    g = Grammar(rules={"start": Sequence(aa, Annotated(aa, "l"))},
                lexical={"AA": Literal("a")}, start="start")
    path = tmp_path / "messages.json"
    path.write_text(json.dumps({"l": "custom", "zz": "x"}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert load_messages(str(path), g) == {"l": "custom", "zz": "x"}
    assert [str(w.message) for w in caught] == [f"message for unknown label 'zz' in {path}"]


def test_load_messages_rejects_malformed_json(tmp_path):
    path = tmp_path / "messages.json"
    path.write_text("{ not json")
    with pytest.raises(GrammarError) as exc:
        load_messages(str(path))
    assert exc.value.line is not None


def test_load_messages_rejects_a_file_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(GrammarError, match=f"^message file {re.escape(str(path))} "
                                           "nested too deeply$"):
        load_messages(str(path))


def test_load_messages_rejects_an_integer_too_long_to_convert(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"miss": ' + "1" * 5000 + "}")
    with pytest.raises(GrammarError, match=f"^malformed message file {re.escape(str(path))}: "
                                           "Exceeds the limit"):
        load_messages(str(path))


def test_load_messages_rejects_non_string_values(tmp_path):
    path = tmp_path / "messages.json"
    path.write_text(json.dumps({"miss": 3}))
    with pytest.raises(GrammarError, match="label names to strings"):
        load_messages(str(path))


def test_messages_flow_into_parse(tmp_path):
    g = parse_grammar("start <- AA [BB]^miss ;\nAA <- 'a' ;\nBB <- 'b' ;")
    path = tmp_path / "messages.json"
    path.write_text(json.dumps({"miss": "second letter must be b"}))
    merged = load_messages(str(path), g)
    out = parse(g, "a a", messages=merged)
    assert out.errors[0].message == "second letter must be b"
