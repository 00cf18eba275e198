"""Rendering and filtering of recorded syntax errors."""

from __future__ import annotations

import json
import warnings

from .engine import ParseError
from .lexer import read_text
from .model import Grammar, GrammarError, checked, nesting_guard


def format_error(filename: str, err: ParseError) -> str:
    """Conventional one-line form: <file>:<line>: syntax error, <message>."""
    return f"{filename}:{err.line}: syntax error, {err.message}"


def load_messages(path: str, grammar: Grammar | None = None) -> dict[str, str]:
    """The label-to-message table of a JSON file, for ``Session``'s
    ``messages``, which override the default messages.  A
    label unknown to the grammar, validated first, is kept but flagged
    with a warning, so a renamed label does not lose its message."""
    try:
        with nesting_guard(f"message file {path} nested too deeply"):
            data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise GrammarError(
            f"malformed message file {path}: {exc.msg}",
            exc.lineno, exc.colno) from exc
    except ValueError as exc:
        # an integer longer than int's string-conversion limit
        raise GrammarError(f"malformed message file {path}: {exc}") from None
    if not isinstance(data, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in data.items()
    ):
        raise GrammarError(f"message file {path} must map label names to strings")
    known = data if grammar is None else checked(grammar).labels
    for label in data:
        if label not in known:
            warnings.warn(f"message for unknown label {label!r} in {path}")
    return data


def suppress_cascaded(errors: list[ParseError], window: int) -> list[ParseError]:
    """Drop errors reported fewer than ``window`` tokens after the previous
    kept one.  Recovery restarts the parse mid-stream, so a burst of
    diagnostics right after a repair usually restates one mistake."""
    if window <= 0:
        return list(errors)
    kept: list[ParseError] = []
    for err in errors:
        if kept and err.token_index - kept[-1].token_index < window:
            continue
        kept.append(err)
    return kept
