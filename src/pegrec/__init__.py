"""PEG parsing with labeled failures, automatic labeling, and recovery."""

from .analysis import Analysis, TokenSet
from .annotate import AnnotationReport, AnnotatorConfig, annotate
from .diagnostics import format_error, load_messages, suppress_cascaded
from .dsl import load_grammar, parse_grammar
from .engine import (
    ErrorNode,
    MatchResult,
    ParseError,
    ParseOutcome,
    Session,
    Tree,
    ast_structural_eq,
    match,
    parse,
    tree_from_json,
    tree_to_json,
)
from .evaluate import (
    CorpusCase,
    CorpusSummary,
    classify_recovery,
    delete_token,
    duplicate_token,
    load_corpus,
    run_corpus,
)
from .model import Grammar, GrammarError, serialize_grammar, strip_labels

__all__ = [
    "Analysis",
    "AnnotationReport",
    "AnnotatorConfig",
    "CorpusCase",
    "CorpusSummary",
    "ErrorNode",
    "Grammar",
    "GrammarError",
    "MatchResult",
    "ParseError",
    "ParseOutcome",
    "Session",
    "TokenSet",
    "Tree",
    "annotate",
    "ast_structural_eq",
    "classify_recovery",
    "delete_token",
    "duplicate_token",
    "format_error",
    "load_corpus",
    "load_grammar",
    "load_messages",
    "match",
    "parse",
    "parse_grammar",
    "run_corpus",
    "serialize_grammar",
    "strip_labels",
    "suppress_cascaded",
    "tree_from_json",
    "tree_to_json",
]

__version__ = "0.1.0"
