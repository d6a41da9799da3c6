"""Tabled logic-program evaluation with mode-directed answer aggregation."""

from .engine import Engine, Stats, solve
from .errors import (
    DerivationLimitError,
    EvaluationError,
    ModeError,
    ModetabError,
    ParseError,
)
from .lang import Program, parse_program, parse_query, validate
from .terms import Struct, Var, term_to_str, variant

__version__ = "0.1.0"

__all__ = [
    "DerivationLimitError",
    "Engine",
    "EvaluationError",
    "ModeError",
    "ModetabError",
    "ParseError",
    "Program",
    "Stats",
    "Struct",
    "Var",
    "parse_program",
    "parse_query",
    "solve",
    "term_to_str",
    "validate",
    "variant",
    "__version__",
]
