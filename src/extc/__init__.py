"""extc: a gradual type checker for a core Elixir fragment."""

from .checker import check_programs
from .diagnostics import Diagnostic, render_json, render_text
from .expressions import ExprChecker
from .lexer import tokenize
from .parser import parse_program
from .signatures import collect_all

__version__ = "0.1.0"

__all__ = [
    "Diagnostic",
    "ExprChecker",
    "check_programs",
    "collect_all",
    "parse_program",
    "render_json",
    "render_text",
    "tokenize",
]
