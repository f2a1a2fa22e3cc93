"""Frontend for the C-like hardware description language.

The public surface is deliberately small:

* :func:`parse` — source text to a type-checked AST plus semantic summary;
* :class:`Frontend` — the same, memoized per owner (see :mod:`.frontend`);
* the AST node classes in :mod:`repro.lang.ast_nodes`;
* the type constructors in :mod:`repro.lang.types`;
* :func:`print_program` — AST back to source text.
"""

from __future__ import annotations

from typing import Tuple

from . import ast_nodes
from .ast_nodes import Program
from .errors import (
    FrontendError,
    InterpError,
    LexError,
    ParseError,
    SemanticError,
    SourceLocation,
)
from .frontend import Frontend
from .lexer import tokenize
from .parser import parse_expression, parse_program
from .pretty import print_program
from .semantic import SemanticInfo, analyze
from .types import (
    ArrayType,
    BOOL,
    BoolType,
    ChannelType,
    CHAR,
    FunctionType,
    INT,
    IntType,
    PointerType,
    Type,
    UINT,
    VOID,
    VoidType,
    make_int,
)


def parse(source: str, filename: str = "<input>") -> Tuple[Program, SemanticInfo]:
    """Parse and type-check source text.

    Returns the annotated AST and the semantic summary; raises a
    :class:`FrontendError` subclass on any problem.
    """
    program = parse_program(source, filename)
    info = analyze(program)
    return program, info


__all__ = [
    "ArrayType",
    "BOOL",
    "BoolType",
    "CHAR",
    "ChannelType",
    "Frontend",
    "FrontendError",
    "FunctionType",
    "INT",
    "IntType",
    "InterpError",
    "LexError",
    "ParseError",
    "PointerType",
    "Program",
    "SemanticError",
    "SemanticInfo",
    "SourceLocation",
    "Type",
    "UINT",
    "VOID",
    "VoidType",
    "analyze",
    "ast_nodes",
    "make_int",
    "parse",
    "parse_expression",
    "parse_program",
    "print_program",
    "tokenize",
]
