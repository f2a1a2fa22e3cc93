"""Shared machine arithmetic.

The interpreter, the FSMD simulator, the combinational evaluator, and the
asynchronous dataflow simulator all funnel their arithmetic through these
functions so that every backend produces bit-identical results.  Semantics
are C's, restricted to fixed-width integers:

* two's-complement wrap-around on every operation (via ``IntType.wrap``);
* division truncates toward zero, as C99 requires;
* right shift is arithmetic for signed, logical for unsigned operands;
* comparisons and logical operators yield 0 or 1.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..lang.errors import InterpError
from ..lang.types import BOOL, BoolType, IntType, PointerType, Type


_BOOL_AS_INT = IntType(1, signed=False)
# Lowered pointers are word addresses into the unified memory.
_POINTER_AS_INT = IntType(32, signed=False)


def _as_int_type(value_type: Type) -> IntType:
    if isinstance(value_type, IntType):
        return value_type
    if isinstance(value_type, BoolType):
        return _BOOL_AS_INT
    if isinstance(value_type, PointerType):
        return _POINTER_AS_INT
    raise InterpError(f"expected an integer type, found {value_type}")


def wrap(value: int, value_type: Type) -> int:
    """Reduce ``value`` into the representable range of ``value_type``."""
    return _as_int_type(value_type).wrap(value)


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _c_mod(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("modulo by zero")
    return a - _c_div(a, b) * b


def _shift_amount(b: int, width: int) -> int:
    if b < 0:
        raise InterpError(f"negative shift amount {b}")
    # C leaves shifts >= width undefined; hardware masks the amount.  We
    # saturate, which every backend then agrees on.
    return min(b, width)


def eval_binary(op: str, a: int, b: int, result_type: Type) -> int:
    """Apply binary operator ``op`` to already-wrapped operands and wrap the
    result into ``result_type``."""
    rt = _as_int_type(result_type)
    if op == "+":
        return rt.wrap(a + b)
    if op == "-":
        return rt.wrap(a - b)
    if op == "*":
        return rt.wrap(a * b)
    if op == "/":
        return rt.wrap(_c_div(a, b))
    if op == "%":
        return rt.wrap(_c_mod(a, b))
    if op == "&":
        return rt.wrap(a & b)
    if op == "|":
        return rt.wrap(a | b)
    if op == "^":
        return rt.wrap(a ^ b)
    if op == "<<":
        return rt.wrap(a << _shift_amount(b, rt.width))
    if op == ">>":
        # ``a`` is already sign-correct (a Python int), so Python's
        # arithmetic shift matches signed semantics; for unsigned operands
        # ``a`` is non-negative and the shift is logical automatically.
        return rt.wrap(a >> _shift_amount(b, rt.width))
    if op == "==":
        return int(a == b)
    if op == "!=":
        return int(a != b)
    if op == "<":
        return int(a < b)
    if op == "<=":
        return int(a <= b)
    if op == ">":
        return int(a > b)
    if op == ">=":
        return int(a >= b)
    if op == "&&":
        return int(bool(a) and bool(b))
    if op == "||":
        return int(bool(a) or bool(b))
    raise InterpError(f"unknown binary operator {op!r}")


def eval_unary(op: str, a: int, result_type: Type) -> int:
    """Apply unary operator ``op`` and wrap into ``result_type``."""
    rt = _as_int_type(result_type)
    if op == "-":
        return rt.wrap(-a)
    if op == "~":
        return rt.wrap(~a)
    if op == "!":
        return int(a == 0)
    raise InterpError(f"unknown unary operator {op!r}")


# Operand-type promotion lives in the type checker; these tables let IR-level
# consumers ask which operators exist without importing the AST.
BINARY_OPS = frozenset(
    ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
     "==", "!=", "<", "<=", ">", ">=", "&&", "||"]
)
UNARY_OPS = frozenset(["-", "~", "!"])
COMPARISON_OPS = frozenset(["==", "!=", "<", "<=", ">", ">="])
