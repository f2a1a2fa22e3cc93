"""Constant folding and algebraic simplification on the CDFG.

Folds pure operations whose operands are all constants (using the shared
machine arithmetic, so folding can never disagree with simulation), applies
the usual algebraic identities, and converts branches on constants into
jumps so that :mod:`.simplify` can prune the dead arm.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...interp.machine import eval_binary, eval_unary, wrap
from ...lang.errors import InterpError
from ..cdfg import BasicBlock, FunctionCDFG
from ..ops import Branch, Const, Jump, Operand, Operation, OpKind, Ret, VReg


def _subst(operand: Operand, replacements: Dict[int, Operand]) -> Operand:
    if type(operand) is VReg and operand.id in replacements:
        return replacements[operand.id]
    return operand


def _algebraic(op: Operation) -> Optional[Operand]:
    """Identity simplifications returning a replacement operand, if any."""
    if op.kind is not OpKind.BINARY or len(op.operands) != 2:
        return None
    a, b = op.operands
    a_const = a.value if isinstance(a, Const) else None
    b_const = b.value if isinstance(b, Const) else None
    result_type = op.dest.type if op.dest is not None else None
    if result_type is None:
        return None

    def same_type(x: Operand) -> bool:
        return x.type == result_type

    if op.op == "+":
        if a_const == 0 and same_type(b):
            return b
        if b_const == 0 and same_type(a):
            return a
    elif op.op == "-":
        if b_const == 0 and same_type(a):
            return a
    elif op.op == "*":
        if a_const == 1 and same_type(b):
            return b
        if b_const == 1 and same_type(a):
            return a
        if a_const == 0 or b_const == 0:
            return Const(0, result_type)
    elif op.op in ("&",):
        if a_const == 0 or b_const == 0:
            return Const(0, result_type)
    elif op.op in ("|", "^"):
        if a_const == 0 and same_type(b):
            return b
        if b_const == 0 and same_type(a):
            return a
    elif op.op in ("<<", ">>"):
        if b_const == 0 and same_type(a):
            return a
    return None


def _fold_block(block: BasicBlock) -> int:
    folded = 0
    # VReg id -> the operand that now stands for it.
    replacements: Dict[int, Operand] = {}
    kept = []
    for op in block.ops:
        operands = op.operands
        if replacements:
            for i, operand in enumerate(operands):
                if type(operand) is VReg and operand.id in replacements:
                    operands[i] = replacements[operand.id]
        dest = op.dest
        if dest is None:
            kept.append(op)
            continue
        kind = op.kind
        try:
            if operands and (kind is OpKind.BINARY or kind is OpKind.UNARY
                             or kind is OpKind.CAST):
                for operand in operands:
                    if type(operand) is not Const:
                        break
                else:
                    if kind is OpKind.BINARY:
                        value = eval_binary(op.op, operands[0].value,
                                            operands[1].value, dest.type)
                    elif kind is OpKind.UNARY:
                        value = eval_unary(op.op, operands[0].value, dest.type)
                    else:
                        value = wrap(operands[0].value, dest.type)
                    replacements[dest.id] = Const(value, dest.type)
                    folded += 1
                    continue
            elif kind is OpKind.SELECT and type(operands[0]) is Const:
                chosen = operands[1] if operands[0].value else operands[2]
                if chosen.type == dest.type:
                    replacements[dest.id] = chosen
                    folded += 1
                    continue
                rewritten = Operation(
                    kind=OpKind.CAST, dest=dest, operands=[chosen],
                    constraint=op.constraint,
                )
                kept.append(rewritten)
                continue
        except InterpError:
            # Folding would trap (e.g. division by zero); leave it for runtime.
            kept.append(op)
            continue
        # Every identity needs a constant operand.
        simplified = None
        if kind is OpKind.BINARY and len(operands) == 2 and (
                type(operands[0]) is Const or type(operands[1]) is Const):
            simplified = _algebraic(op)
        if simplified is not None:
            replacements[dest.id] = simplified
            folded += 1
            continue
        kept.append(op)
    block.ops = kept
    terminator = block.terminator
    if replacements:
        block.var_writes = {
            var: _subst(value, replacements)
            for var, value in block.var_writes.items()
        }
        if isinstance(terminator, Branch):
            terminator.cond = _subst(terminator.cond, replacements)
        elif isinstance(terminator, Ret) and terminator.value is not None:
            terminator.value = _subst(terminator.value, replacements)
    if isinstance(terminator, Branch) and isinstance(terminator.cond, Const):
        target = terminator.if_true if terminator.cond.value else terminator.if_false
        block.terminator = Jump(target)
        folded += 1
    return folded


def fold_constants(cdfg: FunctionCDFG) -> int:
    """Fold constants throughout; returns the number of simplifications."""
    return sum(_fold_block(block) for block in cdfg.blocks)
