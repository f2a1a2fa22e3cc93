"""Common-subexpression elimination within basic blocks.

Pure operations (arithmetic, casts, selects) with identical operands are
merged.  Loads participate too, versioned by the store/fence history of
their memory: two loads from the same address with no intervening store to
that memory (or fence) collapse into one — the basic memory-reuse
optimization an HLS compiler needs for array-heavy kernels.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from ..cdfg import BasicBlock, FunctionCDFG
from ..ops import Branch, Const, Operand, OpKind, Ret, VReg, VarRead


def _operand_key(operand: Operand, type_name=str) -> Hashable:
    """An operand's value identity: a VReg's id (int), a VarRead's
    register name (str) or a Const's ``(value, type name)`` (tuple), so
    the three kinds never compare equal.  ``type_name`` maps a type to
    its name (``str``, or a memo of it)."""
    operand_class = type(operand)
    if operand_class is VReg:
        return operand.id
    if operand_class is Const:
        return (operand.value, type_name(operand.type))
    return operand.var.unique_name


#: Kinds merged by value.  Tuple membership compares by identity first,
#: which is cheaper than hashing an Enum member.
_PURE_KINDS = (OpKind.BINARY, OpKind.UNARY, OpKind.CAST, OpKind.SELECT)
#: ``Operation.is_fence`` as a tuple.
_FENCE_KINDS = (OpKind.SEND, OpKind.RECV, OpKind.BARRIER, OpKind.DELAY,
                OpKind.CALL)


def _cse_block(block: BasicBlock, type_names: Dict[int, Tuple]) -> int:
    """Block-local CSE.  Value keys are ``(kind id, operator, result type,
    operand keys)``.  ``type_names`` memoizes ``str(type)`` by object id
    for one pass; each entry holds its type, so no id is reused while the
    memo lives."""
    eliminated = 0
    table: Dict[Tuple, VReg] = {}
    # VReg id -> the earlier VReg computing the same value.
    replacements: Dict[int, VReg] = {}
    memory_version: Dict[str, int] = {}
    kept = []

    def type_name(value_type) -> str:
        entry = type_names.get(id(value_type))
        if entry is None:
            entry = type_names[id(value_type)] = (value_type, str(value_type))
        return entry[1]

    for op in block.ops:
        operands = op.operands
        if replacements:
            for i, operand in enumerate(operands):
                if type(operand) is VReg and operand.id in replacements:
                    operands[i] = replacements[operand.id]
        kind = op.kind
        dest = op.dest
        if dest is not None and (kind in _PURE_KINDS or (
                kind is OpKind.LOAD and op.array is not None)):
            operand_keys = tuple([_operand_key(o, type_name)
                                  for o in operands])
            if kind is OpKind.LOAD:
                name = op.array.unique_name  # type: ignore[union-attr]
                key: Tuple = (
                    "load", name, memory_version.get(name, 0),
                    type_name(dest.type), operand_keys,
                )
            else:
                key = (id(kind), op.op, type_name(dest.type), operand_keys)
            existing = table.get(key)
            if existing is not None and (existing.type is dest.type
                                         or existing.type == dest.type):
                replacements[dest.id] = existing
                eliminated += 1
                continue
            table[key] = dest
        if kind is OpKind.STORE and op.array is not None:
            name = op.array.unique_name
            memory_version[name] = memory_version.get(name, 0) + 1
        elif kind in _FENCE_KINDS:
            for name in list(memory_version):
                memory_version[name] += 1
            # Fences also invalidate every memoized load (conservative).
            table = {
                k: v for k, v in table.items() if k and k[0] != "load"
            }
        kept.append(op)

    block.ops = kept
    if replacements:
        block.var_writes = {
            var: replacements.get(value.id, value)
            if type(value) is VReg else value
            for var, value in block.var_writes.items()
        }
        terminator = block.terminator
        if isinstance(terminator, Branch) and type(terminator.cond) is VReg:
            terminator.cond = replacements.get(
                terminator.cond.id, terminator.cond
            )
        elif isinstance(terminator, Ret) and type(terminator.value) is VReg:
            terminator.value = replacements.get(
                terminator.value.id, terminator.value
            )
    return eliminated


def eliminate_common_subexpressions(cdfg: FunctionCDFG) -> int:
    """Run block-local CSE; returns the number of operations removed."""
    type_names: Dict[int, Tuple] = {}
    return sum(_cse_block(block, type_names) for block in cdfg.blocks)
