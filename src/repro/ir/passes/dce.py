"""Dead-code elimination.

Two levels:

* **operation level** — a pure operation whose result feeds nothing
  (transitively) is deleted;
* **register level** — a scalar variable that is never read anywhere in the
  function, is not a global, and is not the return value, has its latches
  deleted, which in turn exposes more dead operations.
"""

from __future__ import annotations

from typing import Set

from ...lang.symtab import Symbol, SymbolKind
from ..cdfg import BasicBlock, FunctionCDFG
from ..ops import Branch, OpKind, Ret, VReg, VarRead


#: ``Operation.has_side_effect`` as a tuple: membership compares by
#: identity first, which spares a method call per op per sweep.
_SIDE_EFFECT_KINDS = (OpKind.STORE, OpKind.SEND, OpKind.RECV,
                      OpKind.BARRIER, OpKind.DELAY, OpKind.CALL)


def _sweep_block(block: BasicBlock) -> int:
    """Delete the block's pure operations whose results feed no side
    effect, latch or terminator; returns how many were deleted.

    Definitions precede uses within a block, so one reverse sweep both
    closes the liveness set (VReg ids) and decides every op."""
    live: Set[int] = set()
    for value in block.var_writes.values():
        if type(value) is VReg:
            live.add(value.id)
    terminator = block.terminator
    if isinstance(terminator, Branch):
        if type(terminator.cond) is VReg:
            live.add(terminator.cond.id)
    elif isinstance(terminator, Ret) and type(terminator.value) is VReg:
        live.add(terminator.value.id)
    kept = []
    for op in reversed(block.ops):
        if op.kind in _SIDE_EFFECT_KINDS or (
                op.dest is not None and op.dest.id in live):
            kept.append(op)
            for operand in op.operands:
                if type(operand) is VReg:
                    live.add(operand.id)
    removed = len(block.ops) - len(kept)
    if removed:
        kept.reverse()
        block.ops = kept
    return removed


def _read_vars(cdfg: FunctionCDFG) -> Set[Symbol]:
    read: Set[Symbol] = set()
    for block in cdfg.blocks:
        for op in block.ops:
            for operand in op.operands:
                if type(operand) is VarRead:
                    read.add(operand.var)
        terminator = block.terminator
        if isinstance(terminator, Branch):
            if type(terminator.cond) is VarRead:
                read.add(terminator.cond.var)
        elif isinstance(terminator, Ret) and type(terminator.value) is VarRead:
            read.add(terminator.value.var)
        for value in block.var_writes.values():
            if type(value) is VarRead:
                read.add(value.var)
    return read


def eliminate_dead_code(cdfg: FunctionCDFG) -> int:
    """Remove dead operations and dead register latches; returns the total
    number of items deleted."""
    removed = 0
    pinned = {s for s in cdfg.registers if s.kind is SymbolKind.GLOBAL}
    pinned.update(cdfg.params)
    changed = True
    while changed:
        changed = False
        read = _read_vars(cdfg)
        for block in cdfg.blocks:
            dead_latches = [v for v in block.var_writes
                            if v not in read and v not in pinned]
            for var in dead_latches:
                del block.var_writes[var]
                removed += 1
                changed = True
        for block in cdfg.blocks:
            swept = _sweep_block(block)
            if swept:
                removed += swept
                changed = True
    # The last sweep changed nothing, so ``read`` is still current.
    written = set()
    for block in cdfg.blocks:
        written.update(block.var_writes)
    cdfg.registers = [
        s
        for s in cdfg.registers
        if s in read
        or s.kind is SymbolKind.GLOBAL
        or s in cdfg.params
        or s in written
    ]
    return removed
