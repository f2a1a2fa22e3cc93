"""Chain load/store elimination within basic blocks.

Two block-local memory optimizations that :mod:`.cse` (which only merges
load/load pairs) cannot express:

* **store-to-load forwarding** — ``store a[k] = v`` followed by
  ``x = load a[k]`` with a syntactically identical index and no
  intervening store to ``a`` or fence rewrites every use of ``x`` to
  ``v``.  The store itself stays (memory must still be updated); the
  load disappears, freeing a memory-port slot in the schedule.
* **redundant-store removal** — ``store a[k] = v1`` superseded by a
  later ``store a[k] = v2`` in the same block, with *no* load from ``a``
  in between (any load from the array may alias — index keys prove
  equality, never disequality) and no fence, deletes the earlier store.
  Final memory contents are bit-identical.

Both rules count removed memory operations so the port-occupancy
statistics behind TIM302 reflect traffic the hardware would actually
issue, not traffic the mid-end already proved away.

Safety notes:

* Index equality uses :func:`repro.ir.passes.cse._operand_key` — Consts
  by value+type, VarReads by register (stable across the block: VarRead
  is the block-entry value), VRegs by identity.
* Forwarding additionally requires the stored value's static type to
  equal the load destination's type: loads return the raw stored word,
  so a type-changing forward would skip the wrap a CAST performs.
* Stores to *global* arrays are never removed: a concurrently running
  process may observe the intermediate memory state between the two
  stores.  Forwarding from a global-array store is allowed — it reasons
  about values already read within one machine's block, the same
  single-machine stance block-local load/load CSE already takes.
* Fences (send/recv/wait/delay/call) clobber all tracked state, exactly
  as they version memory in CSE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Tuple

from ...lang.symtab import SymbolKind
from ..cdfg import BasicBlock, FunctionCDFG
from ..ops import Branch, Operand, Operation, OpKind, Ret, VReg
from .cse import _operand_key


@dataclass
class _PendingStore:
    op: Operation
    index_key: Hashable
    value: Operand
    observed: bool = False  # a later load from this array may have read it


def _chain_block(block: BasicBlock) -> Tuple[int, int]:
    forwarded = 0
    stores_removed = 0
    pending: Dict[str, _PendingStore] = {}
    replacements: Dict[VReg, Operand] = {}
    kept = []
    drop = set()

    def substitute(operand: Operand) -> Operand:
        if isinstance(operand, VReg):
            return replacements.get(operand, operand)
        return operand

    for op in block.ops:
        op.operands = [substitute(o) for o in op.operands]
        if op.kind is OpKind.LOAD and op.array is not None and op.dest is not None:
            name = op.array.unique_name
            last = pending.get(name)
            if (
                last is not None
                and last.index_key == _operand_key(op.operands[0])
                and last.value.type == op.dest.type
            ):
                replacements[op.dest] = last.value
                forwarded += 1
                continue  # drop the load
            if last is not None:
                last.observed = True
        elif op.kind is OpKind.STORE and op.array is not None:
            name = op.array.unique_name
            index_key = _operand_key(op.operands[0])
            last = pending.get(name)
            # A store to an unproven-distinct address, or one that may
            # already have been read, must stay.
            if (
                last is not None
                and last.index_key == index_key
                and not last.observed
                and op.array.kind is not SymbolKind.GLOBAL
            ):
                drop.add(last.op)
                stores_removed += 1
            pending[name] = _PendingStore(op, index_key, op.operands[1])
        elif op.is_fence():
            pending.clear()
        kept.append(op)

    if drop:
        kept = [op for op in kept if op not in drop]
    block.ops = kept
    block.var_writes = {
        var: substitute(value) for var, value in block.var_writes.items()
    }
    terminator = block.terminator
    if isinstance(terminator, Branch):
        terminator.cond = substitute(terminator.cond)
    elif isinstance(terminator, Ret) and terminator.value is not None:
        terminator.value = substitute(terminator.value)
    return forwarded, stores_removed


def eliminate_load_store_chains(cdfg: FunctionCDFG) -> int:
    """Forward store-to-load pairs and delete superseded stores.

    Returns the number of memory operations removed.
    """
    removed = 0
    for block in cdfg.blocks:
        forwarded, stores_removed = _chain_block(block)
        removed += forwarded + stores_removed
    return removed
