"""Combinational netlists — the Cones artifact.

A :class:`CombinationalNetlist` is a pure dataflow: a topologically ordered
list of side-effect-free operations over input symbols and constants.
Arrays have been dissolved into per-element values ("arrays treated as bit
vectors", as the paper says of Cones), loops unrolled, calls inlined,
control flow if-converted — so evaluation is a single pass, and cost is
just the sum of operators (area) and the longest delay path (delay).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..interp.machine import eval_binary, eval_unary, wrap
from ..lang.errors import InterpError
from ..lang.symtab import Symbol
from ..ir.ops import Const, Operand, Operation, OpKind, VReg, VarRead
from ..scheduling.resources import PriceTable
from .tech import DEFAULT_TECH, Technology


@dataclass
class CombinationalNetlist:
    """A flattened, two-level-style combinational block."""

    name: str
    # Scalar inputs (function parameters) in declaration order.
    inputs: List[Symbol] = field(default_factory=list)
    # Per-element inputs for array parameters / initialized global arrays:
    # pseudo-symbols named "arr[i]".
    element_inputs: Dict[Symbol, List[Symbol]] = field(default_factory=dict)
    ops: List[Operation] = field(default_factory=list)
    output: Optional[Operand] = None
    global_outputs: Dict[Symbol, Operand] = field(default_factory=dict)
    array_outputs: Dict[Symbol, List[Operand]] = field(default_factory=dict)
    # Default input values (global initializers) used when the caller
    # supplies none.
    input_defaults: Dict[str, int] = field(default_factory=dict)

    @property
    def op_count(self) -> int:
        return len(self.ops)

    def price(self, tech: Technology = DEFAULT_TECH) -> "NetlistPrice":
        """Area, critical path and logic depth in one pass over the ops,
        each op priced through a :class:`PriceTable`."""
        prices = PriceTable(tech)
        finish: Dict[int, float] = {}
        level: Dict[int, int] = {}
        area = 0  # an int when there are no ops, as sum() gave
        worst = 0.0
        deepest = 0
        for op in self.ops:
            delay, op_area = prices(op)
            area += op_area
            ready = 0.0
            ready_level = 0
            for operand in op.operands:
                if type(operand) is VReg and operand.id in finish:
                    if finish[operand.id] > ready:
                        ready = finish[operand.id]
                    if level[operand.id] > ready_level:
                        ready_level = level[operand.id]
            done = ready + delay
            # CASTs are wires: they add no logic level.
            done_level = ready_level + (op.kind is not OpKind.CAST)
            if op.dest is not None:
                finish[op.dest.id] = done
                level[op.dest.id] = done_level
            if done > worst:
                worst = done
            if done_level > deepest:
                deepest = done_level
        return NetlistPrice(area_ge=area, critical_path_ns=worst, depth=deepest)

    def area_ge(self, tech: Technology = DEFAULT_TECH) -> float:
        return self.price(tech).area_ge

    def critical_path_ns(self, tech: Technology = DEFAULT_TECH) -> float:
        return self.price(tech).critical_path_ns

    def depth(self) -> int:
        """Logic depth in operator levels (CASTs are wires)."""
        return self.price().depth


@dataclass(frozen=True)
class NetlistPrice:
    """What :meth:`CombinationalNetlist.price` computes for one technology."""

    area_ge: float
    critical_path_ns: float
    depth: int


@dataclass
class CombResult:
    value: Optional[int]
    globals: Dict[str, object] = field(default_factory=dict)


def evaluate(
    netlist: CombinationalNetlist,
    args: Sequence[int] = (),
    inputs: Optional[Dict[str, int]] = None,
) -> CombResult:
    """Evaluate the netlist once.

    ``args`` binds the scalar inputs positionally; ``inputs`` overrides any
    input (including array elements, by their "arr[i]" names).
    """
    values: Dict[int, int] = {}
    bound: Dict[str, int] = dict(netlist.input_defaults)
    if len(args) > len(netlist.inputs):
        raise InterpError(
            f"{netlist.name} has {len(netlist.inputs)} inputs,"
            f" got {len(args)} arguments"
        )
    for symbol, value in zip(netlist.inputs, args):
        bound[symbol.unique_name] = wrap(value, symbol.type)
    if inputs:
        bound.update(inputs)

    def read(operand: Operand) -> int:
        operand_class = type(operand)
        if operand_class is Const:
            return operand.value
        if operand_class is VarRead:
            return bound.get(operand.var.unique_name, 0)
        if operand.id not in values:
            raise InterpError(f"{operand} used before definition")
        return values[operand.id]

    for op in netlist.ops:
        kind = op.kind
        operands = op.operands
        if kind is OpKind.BINARY:
            assert op.dest is not None
            values[op.dest.id] = eval_binary(
                op.op, read(operands[0]), read(operands[1]), op.dest.type
            )
        elif kind is OpKind.UNARY:
            assert op.dest is not None
            values[op.dest.id] = eval_unary(op.op, read(operands[0]), op.dest.type)
        elif kind is OpKind.CAST:
            assert op.dest is not None
            values[op.dest.id] = wrap(read(operands[0]), op.dest.type)
        elif kind is OpKind.SELECT:
            assert op.dest is not None
            chosen = (
                read(operands[1]) if read(operands[0]) else read(operands[2])
            )
            values[op.dest.id] = wrap(chosen, op.dest.type)
        else:
            raise InterpError(
                f"combinational netlist contains sequential op {op.kind}"
            )

    result = CombResult(
        value=read(netlist.output) if netlist.output is not None else None
    )
    for symbol, operand in netlist.global_outputs.items():
        result.globals[symbol.name] = wrap(read(operand), symbol.type)
    for symbol, elements in netlist.array_outputs.items():
        element_type = symbol.type.element  # type: ignore[union-attr]
        result.globals[symbol.name] = [
            wrap(read(e), element_type) for e in elements
        ]
    return result
