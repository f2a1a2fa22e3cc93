"""Flow-insensitive (Andersen-style) pointer analysis and memory planning.

The paper: *"C's arrays are a side effect of its pointer semantics, which
enables simple, efficient implementations, but also demands compilers with
aggressive optimization to perform costly pointer analysis"* — and — *"C's
memory model is an undifferentiated array of bytes, yet many small, varied
memories are most effective in hardware."*

This module makes both claims executable.  Given an inlined function, it
computes points-to sets for every pointer variable and produces a
:class:`PointerPlan` telling the CDFG builder how to lower memory:

* a pointer whose points-to set is a **single array** is *resolved*: it
  becomes a plain index register and its dereferences become accesses to
  that array's own small memory;
* a pointer always bound to a **single scalar** (no arithmetic) is resolved
  to direct register accesses;
* everything else falls back to the **unified memory**: all potentially
  aliased objects are laid out in one big RAM (the "undifferentiated array
  of bytes"), and every access to them — by name or through a pointer —
  becomes a load/store on that single-ported monolith.

Disabling the analysis (``enable_analysis=False``) forces the unified
fallback for *every* address-taken object, which is what the E10 benchmark
ablates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..lang import ast_nodes as ast
from ..lang.symtab import Symbol, SymbolKind
from ..lang.types import ArrayType, IntType, PointerType, Type

_MEMORY_ELEMENT = IntType(32, signed=True)


@dataclass
class PointerStats:
    """Cost/precision measurements for the E10 experiment."""

    pointer_count: int = 0
    constraint_count: int = 0
    iterations: int = 0
    max_points_to: int = 0
    resolved_count: int = 0
    unified_count: int = 0


@dataclass
class PointerPlan:
    """How the builder should lower pointers and memory objects."""

    mode: str = "none"  # 'none' | 'resolved' | 'unified' | 'mixed'
    # Resolved pointers: pointer symbol -> ('array'|'scalar', base symbol).
    bases: Dict[Symbol, Tuple[str, Symbol]] = field(default_factory=dict)
    # Objects that live in the unified memory (accessed only via LOAD/STORE
    # on memory_symbol, even when named directly).
    in_memory: Set[Symbol] = field(default_factory=set)
    layout: Dict[Symbol, int] = field(default_factory=dict)
    memory_symbol: Optional[Symbol] = None
    memory_size: int = 0
    stats: PointerStats = field(default_factory=PointerStats)

    def address_of(self, symbol: Symbol) -> int:
        if symbol not in self.layout:
            raise KeyError(f"{symbol.name!r} is not in the unified memory")
        return self.layout[symbol]

    def initial_memory(self, global_inits: Dict[str, object]) -> List[int]:
        """Initial contents of the unified memory from global initializers."""
        words = [0] * self.memory_size
        for symbol, base in self.layout.items():
            init = global_inits.get(symbol.name)
            if init is None:
                continue
            if isinstance(init, list):
                for i, value in enumerate(init):
                    words[base + i] = value
            else:
                words[base] = init
        return words


@dataclass
class _Constraints:
    """Andersen inclusion constraints gathered from the AST."""

    # p ⊇ {obj}
    direct: List[Tuple[Symbol, Symbol]] = field(default_factory=list)
    # p ⊇ q
    copy: List[Tuple[Symbol, Symbol]] = field(default_factory=list)
    # pointers that undergo arithmetic (p = q + n, p[i], ...)
    arithmetic: Set[Symbol] = field(default_factory=set)
    pointers: Set[Symbol] = field(default_factory=set)
    address_taken: Set[Symbol] = field(default_factory=set)


def _root_pointer(expr: ast.Expr) -> Optional[Symbol]:
    """The pointer variable at the root of a pointer-typed expression, with
    arithmetic peeled off; None for &-expressions and literals."""
    if isinstance(expr, ast.Identifier) and isinstance(expr.type, PointerType):
        return expr.symbol  # type: ignore[attr-defined]
    if isinstance(expr, ast.BinaryOp) and isinstance(expr.type, PointerType):
        left = _root_pointer(expr.left)
        return left if left is not None else _root_pointer(expr.right)
    return None


def _collect_pointer_expr(
    expr: ast.Expr, target: Symbol, constraints: _Constraints, with_arith: bool
) -> None:
    """Record constraints for ``target = expr`` where expr is pointer-typed."""
    if isinstance(expr, ast.UnaryOp) and expr.op == "&":
        base = expr.operand
        if isinstance(base, ast.Identifier):
            obj: Symbol = base.symbol  # type: ignore[attr-defined]
            constraints.direct.append((target, obj))
            constraints.address_taken.add(obj)
            if not isinstance(obj.type, ArrayType) and with_arith:
                constraints.arithmetic.add(target)
            return
        if isinstance(base, ast.ArrayIndex) and isinstance(base.base, ast.Identifier):
            obj = base.base.symbol  # type: ignore[attr-defined]
            constraints.direct.append((target, obj))
            constraints.address_taken.add(obj)
            constraints.arithmetic.add(target)
            return
        # &*p and friends: conservative copy from the inner pointer
        inner = _root_pointer(base)
        if inner is not None:
            constraints.copy.append((target, inner))
            constraints.arithmetic.add(target)
        return
    if isinstance(expr, ast.Identifier):
        source: Symbol = expr.symbol  # type: ignore[attr-defined]
        constraints.copy.append((target, source))
        # Array name decaying to a pointer.
        if isinstance(source.type, ArrayType):
            constraints.direct.append((target, source))
            constraints.address_taken.add(source)
            constraints.copy.pop()
        return
    if isinstance(expr, ast.BinaryOp):
        constraints.arithmetic.add(target)
        root = _root_pointer(expr)
        if root is not None:
            constraints.copy.append((target, root))
        return
    if isinstance(expr, ast.Conditional):
        _collect_pointer_expr(expr.then, target, constraints, with_arith)
        _collect_pointer_expr(expr.otherwise, target, constraints, with_arith)
        return
    # Literals (null pointers) contribute nothing.


def _gather_constraints(fn: ast.FunctionDef) -> _Constraints:
    constraints = _Constraints()
    for stmt in ast.walk_stmts(fn.body):
        if isinstance(stmt, ast.VarDecl):
            symbol: Symbol = stmt.symbol  # type: ignore[attr-defined]
            if isinstance(symbol.type, PointerType):
                constraints.pointers.add(symbol)
                if stmt.init is not None:
                    _collect_pointer_expr(stmt.init, symbol, constraints, with_arith=False)
        elif isinstance(stmt, ast.Assign):
            if isinstance(stmt.target, ast.Identifier) and isinstance(
                stmt.target.type, PointerType
            ):
                target: Symbol = stmt.target.symbol  # type: ignore[attr-defined]
                constraints.pointers.add(target)
                _collect_pointer_expr(stmt.value, target, constraints, with_arith=False)
        # Address-taken objects also arise from &x used in any expression
        # (e.g. passed through substitution during inlining).
        for expr in ast.stmt_expressions(stmt):
            for sub in ast.walk_expr(expr):
                if isinstance(sub, ast.UnaryOp) and sub.op == "&":
                    operand = sub.operand
                    if isinstance(operand, ast.Identifier):
                        constraints.address_taken.add(operand.symbol)  # type: ignore[attr-defined]
                    elif isinstance(operand, ast.ArrayIndex) and isinstance(
                        operand.base, ast.Identifier
                    ):
                        constraints.address_taken.add(operand.base.symbol)  # type: ignore[attr-defined]
                if isinstance(sub, ast.ArrayIndex) and isinstance(
                    sub.base.type if sub.base is not None else None, PointerType
                ):
                    root = _root_pointer(sub.base)
                    if root is not None:
                        constraints.arithmetic.add(root)
    return constraints


def _solve(constraints: _Constraints, stats: PointerStats) -> Dict[Symbol, Set[Symbol]]:
    points_to: Dict[Symbol, Set[Symbol]] = {p: set() for p in constraints.pointers}
    for pointer, obj in constraints.direct:
        points_to.setdefault(pointer, set()).add(obj)
    stats.constraint_count = len(constraints.direct) + len(constraints.copy)
    changed = True
    while changed:
        changed = False
        stats.iterations += 1
        for dst, src in constraints.copy:
            src_set = points_to.get(src, set())
            dst_set = points_to.setdefault(dst, set())
            before = len(dst_set)
            dst_set |= src_set
            if len(dst_set) != before:
                changed = True
        # Arithmetic taints propagate along copies too.
        for dst, src in constraints.copy:
            if src in constraints.arithmetic and dst not in constraints.arithmetic:
                constraints.arithmetic.add(dst)
                changed = True
    return points_to


def pointer_free(fn: ast.FunctionDef) -> bool:
    """True when ``fn`` declares, assigns, indexes through or takes the
    address of nothing pointer-like, i.e. when :func:`plan_pointers` would
    return the empty ``PointerPlan()``.  Cloning and unrolling ``fn`` only
    copy statements it already has, so the answer also holds for any
    unrolled copy, which lets a flow ask before unrolling on a smaller
    tree."""
    constraints = _gather_constraints(fn)
    return not constraints.pointers and not constraints.address_taken


def plan_pointers(
    fn: ast.FunctionDef,
    global_symbols: Optional[List[Symbol]] = None,
    enable_analysis: bool = True,
) -> PointerPlan:
    """Compute a lowering plan for ``fn`` (which must already be inlined).

    ``enable_analysis=False`` models a compiler without pointer analysis:
    every address-taken object is forced into the unified memory.
    """
    constraints = _gather_constraints(fn)
    plan = PointerPlan()
    plan.stats.pointer_count = len(constraints.pointers)
    if not constraints.pointers and not constraints.address_taken:
        plan.mode = "none"
        return plan

    points_to = (
        _solve(constraints, plan.stats) if enable_analysis else
        {p: set(constraints.address_taken) for p in constraints.pointers}
    )
    if not enable_analysis:
        constraints.arithmetic |= constraints.pointers
        plan.stats.iterations = 0

    unresolved_objects: Set[Symbol] = set()
    for pointer in sorted(constraints.pointers, key=lambda s: s.unique_name):
        targets = points_to.get(pointer, set())
        plan.stats.max_points_to = max(plan.stats.max_points_to, len(targets))
        if enable_analysis and len(targets) == 1:
            (obj,) = targets
            if isinstance(obj.type, ArrayType):
                plan.bases[pointer] = ("array", obj)
                plan.stats.resolved_count += 1
                continue
            if pointer not in constraints.arithmetic:
                plan.bases[pointer] = ("scalar", obj)
                plan.stats.resolved_count += 1
                continue
        plan.stats.unified_count += 1
        unresolved_objects |= targets if targets else constraints.address_taken

    # Objects reachable from unresolved pointers live in the unified memory;
    # resolved pointers keep their private memories/registers.
    if unresolved_objects:
        offset = 0
        for obj in sorted(unresolved_objects, key=lambda s: s.unique_name):
            plan.in_memory.add(obj)
            plan.layout[obj] = offset
            size = obj.type.size if isinstance(obj.type, ArrayType) else 1
            offset += size
        plan.memory_size = max(offset, 1)
        plan.memory_symbol = Symbol(
            "__mem", ArrayType(_MEMORY_ELEMENT, plan.memory_size), SymbolKind.LOCAL
        )

    if plan.bases and plan.in_memory:
        plan.mode = "mixed"
    elif plan.bases:
        plan.mode = "resolved"
    elif plan.in_memory:
        plan.mode = "unified"
    else:
        plan.mode = "none"
    return plan
