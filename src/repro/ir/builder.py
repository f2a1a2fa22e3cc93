"""Lowering from the (inlined) AST to a control/data-flow graph.

The builder requires that function calls have been eliminated by the inline
pass; everything else in the language lowers here:

* scalar variables become datapath registers (latched at block exit);
* arrays become memories with LOAD/STORE operations;
* pointers are lowered per the :class:`~repro.analysis.pointer.PointerPlan` —
  resolved pointers become index registers over their target array (or direct
  register accesses for scalar targets), unresolved pointers become word
  addresses into the plan's unified memory;
* short-circuit operators and conditional expressions become SELECT
  operations when their operands cannot trap, and real control flow
  otherwise, preserving C's evaluation-order guarantees;
* ``par`` branches are flattened in order — the data independence that
  semantic analysis verified is rediscovered by the scheduler as ILP, which
  is exactly the compiler-extracts-parallelism story the paper tells for
  C2Verilog and CASH;
* ``wait``/``delay``/``send``/``recv`` become fence operations; ``within``
  blocks tag their operations with a timing-constraint group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..analysis.pointer import PointerPlan, plan_pointers
from ..lang import ast_nodes as ast
from ..lang.errors import SemanticError, SourceLocation, UNKNOWN_LOCATION
from ..lang.semantic import SemanticInfo
from ..lang.symtab import Symbol, SymbolKind
from ..lang.types import (
    ArrayType,
    BOOL,
    BoolType,
    INT,
    IntType,
    PointerType,
    Type,
    UINT,
)
from .astutils import fresh_symbol
from .cdfg import BasicBlock, FunctionCDFG, ModuleCDFG, TimingConstraint, validate
from .ops import Branch, Const, Jump, Operand, Operation, OpKind, Ret, VReg, VarRead


class BuildError(SemanticError):
    """The program cannot be lowered to a CDFG (e.g. residual calls)."""


@dataclass
class _PtrValue:
    """A lowered pointer-typed value.

    ``kind`` is 'array' (base memory + index operand), 'scalar' (a direct
    register), or 'memory' (a word address into the unified memory).
    """

    kind: str
    base: Optional[Symbol] = None
    index: Optional[Operand] = None
    address: Optional[Operand] = None


_INDEX_TYPE = IntType(32, signed=False)


def _is_trap_free(expr: ast.Expr) -> bool:
    """Whether evaluating ``expr`` eagerly can never trap or synchronize —
    the precondition for if-converting it into a SELECT operand."""
    for sub in ast.walk_expr(expr):
        if isinstance(sub, (ast.Call, ast.Receive, ast.ArrayIndex)):
            return False
        if isinstance(sub, ast.BinaryOp) and sub.op in ("/", "%"):
            return False
        if isinstance(sub, ast.UnaryOp) and sub.op in ("*", "&"):
            return False
        if isinstance(sub, ast.Identifier) and isinstance(sub.type, ArrayType):
            return False
    return True


class CDFGBuilder:
    """Builds the CDFG of one inlined function."""

    def __init__(
        self,
        fn: ast.FunctionDef,
        info: SemanticInfo,
        plan: Optional[PointerPlan] = None,
    ):
        self.fn = fn
        self.info = info
        self.plan = plan if plan is not None else plan_pointers(fn)
        self.cdfg = FunctionCDFG(fn.name, fn.return_type)
        self.block: BasicBlock = self.cdfg.new_block("entry")
        self.cdfg.entry = self.block
        self.current_values: Dict[Symbol, Operand] = {}
        self.loop_stack: List[Tuple[BasicBlock, BasicBlock]] = []  # (break, continue)
        self.constraint_group: Optional[int] = None
        self._next_group = 0
        self._loop_depth = 0
        self._registers: Dict[Symbol, None] = {}
        self._arrays: Dict[Symbol, None] = {}
        self._pointer_index: Dict[Symbol, Symbol] = {}
        # Which block each VReg was computed in: used to route values that
        # cross a block boundary (e.g. around a lowered ternary) through a
        # temporary register, keeping VRegs strictly block-local wires.
        # Keyed by VReg id (unique per process), which hashes in C.
        self._vreg_block: Dict[int, BasicBlock] = {}
        # Source statement currently being lowered; stamped onto emitted ops
        # so CDFG-level diagnostics can point at source lines.
        self._loc: Optional[SourceLocation] = None

    # ------------------------------------------------------------------
    # Public entry
    # ------------------------------------------------------------------

    def build(self) -> FunctionCDFG:
        for param in self.fn.params:
            symbol: Symbol = param.symbol  # type: ignore[attr-defined]
            self.cdfg.params.append(symbol)
            if isinstance(symbol.type, ArrayType):
                self._note_array(symbol)
            elif not isinstance(symbol.type, PointerType):
                self._note_register(symbol)
            else:
                self._note_register(symbol)
        if self.plan.memory_symbol is not None:
            self._note_array(self.plan.memory_symbol)
        self._lower_block(self.fn.body)
        if self.block.terminator is None:
            self.block.terminator = Ret(None)
        self.cdfg.registers = list(self._registers)
        self.cdfg.arrays = list(self._arrays)
        self.cdfg.prune_unreachable()
        validate(self.cdfg)
        return self.cdfg

    # ------------------------------------------------------------------
    # Bookkeeping helpers
    # ------------------------------------------------------------------

    def _note_register(self, symbol: Symbol) -> None:
        self._registers.setdefault(symbol, None)
        if symbol.kind is SymbolKind.GLOBAL:
            self.cdfg.globals_read.add(symbol)
            if self._loc is not None:
                self.cdfg.global_read_sites.setdefault(symbol, self._loc)

    def _note_array(self, symbol: Symbol) -> None:
        self._arrays.setdefault(symbol, None)
        if symbol.kind is SymbolKind.GLOBAL:
            self.cdfg.globals_read.add(symbol)
            if self._loc is not None:
                self.cdfg.global_read_sites.setdefault(symbol, self._loc)

    def _localize(self, operand: Operand) -> Operand:
        """Make ``operand`` usable in the current block.  A VReg computed in
        an earlier block is latched into a fresh temporary register there
        (the earlier block dominates this one within structured lowering)
        and re-read here."""
        if type(operand) is not VReg:
            return operand
        defining = self._vreg_block.get(operand.id)
        if defining is None or defining is self.block:
            return operand
        temp = fresh_symbol("xb", operand.type)
        self._note_register(temp)
        defining.var_writes[temp] = operand
        return self._read_var(temp)

    def _emit(
        self,
        kind: OpKind,
        dest_type: Optional[Type],
        operands: List[Operand],
        **attrs,
    ) -> Optional[VReg]:
        block = self.block
        vreg_block = self._vreg_block
        # Only a VReg from another block needs _localize's temporary.
        operands = [
            self._localize(o)
            if type(o) is VReg and vreg_block.get(o.id, block) is not block
            else o
            for o in operands
        ]
        dest = VReg(dest_type) if dest_type is not None else None
        op = Operation(kind=kind, dest=dest, operands=operands,
                       constraint=self.constraint_group,
                       location=self._loc, **attrs)
        block.ops.append(op)
        if dest is not None:
            vreg_block[dest.id] = block
        return dest

    def _new_block(self, label: str = "") -> BasicBlock:
        return self.cdfg.new_block(label)

    def _switch_to(self, block: BasicBlock) -> None:
        self.block = block
        self.current_values = {}

    def _read_var(self, symbol: Symbol) -> Operand:
        if symbol in self.plan.in_memory:
            address = self.plan.address_of(symbol)
            assert self.plan.memory_symbol is not None
            result = self._emit(
                OpKind.LOAD, symbol.type, [Const(address, _INDEX_TYPE)],
                array=self.plan.memory_symbol,
            )
            assert result is not None
            return result
        if symbol in self.current_values:
            return self.current_values[symbol]
        self._note_register(symbol)
        value = VarRead(symbol)
        self.current_values[symbol] = value
        return value

    def _write_var(self, symbol: Symbol, value: Operand) -> None:
        if symbol in self.plan.in_memory:
            address = self.plan.address_of(symbol)
            assert self.plan.memory_symbol is not None
            value = self._cast_to(value, symbol.type)
            self._emit(
                OpKind.STORE, None,
                [Const(address, _INDEX_TYPE), value],
                array=self.plan.memory_symbol,
            )
            return
        self._note_register(symbol)
        if symbol.kind is SymbolKind.GLOBAL:
            self.cdfg.globals_written.add(symbol)
            if self._loc is not None:
                self.cdfg.global_write_sites.setdefault(symbol, self._loc)
        value = self._localize(self._cast_to(self._localize(value), symbol.type))
        self.current_values[symbol] = value
        self.block.var_writes[symbol] = value

    def _cast_to(self, value: Operand, target: Type) -> Operand:
        source = value.type
        if isinstance(target, (IntType, BoolType, PointerType)) and (
                source is target or source == target):
            return value
        if isinstance(value, Const):
            from ..interp.machine import wrap

            return Const(wrap(value.value, target), target)
        result = self._emit(OpKind.CAST, target, [value])
        assert result is not None
        return result

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _lower_block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self._lower_stmt(stmt)
            if self.block.terminator is not None:
                return  # the rest of this block is unreachable

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if stmt.location != UNKNOWN_LOCATION:
            self._loc = stmt.location
        if isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.VarDecl):
            self._lower_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            value = None
            if stmt.value is not None:
                value = self._localize(
                    self._cast_to(
                        self._localize(self._lower_expr(stmt.value)),
                        self.fn.return_type,
                    )
                )
            self.block.terminator = Ret(value)
        elif isinstance(stmt, ast.Break):
            self.block.terminator = Jump(self.loop_stack[-1][0])
        elif isinstance(stmt, ast.Continue):
            self.block.terminator = Jump(self.loop_stack[-1][1])
        elif isinstance(stmt, ast.Par):
            # Scheduled flows flatten par: the branches are data-independent
            # (checked semantically), so the scheduler rediscovers them as ILP.
            for branch in stmt.branches:
                self._lower_stmt(branch)
                if self.block.terminator is not None:
                    return
        elif isinstance(stmt, ast.Seq):
            self._lower_block(stmt.body)
        elif isinstance(stmt, ast.Wait):
            self._emit(OpKind.BARRIER, None, [])
        elif isinstance(stmt, ast.Delay):
            if stmt.cycles > 0:
                self._emit(OpKind.DELAY, None, [], cycles=stmt.cycles)
        elif isinstance(stmt, ast.Within):
            group = self._next_group
            self._next_group += 1
            self.cdfg.constraints.append(TimingConstraint(group, stmt.cycles))
            previous = self.constraint_group
            self.constraint_group = group
            self._lower_block(stmt.body)
            self.constraint_group = previous
        elif isinstance(stmt, ast.Send):
            channel: Symbol = stmt.symbol  # type: ignore[attr-defined]
            value = self._lower_expr(stmt.value)
            element = channel.type.element  # type: ignore[union-attr]
            self._emit(OpKind.SEND, None, [self._cast_to(value, element)], channel=channel)
        elif isinstance(stmt, ast.ChannelDecl):
            raise BuildError("channels must be global", stmt.location)
        else:
            raise BuildError(f"cannot lower {type(stmt).__name__}", stmt.location)

    def _lower_decl(self, decl: ast.VarDecl) -> None:
        symbol: Symbol = decl.symbol  # type: ignore[attr-defined]
        if isinstance(symbol.type, ArrayType):
            self._note_array(symbol)
            inits = decl.array_init or []
            if symbol not in self.plan.in_memory:
                for i, expr in enumerate(inits):
                    value = self._cast_to(self._lower_expr(expr), symbol.type.element)
                    self._emit(
                        OpKind.STORE, None, [Const(i, _INDEX_TYPE), value], array=symbol
                    )
                if self._loop_depth > 0:
                    # Redeclared each iteration: C gives a fresh (zeroed, in
                    # our semantics) array, so clear the tail explicitly.
                    zero = Const(0, symbol.type.element)
                    for i in range(len(inits), symbol.type.size):
                        self._emit(
                            OpKind.STORE, None, [Const(i, _INDEX_TYPE), zero],
                            array=symbol,
                        )
            else:
                base = self.plan.address_of(symbol)
                assert self.plan.memory_symbol is not None
                for i, expr in enumerate(inits):
                    value = self._cast_to(self._lower_expr(expr), symbol.type.element)
                    self._emit(
                        OpKind.STORE, None, [Const(base + i, _INDEX_TYPE), value],
                        array=self.plan.memory_symbol,
                    )
            return
        if isinstance(symbol.type, PointerType):
            if decl.init is not None:
                self._assign_pointer(symbol, self._lower_pointer(decl.init))
            return
        if decl.init is not None:
            self._write_var(symbol, self._lower_expr(decl.init))
        else:
            # Declarations (re)zero their variable; cheap, and keeps loop
            # bodies that redeclare locals equivalent to the interpreter.
            self._write_var(symbol, Const(0, symbol.type))

    def _lower_assign(self, assign: ast.Assign) -> None:
        target = assign.target
        if isinstance(target, ast.Identifier):
            symbol: Symbol = target.symbol  # type: ignore[attr-defined]
            if isinstance(symbol.type, PointerType):
                self._assign_pointer(symbol, self._lower_pointer(assign.value))
                return
            self._write_var(symbol, self._lower_expr(assign.value))
            return
        if isinstance(target, ast.ArrayIndex):
            base = target.base
            if isinstance(base, ast.Identifier) and isinstance(base.type, ArrayType):
                array: Symbol = base.symbol  # type: ignore[attr-defined]
                index = self._lower_expr(target.index)
                value = self._lower_expr(assign.value)
                self._store_array(array, index, value)
                return
            # pointer[i] = v  ==  *(pointer + i) = v
            pointer = self._lower_pointer(base)
            pointer = self._pointer_add(pointer, self._lower_expr(target.index))
            self._store_through(pointer, self._lower_expr(assign.value), target.type)
            return
        if isinstance(target, ast.UnaryOp) and target.op == "*":
            pointer = self._lower_pointer(target.operand)
            self._store_through(pointer, self._lower_expr(assign.value), target.type)
            return
        raise BuildError("unsupported assignment target", assign.location)

    def _store_array(self, array: Symbol, index: Operand, value: Operand) -> None:
        element = array.type.element  # type: ignore[union-attr]
        value = self._cast_to(value, element)
        if array in self.plan.in_memory:
            base = self.plan.address_of(array)
            address = self._emit(
                OpKind.BINARY, _INDEX_TYPE,
                [Const(base, _INDEX_TYPE), self._cast_to(index, _INDEX_TYPE)], op="+",
            )
            assert address is not None and self.plan.memory_symbol is not None
            self._emit(
                OpKind.STORE, None, [address, value], array=self.plan.memory_symbol
            )
            return
        self._note_array(array)
        if array.kind is SymbolKind.GLOBAL:
            self.cdfg.globals_written.add(array)
            if self._loc is not None:
                self.cdfg.global_write_sites.setdefault(array, self._loc)
        self._emit(OpKind.STORE, None, [index, value], array=array)

    def _store_through(self, pointer: _PtrValue, value: Operand, target_type) -> None:
        if pointer.kind == "scalar":
            assert pointer.base is not None
            self._write_var(pointer.base, value)
            return
        if pointer.kind == "array":
            assert pointer.base is not None and pointer.index is not None
            self._store_array(pointer.base, pointer.index, value)
            return
        assert pointer.address is not None and self.plan.memory_symbol is not None
        value = self._cast_to(value, target_type if target_type is not None else INT)
        self._emit(
            OpKind.STORE, None, [pointer.address, value],
            array=self.plan.memory_symbol,
        )

    # -- control flow -------------------------------------------------------

    def _lower_if(self, stmt: ast.If) -> None:
        cond = self._localize(self._lower_expr(stmt.cond))
        then_block = self._new_block("then")
        join_block = self._new_block("endif")
        else_block = self._new_block("else") if stmt.otherwise is not None else join_block
        self.block.terminator = Branch(cond, then_block, else_block)
        self._switch_to(then_block)
        self._lower_stmt(stmt.then)
        if self.block.terminator is None:
            self.block.terminator = Jump(join_block)
        if stmt.otherwise is not None:
            self._switch_to(else_block)
            self._lower_stmt(stmt.otherwise)
            if self.block.terminator is None:
                self.block.terminator = Jump(join_block)
        self._switch_to(join_block)

    def _lower_while(self, stmt: ast.While) -> None:
        head = self._new_block("while_head")
        body = self._new_block("while_body")
        exit_block = self._new_block("while_exit")
        self.block.terminator = Jump(head)
        self._switch_to(head)
        cond = self._localize(self._lower_expr(stmt.cond))
        self.block.terminator = Branch(cond, body, exit_block)
        self.loop_stack.append((exit_block, head))
        self._loop_depth += 1
        self._switch_to(body)
        self._lower_stmt(stmt.body)
        if self.block.terminator is None:
            self.block.terminator = Jump(head)
        self._loop_depth -= 1
        self.loop_stack.pop()
        self._switch_to(exit_block)

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        body = self._new_block("do_body")
        cond_block = self._new_block("do_cond")
        exit_block = self._new_block("do_exit")
        self.block.terminator = Jump(body)
        self.loop_stack.append((exit_block, cond_block))
        self._loop_depth += 1
        self._switch_to(body)
        self._lower_stmt(stmt.body)
        if self.block.terminator is None:
            self.block.terminator = Jump(cond_block)
        self._loop_depth -= 1
        self.loop_stack.pop()
        self._switch_to(cond_block)
        cond = self._localize(self._lower_expr(stmt.cond))
        self.block.terminator = Branch(cond, body, exit_block)
        self._switch_to(exit_block)

    def _lower_for(self, stmt: ast.For) -> None:
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        head = self._new_block("for_head")
        body = self._new_block("for_body")
        step_block = self._new_block("for_step")
        exit_block = self._new_block("for_exit")
        self.block.terminator = Jump(head)
        self._switch_to(head)
        if stmt.cond is not None:
            cond = self._localize(self._lower_expr(stmt.cond))
            self.block.terminator = Branch(cond, body, exit_block)
        else:
            self.block.terminator = Jump(body)
        self.loop_stack.append((exit_block, step_block))
        self._loop_depth += 1
        self._switch_to(body)
        self._lower_stmt(stmt.body)
        if self.block.terminator is None:
            self.block.terminator = Jump(step_block)
        self._switch_to(step_block)
        if stmt.step is not None:
            self._lower_stmt(stmt.step)
        if self.block.terminator is None:
            self.block.terminator = Jump(head)
        self._loop_depth -= 1
        self.loop_stack.pop()
        self._switch_to(exit_block)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr) -> Operand:
        if isinstance(expr, ast.IntLiteral):
            assert expr.type is not None
            return Const(expr.value, expr.type)
        if isinstance(expr, ast.BoolLiteral):
            return Const(int(expr.value), BOOL)
        if isinstance(expr, ast.Identifier):
            symbol: Symbol = expr.symbol  # type: ignore[attr-defined]
            if isinstance(symbol.type, ArrayType):
                raise BuildError(
                    f"array {symbol.name!r} used as a scalar", expr.location
                )
            if isinstance(symbol.type, PointerType):
                return self._pointer_as_operand(self._lower_pointer(expr), expr)
            return self._read_var(symbol)
        if isinstance(expr, ast.UnaryOp):
            if expr.op == "*":
                pointer = self._lower_pointer(expr.operand)
                return self._load_through(pointer, expr.type)
            if expr.op == "&":
                return self._pointer_as_operand(self._lower_pointer(expr), expr)
            operand = self._lower_expr(expr.operand)
            assert expr.type is not None
            result = self._emit(OpKind.UNARY, expr.type, [operand], op=expr.op)
            assert result is not None
            return result
        if isinstance(expr, ast.BinaryOp):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Conditional):
            return self._lower_conditional(expr)
        if isinstance(expr, ast.ArrayIndex):
            base = expr.base
            if isinstance(base, ast.Identifier) and isinstance(base.type, ArrayType):
                array: Symbol = base.symbol  # type: ignore[attr-defined]
                index = self._lower_expr(expr.index)
                return self._load_array(array, index, expr.type)
            pointer = self._lower_pointer(base)
            pointer = self._pointer_add(pointer, self._lower_expr(expr.index))
            return self._load_through(pointer, expr.type)
        if isinstance(expr, ast.Receive):
            channel: Symbol = expr.symbol  # type: ignore[attr-defined]
            element = channel.type.element  # type: ignore[union-attr]
            result = self._emit(OpKind.RECV, element, [], channel=channel)
            assert result is not None
            return result
        if isinstance(expr, ast.Call):
            raise BuildError(
                f"call to {expr.callee!r} survived inlining — flows must"
                " inline before building the CDFG",
                expr.location,
            )
        raise BuildError(f"cannot lower {type(expr).__name__}", expr.location)

    def _load_array(self, array: Symbol, index: Operand, result_type) -> VReg:
        if array in self.plan.in_memory:
            base = self.plan.address_of(array)
            address = self._emit(
                OpKind.BINARY, _INDEX_TYPE,
                [Const(base, _INDEX_TYPE), self._cast_to(index, _INDEX_TYPE)], op="+",
            )
            assert address is not None and self.plan.memory_symbol is not None
            result = self._emit(
                OpKind.LOAD, result_type or INT, [address], array=self.plan.memory_symbol
            )
            assert result is not None
            return result
        self._note_array(array)
        result = self._emit(OpKind.LOAD, result_type or INT, [index], array=array)
        assert result is not None
        return result

    def _load_through(self, pointer: _PtrValue, result_type) -> Operand:
        if pointer.kind == "scalar":
            assert pointer.base is not None
            return self._read_var(pointer.base)
        if pointer.kind == "array":
            assert pointer.base is not None and pointer.index is not None
            return self._load_array(pointer.base, pointer.index, result_type)
        assert pointer.address is not None and self.plan.memory_symbol is not None
        result = self._emit(
            OpKind.LOAD, result_type or INT, [pointer.address],
            array=self.plan.memory_symbol,
        )
        assert result is not None
        return result

    def _lower_binary(self, expr: ast.BinaryOp) -> Operand:
        if isinstance(expr.type, PointerType):
            return self._pointer_as_operand(self._lower_pointer(expr), expr)
        if isinstance(expr.left.type, PointerType) and isinstance(
            expr.right.type, PointerType
        ):
            # Pointer comparison / difference: compare lowered positions.
            left = self._comparable_pointer(self._lower_pointer(expr.left), expr)
            right = self._comparable_pointer(self._lower_pointer(expr.right), expr)
            assert expr.type is not None
            result = self._emit(OpKind.BINARY, expr.type, [left, right], op=expr.op)
            assert result is not None
            return result
        if expr.op in ("&&", "||") and not _is_trap_free(expr.right):
            return self._lower_short_circuit(expr)
        left = self._lower_expr(expr.left)
        right = self._lower_expr(expr.right)
        assert expr.type is not None
        result = self._emit(OpKind.BINARY, expr.type, [left, right], op=expr.op)
        assert result is not None
        return result

    def _lower_short_circuit(self, expr: ast.BinaryOp) -> Operand:
        """``a && b`` with a trapping ``b``: real control flow via a temp."""
        temp = fresh_symbol("sc", BOOL)
        left = self._lower_expr(expr.left)
        left_bool = self._emit(
            OpKind.BINARY, BOOL, [left, Const(0, left.type)], op="!="
        )
        assert left_bool is not None
        self._write_var(temp, left_bool)
        rhs_block = self._new_block("sc_rhs")
        join_block = self._new_block("sc_join")
        if expr.op == "&&":
            self.block.terminator = Branch(left_bool, rhs_block, join_block)
        else:
            self.block.terminator = Branch(left_bool, join_block, rhs_block)
        self._switch_to(rhs_block)
        right = self._lower_expr(expr.right)
        right_bool = self._emit(
            OpKind.BINARY, BOOL, [right, Const(0, right.type)], op="!="
        )
        assert right_bool is not None
        self._write_var(temp, right_bool)
        self.block.terminator = Jump(join_block)
        self._switch_to(join_block)
        return self._read_var(temp)

    def _lower_conditional(self, expr: ast.Conditional) -> Operand:
        assert expr.type is not None
        if _is_trap_free(expr.then) and _is_trap_free(expr.otherwise):
            cond = self._lower_expr(expr.cond)
            then_value = self._cast_to(self._lower_expr(expr.then), expr.type)
            else_value = self._cast_to(self._lower_expr(expr.otherwise), expr.type)
            result = self._emit(
                OpKind.SELECT, expr.type, [cond, then_value, else_value]
            )
            assert result is not None
            return result
        temp = fresh_symbol("cond", expr.type)
        cond = self._lower_expr(expr.cond)
        then_block = self._new_block("cond_then")
        else_block = self._new_block("cond_else")
        join_block = self._new_block("cond_join")
        self.block.terminator = Branch(cond, then_block, else_block)
        self._switch_to(then_block)
        self._write_var(temp, self._lower_expr(expr.then))
        self.block.terminator = Jump(join_block)
        self._switch_to(else_block)
        self._write_var(temp, self._lower_expr(expr.otherwise))
        self.block.terminator = Jump(join_block)
        self._switch_to(join_block)
        return self._read_var(temp)

    # ------------------------------------------------------------------
    # Pointers
    # ------------------------------------------------------------------

    def _index_register(self, pointer: Symbol) -> Symbol:
        if pointer not in self._pointer_index:
            shadow = fresh_symbol(f"{pointer.name}_idx", _INDEX_TYPE)
            self._pointer_index[pointer] = shadow
            self._note_register(shadow)
        return self._pointer_index[pointer]

    def _lower_pointer(self, expr: ast.Expr) -> _PtrValue:
        if isinstance(expr, ast.Identifier):
            symbol: Symbol = expr.symbol  # type: ignore[attr-defined]
            if isinstance(symbol.type, ArrayType):
                # Array decaying to a pointer to its first element.
                if symbol in self.plan.in_memory:
                    return _PtrValue(
                        "memory",
                        address=Const(self.plan.address_of(symbol), _INDEX_TYPE),
                    )
                return _PtrValue("array", base=symbol, index=Const(0, _INDEX_TYPE))
            if symbol in self.plan.bases:
                kind, base = self.plan.bases[symbol]
                if kind == "scalar":
                    return _PtrValue("scalar", base=base)
                return _PtrValue(
                    "array", base=base, index=self._read_var(self._index_register(symbol))
                )
            # Unresolved pointer variable: its register holds a word address.
            self._note_register(symbol)
            return _PtrValue("memory", address=self._read_var(symbol))
        if isinstance(expr, ast.UnaryOp) and expr.op == "&":
            return self._lower_address_of(expr.operand)
        if isinstance(expr, ast.BinaryOp) and expr.op in ("+", "-"):
            if isinstance(expr.left.type, PointerType):
                pointer = self._lower_pointer(expr.left)
                delta = self._lower_expr(expr.right)
            else:
                pointer = self._lower_pointer(expr.right)
                delta = self._lower_expr(expr.left)
            if expr.op == "-":
                negated = self._emit(OpKind.UNARY, _INDEX_TYPE, [delta], op="-")
                assert negated is not None
                delta = negated
            return self._pointer_add(pointer, delta)
        if isinstance(expr, ast.Conditional):
            cond = self._lower_expr(expr.cond)
            then_ptr = self._comparable_pointer(self._lower_pointer(expr.then), expr)
            else_ptr = self._comparable_pointer(self._lower_pointer(expr.otherwise), expr)
            address = self._emit(
                OpKind.SELECT, _INDEX_TYPE, [cond, then_ptr, else_ptr]
            )
            assert address is not None
            return _PtrValue("memory", address=address)
        raise BuildError(
            f"cannot lower pointer expression {type(expr).__name__}", expr.location
        )

    def _lower_address_of(self, operand: ast.Expr) -> _PtrValue:
        if isinstance(operand, ast.Identifier):
            symbol: Symbol = operand.symbol  # type: ignore[attr-defined]
            if symbol in self.plan.in_memory:
                return _PtrValue(
                    "memory", address=Const(self.plan.address_of(symbol), _INDEX_TYPE)
                )
            if isinstance(symbol.type, ArrayType):
                return _PtrValue("array", base=symbol, index=Const(0, _INDEX_TYPE))
            return _PtrValue("scalar", base=symbol)
        if isinstance(operand, ast.ArrayIndex) and isinstance(
            operand.base, ast.Identifier
        ):
            array: Symbol = operand.base.symbol  # type: ignore[attr-defined]
            index = self._lower_expr(operand.index)
            if array in self.plan.in_memory:
                base = self.plan.address_of(array)
                address = self._emit(
                    OpKind.BINARY, _INDEX_TYPE,
                    [Const(base, _INDEX_TYPE), self._cast_to(index, _INDEX_TYPE)],
                    op="+",
                )
                assert address is not None
                return _PtrValue("memory", address=address)
            return _PtrValue("array", base=array, index=index)
        if isinstance(operand, ast.UnaryOp) and operand.op == "*":
            return self._lower_pointer(operand.operand)
        raise BuildError("cannot take this address", operand.location)

    def _pointer_add(self, pointer: _PtrValue, delta: Operand) -> _PtrValue:
        if isinstance(delta, Const) and delta.value == 0:
            return pointer
        if pointer.kind == "scalar":
            raise BuildError(
                "arithmetic on a pointer to a scalar is not synthesizable"
            )
        if pointer.kind == "array":
            assert pointer.index is not None
            index = self._emit(
                OpKind.BINARY, _INDEX_TYPE,
                [self._cast_to(pointer.index, _INDEX_TYPE),
                 self._cast_to(delta, _INDEX_TYPE)],
                op="+",
            )
            assert index is not None
            return _PtrValue("array", base=pointer.base, index=index)
        assert pointer.address is not None
        address = self._emit(
            OpKind.BINARY, _INDEX_TYPE,
            [pointer.address, self._cast_to(delta, _INDEX_TYPE)], op="+",
        )
        assert address is not None
        return _PtrValue("memory", address=address)

    def _pointer_as_operand(self, pointer: _PtrValue, expr: ast.Expr) -> Operand:
        """A pointer value flowing into a register or comparison."""
        if pointer.kind == "memory":
            assert pointer.address is not None
            return pointer.address
        if pointer.kind == "array":
            assert pointer.index is not None
            return self._cast_to(pointer.index, _INDEX_TYPE)
        raise BuildError(
            "a pointer to a scalar register has no runtime representation",
            expr.location,
        )

    def _comparable_pointer(self, pointer: _PtrValue, expr: ast.Expr) -> Operand:
        return self._pointer_as_operand(pointer, expr)

    def _assign_pointer(self, symbol: Symbol, value: _PtrValue) -> None:
        if symbol in self.plan.bases:
            kind, base = self.plan.bases[symbol]
            if kind == "scalar":
                return  # statically resolved; nothing to store
            if value.kind != "array" or value.base is not base:
                raise BuildError(
                    f"pointer plan mismatch assigning {symbol.name!r}"
                )
            assert value.index is not None
            self._write_var(self._index_register(symbol), value.index)
            return
        # Unresolved: store the word address.
        if value.kind != "memory":
            raise BuildError(
                f"pointer {symbol.name!r} is unresolved but its value is not"
                " a unified-memory address"
            )
        assert value.address is not None
        self._note_register(symbol)
        address = self._localize(value.address)
        self.current_values[symbol] = address
        self.block.var_writes[symbol] = address


def build_function(
    fn: ast.FunctionDef,
    info: SemanticInfo,
    plan: Optional[PointerPlan] = None,
) -> FunctionCDFG:
    """Lower one inlined function to a CDFG."""
    return CDFGBuilder(fn, info, plan).build()


def build_module(
    program: ast.Program,
    info: SemanticInfo,
    enable_pointer_analysis: bool = True,
) -> ModuleCDFG:
    """Lower every function of an inlined program."""
    module = ModuleCDFG(
        channels=[c.symbol for c in program.channels],  # type: ignore[attr-defined]
        global_symbols=[g.symbol for g in program.globals],  # type: ignore[attr-defined]
        global_inits=dict(info.global_inits),
    )
    for fn in program.functions:
        plan = plan_pointers(fn, enable_analysis=enable_pointer_analysis)
        module.functions[fn.name] = build_function(fn, info, plan)
    return module
