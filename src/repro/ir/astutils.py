"""AST surgery utilities: cloning, substitution, and return-elimination.

The AST-level transformation passes (function inlining, loop unrolling, the
"recoding" variants the timing experiments generate) all need to duplicate
subtrees.  Cloning allocates fresh :class:`~repro.lang.symtab.Symbol` objects
for every declaration it copies so that duplicated code never aliases the
original's storage, and it can substitute arbitrary expressions for
identifiers (how array/pointer arguments are bound during inlining).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from ..lang import ast_nodes as ast
from ..lang.errors import SemanticError
from ..lang.symtab import Symbol, SymbolKind
from ..lang.types import BOOL, Type

_fresh = itertools.count()


def fresh_symbol(name: str, sym_type: Type, kind: SymbolKind = SymbolKind.LOCAL) -> Symbol:
    """A new, never-before-seen local symbol."""
    return Symbol(f"{name}~{next(_fresh)}", sym_type, kind)


class Cloner:
    """Deep-copies statements/expressions.

    ``symbol_map`` maps original symbols to replacement symbols (fresh ones
    are invented for declarations encountered during the walk).
    ``substitutions`` maps symbols to whole replacement *expressions*; a
    matching identifier is replaced by a clone of that expression.
    """

    def __init__(
        self,
        symbol_map: Optional[Dict[Symbol, Symbol]] = None,
        substitutions: Optional[Dict[Symbol, ast.Expr]] = None,
    ):
        self.symbol_map: Dict[Symbol, Symbol] = symbol_map or {}
        self.substitutions: Dict[Symbol, ast.Expr] = substitutions or {}
        # Clones substituted expressions: same symbol map, no substitutions.
        self._plain: Optional["Cloner"] = None

    # -- expressions -------------------------------------------------------

    # Node classes are leaves of the AST hierarchy, so the dispatch below
    # compares exact classes (cheaper than isinstance on every clone).

    def expr(self, e: ast.Expr) -> ast.Expr:
        cls = type(e)
        if cls is ast.IntLiteral:
            return ast.IntLiteral(value=e.value, location=e.location, type=e.type)
        if cls is ast.BoolLiteral:
            return ast.BoolLiteral(value=e.value, location=e.location, type=e.type)
        if cls is ast.Identifier:
            symbol: Symbol = e.symbol  # type: ignore[attr-defined]
            if symbol in self.substitutions:
                # Substitute a fresh clone so shared structure never appears.
                # Cloning an expression never adds to the symbol map, so the
                # plain cloner can share this one's instead of a copy.
                if self._plain is None:
                    self._plain = Cloner()
                    self._plain.symbol_map = self.symbol_map
                return self._plain.expr(self.substitutions[symbol])
            mapped = self.symbol_map.get(symbol, symbol)
            out = ast.Identifier(name=mapped.name, location=e.location, type=e.type)
            out.symbol = mapped  # type: ignore[attr-defined]
            return out
        if cls is ast.UnaryOp:
            return ast.UnaryOp(
                op=e.op, operand=self.expr(e.operand), location=e.location, type=e.type
            )
        if cls is ast.BinaryOp:
            return ast.BinaryOp(
                op=e.op,
                left=self.expr(e.left),
                right=self.expr(e.right),
                location=e.location,
                type=e.type,
            )
        if cls is ast.Conditional:
            return ast.Conditional(
                cond=self.expr(e.cond),
                then=self.expr(e.then),
                otherwise=self.expr(e.otherwise),
                location=e.location,
                type=e.type,
            )
        if cls is ast.ArrayIndex:
            return ast.ArrayIndex(
                base=self.expr(e.base),
                index=self.expr(e.index),
                location=e.location,
                type=e.type,
            )
        if cls is ast.Call:
            out = ast.Call(
                callee=e.callee,
                args=[self.expr(a) for a in e.args],
                location=e.location,
                type=e.type,
            )
            if hasattr(e, "symbol"):
                out.symbol = e.symbol  # type: ignore[attr-defined]
            return out
        if cls is ast.Receive:
            out = ast.Receive(channel=e.channel, location=e.location, type=e.type)
            if hasattr(e, "symbol"):
                mapped = self.symbol_map.get(e.symbol, e.symbol)  # type: ignore[attr-defined]
                out.symbol = mapped  # type: ignore[attr-defined]
                out.channel = mapped.name
            return out
        raise TypeError(f"cannot clone expression {type(e).__name__}")

    # -- statements --------------------------------------------------------

    def stmt(self, s: ast.Stmt) -> ast.Stmt:
        cls = type(s)
        if cls is ast.Block:
            return ast.Block(
                statements=[self.stmt(c) for c in s.statements], location=s.location
            )
        if cls is ast.VarDecl:
            original: Symbol = s.symbol  # type: ignore[attr-defined]
            replacement = fresh_symbol(original.name, original.type, original.kind)
            replacement.is_const = original.is_const
            self.symbol_map[original] = replacement
            out = ast.VarDecl(
                name=replacement.name,
                var_type=s.var_type,
                init=self.expr(s.init) if s.init is not None else None,
                array_init=[self.expr(e) for e in s.array_init]
                if s.array_init is not None
                else None,
                is_const=s.is_const,
                location=s.location,
            )
            out.symbol = replacement  # type: ignore[attr-defined]
            return out
        if cls is ast.Assign:
            return ast.Assign(
                target=self.expr(s.target), value=self.expr(s.value), location=s.location
            )
        if cls is ast.ExprStmt:
            return ast.ExprStmt(expr=self.expr(s.expr), location=s.location)
        if cls is ast.If:
            return ast.If(
                cond=self.expr(s.cond),
                then=self.stmt(s.then),
                otherwise=self.stmt(s.otherwise) if s.otherwise is not None else None,
                location=s.location,
            )
        if cls is ast.While:
            return ast.While(cond=self.expr(s.cond), body=self.stmt(s.body), location=s.location)
        if cls is ast.DoWhile:
            return ast.DoWhile(body=self.stmt(s.body), cond=self.expr(s.cond), location=s.location)
        if cls is ast.For:
            return ast.For(
                init=self.stmt(s.init) if s.init is not None else None,
                cond=self.expr(s.cond) if s.cond is not None else None,
                step=self.stmt(s.step) if s.step is not None else None,
                body=self.stmt(s.body),
                location=s.location,
            )
        if cls is ast.Return:
            return ast.Return(
                value=self.expr(s.value) if s.value is not None else None,
                location=s.location,
            )
        if cls is ast.Break:
            return ast.Break(location=s.location)
        if cls is ast.Continue:
            return ast.Continue(location=s.location)
        if cls is ast.Par:
            return ast.Par(branches=[self.stmt(b) for b in s.branches], location=s.location)
        if cls is ast.Seq:
            body = self.stmt(s.body)
            assert isinstance(body, ast.Block)
            return ast.Seq(body=body, location=s.location)
        if cls is ast.Wait:
            return ast.Wait(location=s.location)
        if cls is ast.Delay:
            return ast.Delay(cycles=s.cycles, location=s.location)
        if cls is ast.Within:
            body = self.stmt(s.body)
            assert isinstance(body, ast.Block)
            return ast.Within(cycles=s.cycles, body=body, location=s.location)
        if cls is ast.Send:
            out = ast.Send(channel=s.channel, value=self.expr(s.value), location=s.location)
            if hasattr(s, "symbol"):
                mapped = self.symbol_map.get(s.symbol, s.symbol)  # type: ignore[attr-defined]
                out.symbol = mapped  # type: ignore[attr-defined]
                out.channel = mapped.name
            return out
        raise TypeError(f"cannot clone statement {type(s).__name__}")


def make_identifier(symbol: Symbol) -> ast.Identifier:
    """An identifier expression bound to ``symbol``."""
    ident = ast.Identifier(name=symbol.name, type=symbol.type)
    ident.symbol = symbol  # type: ignore[attr-defined]
    return ident


def make_int_literal(value: int, int_type: Type) -> ast.IntLiteral:
    lit = ast.IntLiteral(value=value)
    lit.type = int_type
    return lit


def contains_return(stmt: ast.Stmt) -> bool:
    return any(isinstance(s, ast.Return) for s in ast.walk_stmts(stmt))


def eliminate_returns(
    body: ast.Block, result_symbol: Optional[Symbol], done_symbol: Symbol
) -> ast.Block:
    """Rewrite ``return e`` into ``result = e; done = true;`` with guard
    logic so that execution falls through to the end of ``body``.

    This is the standard single-exit transformation used before inlining:
    after it, the block has no Return statements, and ``done`` is true on the
    paths that returned early.  Loops gain an early ``if (done) break;`` and
    their conditions are strengthened with ``!done``.
    """

    def not_done() -> ast.Expr:
        e = ast.UnaryOp(op="!", operand=make_identifier(done_symbol))
        e.type = BOOL
        return e

    def guard(statements: List[ast.Stmt]) -> List[ast.Stmt]:
        """Rewrite a statement list so that once ``done`` becomes true the
        remaining statements are skipped."""
        out: List[ast.Stmt] = []
        for i, s in enumerate(statements):
            rewritten, may_set_done = rewrite(s)
            out.append(rewritten)
            if may_set_done and i + 1 < len(statements):
                rest = guard(statements[i + 1 :])
                out.append(
                    ast.If(cond=not_done(), then=ast.Block(statements=rest))
                )
                break
        return out

    def rewrite(s: ast.Stmt):
        """Returns (rewritten_stmt, may_set_done)."""
        if isinstance(s, ast.Return):
            replacement: List[ast.Stmt] = []
            if s.value is not None:
                assert result_symbol is not None
                replacement.append(
                    ast.Assign(
                        target=make_identifier(result_symbol),
                        value=s.value,
                        location=s.location,
                    )
                )
            true_lit = ast.BoolLiteral(value=True)
            true_lit.type = BOOL
            replacement.append(
                ast.Assign(target=make_identifier(done_symbol), value=true_lit)
            )
            return ast.Block(statements=replacement, location=s.location), True
        if isinstance(s, ast.Block):
            if not contains_return(s):
                return s, False
            return ast.Block(statements=guard(s.statements), location=s.location), True
        if isinstance(s, ast.If):
            if not contains_return(s):
                return s, False
            then, _ = rewrite(s.then)
            otherwise = None
            if s.otherwise is not None:
                otherwise, _ = rewrite(s.otherwise)
            return (
                ast.If(cond=s.cond, then=then, otherwise=otherwise, location=s.location),
                True,
            )
        if isinstance(s, (ast.While, ast.DoWhile, ast.For)):
            if not contains_return(s):
                return s, False
            body_stmt = s.body
            new_body, _ = rewrite(body_stmt)
            escape = ast.If(cond=done_read_clone(), then=ast.Break())
            wrapped = ast.Block(statements=[new_body, escape])
            if isinstance(s, ast.While):
                return ast.While(cond=s.cond, body=wrapped, location=s.location), True
            if isinstance(s, ast.DoWhile):
                strengthened = ast.BinaryOp(op="&&", left=not_done(), right=s.cond)
                strengthened.type = BOOL
                return (
                    ast.DoWhile(body=wrapped, cond=strengthened, location=s.location),
                    True,
                )
            return (
                ast.For(
                    init=s.init, cond=s.cond, step=s.step, body=wrapped, location=s.location
                ),
                True,
            )
        if isinstance(s, ast.Seq):
            if not contains_return(s):
                return s, False
            inner, may = rewrite(s.body)
            assert isinstance(inner, ast.Block)
            return ast.Seq(body=inner, location=s.location), may
        if isinstance(s, ast.Par):
            if contains_return(s):
                raise SemanticError(
                    "return inside a par branch cannot be inlined", s.location
                )
            return s, False
        return s, False

    def done_read_clone() -> ast.Identifier:
        return make_identifier(done_symbol)

    return ast.Block(statements=guard(body.statements), location=body.location)
