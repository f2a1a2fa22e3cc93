"""Symbols and lexically scoped symbol tables."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .errors import SemanticError, SourceLocation
from .types import Type


class SymbolKind(enum.Enum):
    LOCAL = "local"
    PARAM = "param"
    GLOBAL = "global"
    CHANNEL = "channel"
    FUNCTION = "function"


_uid = itertools.count()


@dataclass(eq=False)
class Symbol:
    """A named program entity.  ``unique_name`` disambiguates shadowed
    locals so the IR builder never has to reason about lexical scope.

    Symbols compare and hash by identity (``eq=False`` keeps object's
    C-level ``__eq__``/``__hash__``): two declarations of the same name
    are different storage."""

    name: str
    type: Type
    kind: SymbolKind
    is_const: bool = False
    location: SourceLocation = field(default_factory=lambda: SourceLocation(0, 0))
    unique_name: str = ""

    def __post_init__(self) -> None:
        if not self.unique_name:
            if self.kind in (SymbolKind.GLOBAL, SymbolKind.FUNCTION, SymbolKind.CHANNEL):
                self.unique_name = self.name
            else:
                self.unique_name = f"{self.name}.{next(_uid)}"


class Scope:
    """One lexical scope; chains to its parent for lookups."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.symbols: Dict[str, Symbol] = {}

    def declare(self, symbol: Symbol) -> Symbol:
        if symbol.name in self.symbols:
            previous = self.symbols[symbol.name]
            raise SemanticError(
                f"redeclaration of {symbol.name!r}"
                f" (previously declared at {previous.location})",
                symbol.location,
            )
        self.symbols[symbol.name] = symbol
        return symbol

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None


class ScopeStack:
    """Convenience wrapper that the semantic analyzer pushes/pops."""

    def __init__(self) -> None:
        self.global_scope = Scope()
        self._stack: List[Scope] = [self.global_scope]

    @property
    def current(self) -> Scope:
        return self._stack[-1]

    def push(self) -> Scope:
        scope = Scope(self.current)
        self._stack.append(scope)
        return scope

    def pop(self) -> None:
        if len(self._stack) == 1:
            raise RuntimeError("cannot pop the global scope")
        self._stack.pop()

    def declare(self, symbol: Symbol) -> Symbol:
        return self.current.declare(symbol)

    def lookup(self, name: str) -> Optional[Symbol]:
        return self.current.lookup(name)
