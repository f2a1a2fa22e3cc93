"""One frontend per owner: parse and analyze each source once.

A :class:`Frontend` memoizes ``parse_program`` + ``analyze`` for whoever
owns it (a :class:`~repro.runner.MatrixEngine`, and through the engine a
fuzz campaign), so the golden model, the in-process cells, mutation and
lint share one ``(Program, SemanticInfo)`` per source instead of each
parsing it again.

* **Keyed by exact text.**  The memo key is ``(source, filename)``, not
  the normalized token stream the cache keys on: every AST node carries
  a :class:`~repro.lang.errors.SourceLocation`, so two sources that
  differ only in layout produce different diagnostics and must not share
  a tree.
* **Failures too.**  A :class:`~repro.lang.errors.FrontendError` is
  remembered and raised again on every later lookup, each time from the
  traceback of the first raise (with its frames' locals cleared), so the
  tail of a formatted traceback is the same on a hit as on the miss and
  it does not grow from raise to raise.  Any other exception (a deadline
  alarm, ``RecursionError``) propagates and is not remembered.
* **Shared, read-only.**  What :meth:`Frontend.parse` returns is shared
  by every later caller; consumers must not modify it.  A consumer that
  rewrites the tree (the metamorphic mutator) asks :meth:`Frontend.fresh`
  for a private copy, unpickled from one snapshot per source.
* **Bounded.**  At most :data:`CAPACITY` sources stay memoized, least
  recently used first out, so a long campaign does not keep every tree
  it ever saw.

A frontend is not thread-safe; each engine owns its own.
"""

from __future__ import annotations

import pickle
import traceback
from collections import OrderedDict
from typing import Optional, Tuple

from ..trace import ensure_trace
from .ast_nodes import Program
from .errors import FrontendError
from .parser import parse_program
from .semantic import SemanticInfo, analyze

#: Sources one :class:`Frontend` keeps.  Above the distinct sources of the
#: largest default engine batch (200 cells); about 18 MB at ~36 KB per
#: generated fuzz program.
CAPACITY = 512


class _Entry:
    """The frontend's outcome for one source: the tree, its analysis, or
    the error that stopped either, plus the copy snapshot once asked."""

    __slots__ = ("program", "info", "error", "error_tb", "snapshot")

    def __init__(self) -> None:
        self.program: Optional[Program] = None
        self.info: Optional[SemanticInfo] = None
        self.error: Optional[FrontendError] = None
        self.error_tb = None
        self.snapshot: Optional[bytes] = None

    def raise_if_failed(self) -> None:
        if self.error is not None:
            raise self.error.with_traceback(self.error_tb)

    def fail(self, error: FrontendError) -> None:
        traceback.clear_frames(error.__traceback__)
        self.error = error
        self.error_tb = error.__traceback__


class Frontend:
    """A bounded memo of the parse and semantic phases, keyed by
    ``(source, filename)``."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple[str, str], _Entry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def parse(
        self, source: str, filename: str = "<input>", trace=None
    ) -> Tuple[Program, SemanticInfo]:
        """The analyzed AST and semantic summary of ``source``, shared and
        read-only.  Records the ``parse`` and ``semantic`` phase spans in
        ``trace`` either way, with ``memo`` set to ``hit`` or ``miss``."""
        t = ensure_trace(trace)
        key = (source, filename)
        entry = self._entries.get(key)
        hit = entry is not None
        if hit:
            self._entries.move_to_end(key)
        else:
            entry = _Entry()
        memo = "hit" if hit else "miss"
        try:
            with t.span("parse", cat="phase"):
                t.count(memo=memo)
                if entry.program is None:
                    entry.raise_if_failed()
                    entry.program = parse_program(source, filename)
                if t.enabled:
                    t.count(functions=len(entry.program.functions),
                            processes=len(entry.program.processes))
            with t.span("semantic", cat="phase"):
                t.count(memo=memo)
                if entry.info is None:
                    entry.raise_if_failed()
                    entry.info = analyze(entry.program)
        except FrontendError as error:
            if not hit:
                entry.fail(error)
                self._remember(key, entry)
            raise
        if not hit:
            self._remember(key, entry)
        return entry.program, entry.info

    def fresh(self, source: str, filename: str = "<input>") -> Program:
        """A private, mutable copy of the analyzed AST of ``source``, for
        consumers that rewrite it.  Raises like :meth:`parse`."""
        self.parse(source, filename)
        entry = self._entries[(source, filename)]
        if entry.snapshot is None:
            entry.snapshot = pickle.dumps(
                entry.program, protocol=pickle.HIGHEST_PROTOCOL
            )
        return pickle.loads(entry.snapshot)

    def _remember(self, key: Tuple[str, str], entry: _Entry) -> None:
        self._entries[key] = entry
        if len(self._entries) > CAPACITY:
            self._entries.popitem(last=False)


def frontend_phases(
    source: str, trace=None, frontend: Optional[Frontend] = None
) -> Tuple[Program, SemanticInfo]:
    """The parse and semantic phases of one compile: through ``frontend``
    when given (a shared, read-only result), else a fresh parse."""
    if frontend is None:
        frontend = Frontend()
    return frontend.parse(source, trace=trace)


__all__ = ["CAPACITY", "Frontend", "frontend_phases"]
