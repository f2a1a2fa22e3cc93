"""``repro.trace`` — zero-dependency structured tracing and metrics.

The paper's whole argument is about *where* each C-like flow spends its
effort — which phase rejects a feature, how the scheduler places cycle
boundaries, why compiler-inferred ILP plateaus — so the reproduction needs
to see more than end-to-end verdicts.  A :class:`TraceContext` is created
per synthesis and threaded through the whole pipeline
(``parse -> semantic -> inline -> cdfg -> passes -> schedule -> bind ->
emit -> sim``); every phase opens a :class:`Span` carrying a monotonic
start, a duration, and free-form counters (op counts in/out, states,
registers, cache hits...).

Design constraints, in order:

* **Off means off.**  Tracing is disabled by default; the disabled path is
  the shared :data:`NO_TRACE` singleton whose ``span()`` returns one
  preallocated no-op context manager and whose ``count()``/``leaf()`` are
  ``pass``.  No spans, no string formatting, no allocation per call —
  ``benchmarks/bench_trace_overhead.py`` (E16) pins the budget.
* **Spans are plain data.**  They cross the matrix runner's process-pool
  boundary (pickled, or JSON inside a ``CellResult``) and live next to
  cached artifacts, so warm cache hits still report where a cell's time
  went when it was actually computed.  Pickling is rebuilt from fields —
  the same ``__reduce__`` discipline as ``FlowError``.
* **Standard exports.**  :meth:`TraceContext.to_chrome` emits the Chrome
  ``trace_event`` format (load it in ``chrome://tracing`` or Perfetto);
  :meth:`TraceContext.to_jsonl` emits one JSON object per span for ad-hoc
  ``jq``/pandas processing.

Usage::

    trace = TraceContext("gcd.c")
    with trace.span("parse", cat="phase"):
        ...
    trace.count(tokens=1234)                   # counter on the open span
    trace.write_chrome("out.json")             # open in Perfetto
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# Category names used across the pipeline.  ``CAT_PHASE`` marks the
# top-level pipeline stages that the matrix summary aggregates; everything
# else ("pass", "sim", "bind", "module", ...) is finer detail.
CAT_PHASE = "phase"

# The canonical pipeline ordering, used to sort summary columns.  Flows
# skip phases that do not apply to them (Cones has no schedule, CASH has
# no bind); unknown names sort after these, alphabetically.
PHASE_ORDER = (
    "parse",
    "semantic",
    "check",
    "inline",
    "cdfg",
    "passes",
    "schedule",
    "flatten",
    "bind",
    "emit",
    "sim",
)


def _phase_sort_key(name: str) -> Tuple[int, str]:
    try:
        return (PHASE_ORDER.index(name), "")
    except ValueError:
        return (len(PHASE_ORDER), name)


class Span:
    """One timed region: name, category, monotonic start, duration, and a
    flat dict of counters (``args`` in Chrome's vocabulary)."""

    __slots__ = ("name", "cat", "start_us", "dur_us", "args", "children")

    def __init__(
        self,
        name: str,
        cat: str = "",
        start_us: float = 0.0,
        dur_us: float = 0.0,
        args: Optional[Dict[str, object]] = None,
        children: Optional[List["Span"]] = None,
    ):
        self.name = name
        self.cat = cat
        self.start_us = start_us
        self.dur_us = dur_us
        self.args = args if args is not None else {}
        self.children = children if children is not None else []

    def __reduce__(self):
        # Slots have no __dict__; rebuild from the fields explicitly so
        # spans cross process boundaries intact (the parallel matrix
        # runner ships them home inside CellResults) — the same pattern
        # FlowError uses for the same reason.
        return (
            self.__class__,
            (self.name, self.cat, self.start_us, self.dur_us,
             self.args, self.children),
        )

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, cat={self.cat!r}, "
            f"dur_us={self.dur_us:.1f}, children={len(self.children)})"
        )

    def walk(self, depth: int = 0) -> Iterator[Tuple[int, "Span"]]:
        """Pre-order (depth, span) traversal of this subtree."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "cat": self.cat,
            "start_us": round(self.start_us, 3),
            "dur_us": round(self.dur_us, 3),
        }
        if self.args:
            data["args"] = dict(self.args)
        if self.children:
            data["children"] = [c.to_dict() for c in self.children]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        return cls(
            name=str(data.get("name", "")),
            cat=str(data.get("cat", "")),
            start_us=float(data.get("start_us", 0.0)),
            dur_us=float(data.get("dur_us", 0.0)),
            args=dict(data.get("args", {})),  # type: ignore[arg-type]
            children=[cls.from_dict(c)
                      for c in data.get("children", ())],  # type: ignore[union-attr]
        )


class _NullSpan:
    """What ``NO_TRACE.span(...)`` hands out: one shared, reusable no-op
    context manager.  ``__enter__`` returns itself so `with ... as s`
    works; every mutator is a no-op."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTrace:
    """The disabled tracer: the API of :class:`TraceContext`, none of the
    work.  A single shared instance (:data:`NO_TRACE`) backs every
    untraced synthesis, so the guarded calls in the pipeline cost one
    attribute lookup and one no-op call."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, cat: str = ""):
        return _NULL_SPAN

    def count(self, **counters) -> None:
        pass

    def leaf(self, name: str, dur_s: float, cat: str = "", **counters) -> None:
        pass


NO_TRACE = NullTrace()


def ensure_trace(trace) -> "TraceContext":
    """``trace`` if given, else the shared disabled tracer."""
    return trace if trace is not None else NO_TRACE


class _SpanHandle:
    """Context manager that opens a :class:`Span` in a context's tree."""

    __slots__ = ("_context", "_span", "_t0")

    def __init__(self, context: "TraceContext", span: Span):
        self._context = context
        self._span = span
        self._t0 = 0.0

    def __enter__(self) -> Span:
        context = self._context
        span = self._span
        parent = context._stack[-1] if context._stack else None
        if parent is not None:
            parent.children.append(span)
        else:
            context.roots.append(span)
        context._stack.append(span)
        self._t0 = perf_counter()
        span.start_us = (self._t0 - context._origin) * 1e6
        return span

    def __exit__(self, *exc):
        self._span.dur_us = (perf_counter() - self._t0) * 1e6
        self._context._stack.pop()
        return False


class TraceContext:
    """A per-synthesis tree of spans plus counters.

    Not thread-safe by design: one synthesis runs on one thread (the
    matrix runner gives each worker process its own context)."""

    enabled = True

    def __init__(self, name: str = "synthesis"):
        self.name = name
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._origin = perf_counter()

    def __reduce__(self):
        # An open stack cannot survive a process hop (and never needs to:
        # contexts are only shipped once their spans are closed).
        return (TraceContext.from_dict, (self.to_dict(),))

    # -- recording --------------------------------------------------------

    def span(self, name: str, cat: str = "") -> _SpanHandle:
        """Open a timed child span: ``with trace.span("passes", "phase"):``"""
        return _SpanHandle(self, Span(name, cat))

    def count(self, **counters) -> None:
        """Attach counters to the innermost open span (or a synthetic
        root-level ``counters`` span when nothing is open)."""
        if not self._stack:
            self.roots.append(Span("counters", args=dict(counters)))
            return
        args = self._stack[-1].args
        for key, value in counters.items():
            if isinstance(value, (int, float)) and isinstance(
                args.get(key), (int, float)
            ):
                args[key] = args[key] + value
            else:
                args[key] = value

    def leaf(self, name: str, dur_s: float, cat: str = "", **counters) -> None:
        """Record an already-measured region (e.g. absorbing a
        ``SimProfile``'s compile/execute split) as a closed child span."""
        parent = self._stack[-1] if self._stack else None
        start = (perf_counter() - self._origin) * 1e6 - dur_s * 1e6
        span = Span(name, cat, start_us=max(start, 0.0),
                    dur_us=dur_s * 1e6, args=dict(counters))
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)

    # -- inspection -------------------------------------------------------

    def spans(self) -> Iterator[Tuple[int, Span]]:
        """Pre-order (depth, span) pairs over the whole forest."""
        for root in self.roots:
            yield from root.walk()

    def span_count(self) -> int:
        return sum(1 for _ in self.spans())

    def find(self, name: str) -> Optional[Span]:
        for _, span in self.spans():
            if span.name == name:
                return span
        return None

    def phase_totals(self) -> Dict[str, float]:
        """Wall microseconds per pipeline phase (spans with
        ``cat == "phase"``), summed over the forest."""
        totals: Dict[str, float] = {}
        for _, span in self.spans():
            if span.cat == CAT_PHASE:
                totals[span.name] = totals.get(span.name, 0.0) + span.dur_us
        return totals

    def structure(self) -> List[object]:
        """The duration-free shape of the trace: nested ``[name, children]``
        lists.  Deterministic for a deterministic compile, which is what
        lets fuzz corpus entries carry a trace without breaking their
        byte-identical-across-runs contract."""
        def shape(span: Span) -> object:
            if not span.children:
                return span.name
            return [span.name, [shape(c) for c in span.children]]

        return [shape(root) for root in self.roots]

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "spans": [root.to_dict() for root in self.roots],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TraceContext":
        context = cls(name=str(data.get("name", "synthesis")))
        context.roots = [
            Span.from_dict(s) for s in data.get("spans", ())  # type: ignore[union-attr]
        ]
        return context

    def to_jsonl(self) -> str:
        """One JSON object per span (pre-order), with depth."""
        lines = []
        for depth, span in self.spans():
            record = span.to_dict()
            record.pop("children", None)
            record["depth"] = depth
            record["trace"] = self.name
            lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines)

    def to_chrome(self) -> Dict[str, object]:
        """The Chrome ``trace_event`` JSON object format: complete ("X")
        events with the required name/ph/ts/pid/tid keys, loadable in
        ``chrome://tracing`` and Perfetto."""
        events: List[Dict[str, object]] = [{
            "name": "process_name",
            "ph": "M",
            "ts": 0,
            "pid": 1,
            "tid": 1,
            "args": {"name": self.name},
        }]
        for _, span in self.spans():
            event: Dict[str, object] = {
                "name": span.name,
                "cat": span.cat or "repro",
                "ph": "X",
                "ts": round(span.start_us, 3),
                "dur": round(span.dur_us, 3),
                "pid": 1,
                "tid": 1,
            }
            if span.args:
                event["args"] = dict(span.args)
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle, sort_keys=True)
            handle.write("\n")

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl() + "\n")


# -- aggregation over serialized traces --------------------------------------

def _iter_span_dicts(trace_dict: Dict[str, object]) -> Iterator[Dict[str, object]]:
    stack = list(trace_dict.get("spans", ()))  # type: ignore[arg-type]
    while stack:
        span = stack.pop()
        yield span
        stack.extend(span.get("children", ()))


def phase_totals_of(trace_dict: Optional[Dict[str, object]]) -> Dict[str, float]:
    """Phase-name -> total microseconds for one serialized trace (the form
    stored on :class:`~repro.runner.CellResult` and in the cache)."""
    totals: Dict[str, float] = {}
    if not trace_dict:
        return totals
    for span in _iter_span_dicts(trace_dict):
        if span.get("cat") == CAT_PHASE:
            name = str(span.get("name", ""))
            totals[name] = totals.get(name, 0.0) + float(span.get("dur_us", 0.0))
    return totals


def structure_of(trace_dict: Optional[Dict[str, object]]) -> List[object]:
    """Duration-free span shape of a serialized trace (see
    :meth:`TraceContext.structure`)."""
    if not trace_dict:
        return []

    def shape(span: Dict[str, object]) -> object:
        children = span.get("children")
        if not children:
            return span.get("name", "")
        return [span.get("name", ""), [shape(c) for c in children]]

    return [shape(s) for s in trace_dict.get("spans", ())]  # type: ignore[union-attr]


#: Span args that say how a phase ran, not what it produced: the
#: frontend's ``memo`` (``hit``/``miss``) depends on whether the cell ran
#: in-process next to the golden model's parse or in a pool worker.
PROVENANCE_ARGS = frozenset({"memo"})


def counters_of(trace_dict: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Deterministic counters of a serialized trace, flattened as
    ``span-name.key`` (first occurrence wins on collisions); the
    :data:`PROVENANCE_ARGS` are left out."""
    flat: Dict[str, object] = {}
    if not trace_dict:
        return flat
    for span in _iter_span_dicts(trace_dict):
        for key, value in (span.get("args") or {}).items():  # type: ignore[union-attr]
            if key not in PROVENANCE_ARGS:
                flat.setdefault(f"{span.get('name', '')}.{key}", value)
    return flat


def numeric_counters_of(
    trace_dict: Optional[Dict[str, object]],
) -> Dict[str, int]:
    """The integer subset of :func:`counters_of` — the deterministic
    counts (ops, states, machines, lanes) a coverage signal may bucket.
    Bools and any non-integral values are dropped: counters are counts
    by contract, but a defensive filter keeps accidental floats (which
    could carry timing jitter) out of coverage identity."""
    flat: Dict[str, int] = {}
    for key, value in counters_of(trace_dict).items():
        if isinstance(value, bool) or not isinstance(value, int):
            continue
        flat[key] = value
    return flat


def merge_phase_totals(
    traces: Sequence[Optional[Dict[str, object]]],
) -> Dict[str, float]:
    """Summed phase totals over many serialized traces (a matrix run)."""
    merged: Dict[str, float] = {}
    for trace_dict in traces:
        for phase, total in phase_totals_of(trace_dict).items():
            merged[phase] = merged.get(phase, 0.0) + total
    return merged


def sorted_phases(names) -> List[str]:
    """Phase names in canonical pipeline order (unknowns last, sorted)."""
    return sorted(names, key=_phase_sort_key)


__all__ = [
    "CAT_PHASE",
    "NO_TRACE",
    "NullTrace",
    "PHASE_ORDER",
    "Span",
    "TraceContext",
    "counters_of",
    "ensure_trace",
    "merge_phase_totals",
    "numeric_counters_of",
    "phase_totals_of",
    "sorted_phases",
    "structure_of",
]
