"""Self-time accounting around calls into the program's public functions.

The benchmark times layers from outside: it replaces a public function
(``repro.lang.lexer.tokenize``, ``MatrixEngine.golden_observable``, ...)
with a wrapper in the benchmark's own process, for the duration of a
traced round only.  Wrappers nest on one stack, so each layer's *self*
time excludes the wrapped layers it calls, and the self times of all
layers in a round add up to the round's wall time minus what no wrapper
covered (reported as unattributed).

Phase spans that ``repro.trace`` already records inside a cell are folded
in with :meth:`LayerClock.absorb`; they never overlap a wrapped call
except ``parse``/``semantic``, which the ``parse_program``/``analyze``
wrappers cover instead.
"""

from __future__ import annotations

import math
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence


class LayerClock:
    """Per-layer self seconds, and free-form counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        # One entry per open wrapped call: seconds spent in wrapped
        # children so far.
        self._stack: List[List[float]] = []

    def timed(self, name: str, fn: Callable,
              after: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped to charge its self time to ``name``.  ``after``
        sees ``(result, args, kwargs)`` inside the frame, so time it
        :meth:`absorb`\\ s counts as a child of this call."""
        stack = self._stack
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
                return result
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self_s[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def absorb(self, name: str, seconds: float) -> None:
        """Charge already-measured seconds (a recorded span) to ``name``
        as a child of the innermost open wrapped call, if any."""
        self.self_s[name] += seconds
        if self._stack:
            self._stack[-1][0] += seconds

    def total_s(self) -> float:
        return sum(self.self_s.values())


class Patches:
    """Swap module and class attributes for wrappers; undo on exit.

    A function imported by name into several modules has one binding per
    module, so every ``repro.*`` module attribute that *is* the original
    function object is replaced.  Call-time imports (``from ..lang
    import parse`` inside a function body) then find the wrapper too."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def function(self, original: Callable, wrapper: Callable) -> None:
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "") or ""
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def method(self, owner: type, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
        return False


# -- statistics -------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def geomean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values if v > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0
