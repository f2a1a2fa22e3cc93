"""Per-layer instrumentation for traced rounds.

:class:`Instrument` installs the wrappers of :mod:`perfbench.clock` around
the public functions each layer exposes, harvests every
:class:`~repro.runner.CellResult` that ``MatrixEngine.run_cells`` returns,
and folds the phase spans those results carry into the same self-time
ledger.  Everything it touches is restored when the round ends.

Layer names follow the package layout (``lang``, ``ir``, ``scheduling``,
``binding``, ``rtl``, ``sim``, ``interp``, ``runner``, ``fuzz``,
``analysis``, ``flows``).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Set, Tuple

from clock import LayerClock, Patches, median
from common import qor

#: Top-level phase span name -> layer.  ``parse`` and ``semantic`` are
#: timed by the ``parse_program``/``analyze`` wrappers when the cell ran
#: in this process, and taken from the spans only when it did not.
PHASE_LAYER = {
    "parse": "lang.parse",
    "semantic": "lang.analyze",
    "check": "analysis.check",
    "inline": "ir.inline",
    "cdfg": "ir.cdfg",
    "passes": "ir.passes",
    "schedule": "scheduling.schedule",
    "flatten": "flows.flatten",
    "bind": "binding.bind",
    "emit": "rtl.emit",
}

#: Layers whose self times make up a round (the attribution ledger).
TIMED_LAYERS = (
    "lang.tokenize", "lang.parse", "lang.analyze",
    "analysis.check", "ir.inline", "ir.cdfg", "ir.passes",
    "scheduling.schedule", "flows.flatten", "binding.bind", "rtl.emit",
    "sim.compile", "sim.execute", "flows.other",
    "interp.golden",
    "runner.key", "runner.cache_load", "runner.cache_store",
    "runner.cell_other",
    "fuzz.generate", "fuzz.mutate", "fuzz.coverage", "analysis.lint",
)


def _key_of(task) -> Tuple[str, str, Tuple[int, ...]]:
    return (task.source, task.function, tuple(task.args))


class Instrument:
    """Wrappers, harvest and counters for one or more traced rounds."""

    def __init__(self, fuzz: bool = False) -> None:
        self.clock = LayerClock()
        self.fuzz = fuzz
        self.results: List = []
        self.counts: Counter = self.clock.counts
        self.flow_s: Dict[str, float] = defaultdict(float)
        self.golden_none: Set[Tuple] = set()
        self.parse_sources: Set[str] = set()
        self.cell_s = 0.0
        self.run_cells_s = 0.0

    # -- harvest ------------------------------------------------------------

    def harvest(self, tasks, results, in_process: bool) -> None:
        """Fold one ``run_cells`` batch into the ledger."""
        self.results.extend(results)
        for task, result in zip(tasks, results):
            if result.verdict == "ok" and _key_of(task) in self.golden_none:
                self.counts["interp.unavailable"] += 1
            if result.cached:
                continue
            self.cell_s += result.wall_s
            self.flow_s[result.flow] += result.wall_s
            if result.verdict in ("ok", "mismatch"):
                self.counts["sim.cycles"] += int(result.cycles)
            self._spans(task, result, in_process)

    def _spans(self, task, result, in_process: bool) -> None:
        if not result.trace:
            return
        phases_s = 0.0
        for span in result.trace.get("spans", ()):
            name = span.get("name", "")
            dur_s = float(span.get("dur_us", 0.0)) / 1e6
            phases_s += dur_s
            args = span.get("args") or {}
            if name == "parse":
                self.counts["lang.parse_spans"] += 1
                self.parse_sources.add(task.source)
            if name == "passes":
                self.counts["ir.passes.ops_in"] += int(args.get("ops_in", 0))
                self.counts["ir.passes.ops_out"] += int(args.get("ops_out", 0))
            if not in_process:
                continue
            if name in ("parse", "semantic"):
                continue  # covered by the parse_program/analyze wrappers
            if name == "sim":
                execute = [c for c in span.get("children", ())
                           if c.get("name") == "sim.execute"]
                exec_s = (sum(float(c.get("dur_us", 0.0)) for c in execute)
                          / 1e6 if execute else dur_s)
                self.clock.absorb("sim.execute", exec_s)
                self.clock.absorb("sim.compile", dur_s - exec_s)
                continue
            self.clock.absorb(PHASE_LAYER.get(name, "flows.other"), dur_s)
        if in_process:
            self.clock.absorb("runner.cell_other",
                              max(0.0, result.wall_s - phases_s))

    # -- wrappers -----------------------------------------------------------

    def patches(self) -> Patches:
        """Install every wrapper; use as a context manager."""
        import repro.analysis.lint as lint_pkg
        import repro.fuzz.coverage as coverage
        import repro.fuzz.grammar as grammar
        import repro.fuzz.mutate as mutate
        import repro.interp as interp
        import repro.lang as lang
        import repro.lang.lexer as lexer
        import repro.lang.parser as parser
        import repro.runner.cache as cache
        from repro.runner import ArtifactCache, MatrixEngine

        clock = self.clock
        counts = self.counts
        patches = Patches()

        def tokens(result, args, kwargs):
            counts["lang.tokens"] += len(result)

        def loaded(result, args, kwargs):
            counts["runner.loads"] += 1
            counts["runner.load_hits"] += result is not None

        def golden(result, args, kwargs):
            if result is None:
                self.golden_none.add(_key_of(args[1]))

        def steps(result, args, kwargs):
            counts["interp.steps"] += int(result.steps)

        patches.function(lexer.tokenize,
                         clock.timed("lang.tokenize", lexer.tokenize, tokens))
        patches.function(parser.parse_program,
                         clock.timed("lang.parse", parser.parse_program))
        patches.function(lang.analyze, clock.timed("lang.analyze", lang.analyze))
        patches.function(cache.cell_key,
                         clock.timed("runner.key", cache.cell_key))
        # The golden model is golden_observable (memo and canonical form)
        # around run_program; both charge interp.golden, and the parse in
        # between charges lang.*.
        patches.function(interp.run_program,
                         clock.timed("interp.golden", interp.run_program, steps))
        patches.method(ArtifactCache, "load", clock.timed(
            "runner.cache_load", ArtifactCache.load, loaded))
        patches.method(ArtifactCache, "store", clock.timed(
            "runner.cache_store", ArtifactCache.store))
        patches.method(MatrixEngine, "golden_observable", clock.timed(
            "interp.golden", MatrixEngine.golden_observable, golden))
        if self.fuzz:
            patches.function(grammar.generate_program, clock.timed(
                "fuzz.generate", grammar.generate_program))
            patches.function(mutate.mutants,
                             clock.timed("fuzz.mutate", mutate.mutants))
            patches.function(coverage.cell_signals, clock.timed(
                "fuzz.coverage", coverage.cell_signals))
            patches.function(lint_pkg.lint,
                             clock.timed("analysis.lint", lint_pkg.lint))

        run_cells = MatrixEngine.run_cells

        def harvesting(engine, tasks):
            t0 = perf_counter()
            results = run_cells(engine, tasks)
            self.run_cells_s += perf_counter() - t0
            self.harvest(tasks, results, in_process=engine.jobs == 1)
            return results

        patches.method(MatrixEngine, "run_cells", harvesting)
        return patches


# -- per-layer metrics --------------------------------------------------------

FLOWS = ("cones", "hardwarec", "transmogrifier", "systemc", "c2verilog",
         "cyber", "handelc", "specc", "bachc", "cash")

#: Every per-layer metric: (name, unit, better).  Times are self times per
#: traced round; counts are per round.  A layer a workload does not reach
#: reads 0.
PER_LAYER = (
    [("lang.tokenize_ms", "ms", "lower"),
     ("lang.tokens_per_s", "1/s", "higher"),
     ("lang.parse_ms", "ms", "lower"),
     ("lang.analyze_ms", "ms", "lower"),
     ("lang.parses_per_source", "count", "lower"),
     ("analysis.check_ms", "ms", "lower"),
     ("ir.inline_ms", "ms", "lower"),
     ("ir.cdfg_ms", "ms", "lower"),
     ("ir.passes_ms", "ms", "lower"),
     ("ir.passes.ops_in", "count", "lower"),
     ("ir.passes.ops_out", "count", "lower"),
     ("scheduling.schedule_ms", "ms", "lower"),
     ("flows.flatten_ms", "ms", "lower"),
     ("flows.other_ms", "ms", "lower"),
     ("binding.bind_ms", "ms", "lower"),
     ("rtl.emit_ms", "ms", "lower")]
    + [(f"flows.{flow}_ms", "ms", "lower") for flow in FLOWS]
    + [("sim.compile_ms", "ms", "lower"),
       ("sim.execute_ms", "ms", "lower"),
       ("sim.cycles", "count", "lower"),
       ("sim.ns_per_cycle", "ns", "lower"),
       ("interp.golden_ms", "ms", "lower"),
       ("interp.steps", "count", "lower"),
       ("interp.us_per_step", "us", "lower"),
       ("interp.unavailable", "count", "lower"),
       ("runner.key_ms", "ms", "lower"),
       ("runner.cache_load_ms", "ms", "lower"),
       ("runner.cache_store_ms", "ms", "lower"),
       ("runner.hit_ratio", "ratio", "higher"),
       ("runner.cell_other_ms", "ms", "lower"),
       ("runner.parent_ms", "ms", "lower"),
       ("runner.pool_efficiency", "ratio", "higher"),
       ("latency_ns_geomean", "ns_modelled", "lower"),
       ("area_ge_geomean", "GE", "lower"),
       ("fuzz.generate_ms", "ms", "lower"),
       ("fuzz.mutate_ms", "ms", "lower"),
       ("fuzz.coverage_ms", "ms", "lower"),
       ("analysis.lint_ms", "ms", "lower"),
       ("fuzz.coverage_buckets", "count", "higher"),
       ("fuzz.divergences", "count", "lower"),
       ("serve.validate_ms", "ms", "lower"),
       ("serve.hits", "count", "higher"),
       ("serve.coalesced", "count", "higher"),
       ("serve.compiles", "count", "lower"),
       ("serve.shed", "count", "lower"),
       ("serve.gen_late_ms", "ms", "lower"),
       ("bench.untraced_round_ms", "ms", "lower"),
       ("bench.traced_round_ms", "ms", "lower"),
       ("bench.trace_overhead_pct", "%", "lower"),
       ("bench.unattributed_ms", "ms", "lower"),
       ("bench.unattributed_pct", "%", "lower")]
)

#: Counters that must repeat exactly from one traced round to the next.
DETERMINISTIC_COUNTS = ("sim.cycles", "ir.passes.ops_in", "ir.passes.ops_out",
                        "interp.steps", "lang.parse_spans")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(inst: Instrument, rounds: int) -> Dict[str, float]:
    """Per-round layer metrics from an instrument's ledger."""
    s = inst.clock.self_s
    c = inst.counts
    n = max(rounds, 1)
    out: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        out[layer + "_ms"] = s.get(layer, 0.0) * 1e3 / n
    for flow in FLOWS:
        out[f"flows.{flow}_ms"] = inst.flow_s.get(flow, 0.0) * 1e3 / n
    out["lang.tokens_per_s"] = _ratio(c["lang.tokens"], s.get("lang.tokenize", 0.0))
    out["lang.parses_per_source"] = _ratio(c["lang.parse_spans"],
                                           n * len(inst.parse_sources))
    out["ir.passes.ops_in"] = c["ir.passes.ops_in"] / n
    out["ir.passes.ops_out"] = c["ir.passes.ops_out"] / n
    out["sim.cycles"] = c["sim.cycles"] / n
    out["sim.ns_per_cycle"] = _ratio(s.get("sim.execute", 0.0) * 1e9,
                                     c["sim.cycles"])
    out["interp.steps"] = c["interp.steps"] / n
    out["interp.us_per_step"] = _ratio(s.get("interp.golden", 0.0) * 1e6,
                                       c["interp.steps"])
    out["interp.unavailable"] = c["interp.unavailable"] / n
    out["runner.hit_ratio"] = _ratio(c["runner.load_hits"], c["runner.loads"])
    out["runner.parent_ms"] = max(0.0, inst.run_cells_s - inst.cell_s) * 1e3 / n
    out.update(qor(inst.results))
    return out


def overhead(values: Dict[str, float], untraced: List[float],
             traced: List[float], inst: Instrument) -> None:
    """Traced against untraced round time, and what the self-time ledger
    leaves unattributed of the traced rounds, into ``values``."""
    values["bench.untraced_round_ms"] = median(untraced) * 1e3
    values["bench.traced_round_ms"] = median(traced) * 1e3
    values["bench.trace_overhead_pct"] = (
        100.0 * (median(traced) / median(untraced) - 1.0)
    )
    rest = sum(traced) - inst.clock.total_s()
    values["bench.unattributed_ms"] = rest * 1e3 / len(traced)
    values["bench.unattributed_pct"] = 100.0 * _ratio(rest, sum(traced))


def traced_rounds(ctx, inst: Instrument,
                  run: Callable[[bool], Tuple[float, Dict[str, int]]]):
    """Alternate an untraced and a traced round of the same configuration
    until the run's time is spent (at least two of each).  ``run(traced)``
    returns the round's wall seconds and any counts of its own; every
    deterministic count must repeat exactly from round to round.
    Returns (untraced walls, traced walls)."""
    untraced: List[float] = []
    traced: List[float] = []
    per_round: List[Dict[str, int]] = []
    started = perf_counter()
    while len(traced) < 2 or perf_counter() - started < ctx.seconds:
        untraced.append(run(False)[0])
        before = dict(inst.counts)
        with inst.patches():
            wall, extra = run(True)
        traced.append(wall)
        counts = {k: v - before.get(k, 0) for k, v in inst.counts.items()}
        counts.update(extra)
        per_round.append(counts)
    for name in DETERMINISTIC_COUNTS + tuple(sorted(extra)):
        values = {r.get(name, 0) for r in per_round}
        ctx.check(f"deterministic_{name}", len(values) == 1,
                  f"{name} per round: {sorted(values)}")
    return untraced, traced


def finish_layers(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Every per-layer metric, in declaration order, with its unit."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit, _better in PER_LAYER}


class collect_results:
    """Context manager: keep every result ``MatrixEngine.run_cells``
    returns, with the wall time of each call (no other wrapper)."""

    def __init__(self) -> None:
        self.results: List = []
        self.run_cells_s = 0.0
        self.cell_s = 0.0
        self.jobs = 1
        self._patches = Patches()

    def __enter__(self) -> "collect_results":
        from repro.runner import MatrixEngine

        run_cells = MatrixEngine.run_cells

        def collecting(engine, tasks):
            t0 = perf_counter()
            results = run_cells(engine, tasks)
            self.run_cells_s += perf_counter() - t0
            self.jobs = engine.jobs
            self.results.extend(results)
            self.cell_s += sum(r.wall_s for r in results if not r.cached)
            return results

        self._patches.method(MatrixEngine, "run_cells", collecting)
        return self

    def __exit__(self, *exc) -> bool:
        return self._patches.__exit__(*exc)

    def pool_efficiency(self) -> float:
        return _ratio(self.cell_s, self.jobs * self.run_cells_s)
