"""The matrix execution engine.

One engine runs any set of (workload, flow) cells three ways with
identical results:

* **serial** (``jobs=1``) — in-process, the reference mode;
* **parallel** (``jobs>1``) — a ``concurrent.futures`` process pool with
  per-cell deadlines and crash isolation: a cell that raises becomes an
  ``error`` verdict, a cell that exceeds its deadline becomes ``timeout``,
  and a cell that kills its worker outright is retried in a one-shot pool
  so the rest of the sweep survives;
* **cached** — cells whose content address (see :mod:`.cache`) is already
  on disk replay from the artifact cache without recompiling.

Every cell compares the flow's simulated observables (return value,
globals, channel logs) against the reference C interpreter, so the sweep
is simultaneously a differential co-simulation of all flows.
"""

from __future__ import annotations

import signal
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..lang.frontend import CAPACITY as FRONTEND_CAPACITY, Frontend
from .cache import ArtifactCache, cell_key, environment_salt
from .cells import (
    ERROR,
    MISMATCH,
    OK,
    REJECTED,
    TIMEOUT,
    CellResult,
    CellTask,
    canonical_observable,
)

DEFAULT_TIMEOUT_S = 60.0
DEFAULT_MAX_CYCLES = 2_000_000


class CellTimeout(Exception):
    """Raised inside a worker when the per-cell deadline expires."""


class _Deadline:
    """SIGALRM-based per-cell deadline (POSIX main thread only; elsewhere
    the simulator's ``max_cycles`` bound is the only backstop)."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False

    def __enter__(self):
        usable = (
            self.seconds > 0
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )
        if usable:
            self._previous = signal.signal(signal.SIGALRM, self._fire)
            signal.setitimer(signal.ITIMER_REAL, self.seconds)
            self.armed = True
        return self

    def __exit__(self, *exc):
        if self.armed:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
        return False

    @staticmethod
    def _fire(signum, frame):
        raise CellTimeout()


def execute_cell(
    payload: Dict[str, object], frontend=None
) -> Dict[str, object]:
    """Compile, simulate, and judge one cell.  Module-level and dict-in /
    dict-out so it pickles across the process pool unchanged.

    ``payload`` carries the :class:`CellTask` fields plus ``expected`` (the
    golden model's canonical observable, or None when the reference
    interpreter could not run the program), ``timeout_s``, ``max_cycles``,
    ``cache_key``, and ``trace`` (record phase spans into the result).
    ``frontend`` (in-process cells only) supplies the shared parse of the
    source; see :class:`~repro.lang.Frontend`."""
    import hashlib

    from ..api import synthesize
    from ..flows import FlowError
    from ..trace import TraceContext

    task = CellTask(
        workload=payload["workload"],
        source=payload["source"],
        flow=payload["flow"],
        function=payload.get("function", "main"),
        args=tuple(payload.get("args", ())),
        options=tuple((k, v) for k, v in payload.get("options", ())),
        sim_backend=str(payload.get("sim_backend", "interp")),
        check=bool(payload.get("check", False)),
    )
    result = CellResult(
        workload=task.workload,
        flow=task.flow,
        function=task.function,
        args=task.args,
        sim_backend=task.sim_backend,
        cache_key=str(payload.get("cache_key", "")),
    )
    trace = None
    if payload.get("trace"):
        trace = TraceContext(name=f"{task.workload}:{task.flow}")
    profile = None
    if payload.get("coverage"):
        from ..sim.profile import SimProfile

        profile = SimProfile()
    expected = payload.get("expected")
    start = time.perf_counter()
    try:
        with _Deadline(float(payload.get("timeout_s", 0.0))):
            compiled = synthesize(
                task.source, task.synthesis_options(), trace=trace,
                frontend=frontend,
            )
            run = compiled.run(
                args=task.args,
                max_cycles=int(payload.get("max_cycles", DEFAULT_MAX_CYCLES)),
                sim_profile=profile,
            )
            cost = compiled.cost()
            try:
                rtl = compiled.verilog()
            except NotImplementedError:
                rtl = ""
    except FlowError as rejection:
        result.verdict = REJECTED
        result.rule = rejection.rule
        result.diagnostics = [rejection.reason]
    except CellTimeout:
        result.verdict = TIMEOUT
        result.diagnostics = [
            f"cell exceeded its {payload.get('timeout_s')}s deadline"
        ]
    except Exception:
        result.verdict = ERROR
        result.diagnostics = traceback.format_exc().strip().splitlines()[-3:]
    else:
        observable = canonical_observable(run.observable())
        result.value = run.value
        result.cycles = run.cycles
        result.clock_ns = cost.clock_ns
        result.latency_ns = (
            run.cycles * cost.clock_ns if cost.clock_ns > 0 else run.time_ns
        )
        result.area_ge = cost.area_ge
        result.rtl_hash = (
            hashlib.sha256(rtl.encode()).hexdigest()[:16] if rtl else ""
        )
        result.observable = observable
        if expected is not None and observable != expected:
            result.verdict = MISMATCH
            result.diagnostics = [
                f"observables diverge from golden model: value "
                f"{run.value} vs {expected[0] if expected else '?'}"
            ]
        else:
            result.verdict = OK
    if trace is not None:
        # Rejections keep their partial trace too: the spans up to the
        # rejecting phase show where the flow said no.
        result.trace = trace.to_dict()
    if profile is not None:
        # {} (not None) when the sim never ran, so coverage-aware cache
        # readers can tell "captured, empty" from "never captured".
        result.sim_stats = (
            profile.coverage_stats()
            if result.verdict in (OK, MISMATCH) else {}
        )
    result.wall_s = time.perf_counter() - start
    return result.to_dict()


def execute_batch(
    payload: Dict[str, object], frontend=None
) -> List[Dict[str, object]]:
    """Compile once, simulate every lane, judge each like a scalar cell.

    The batched counterpart of :func:`execute_cell`: cells that share
    ``(source, flow, function, options)`` but differ in inputs coalesce
    into one payload carrying a ``lanes`` list (each lane a dict of
    ``workload`` / ``args`` / ``expected`` / ``cache_key``).  One
    synthesis, one ``run_batch``, one cost/Verilog pass; per-lane sim
    errors become per-lane ``error`` verdicts with the scalar backend's
    exact message instead of poisoning the batch.  Returns one result
    dict per lane, in lane order.  ``frontend`` as in :func:`execute_cell`."""
    import hashlib

    from ..api import synthesize
    from ..flows import FlowError
    from ..trace import TraceContext

    lanes: List[Dict[str, object]] = list(payload["lanes"])  # type: ignore
    task = CellTask(
        workload=str(lanes[0]["workload"]) if lanes else "batch",
        source=payload["source"],
        flow=payload["flow"],
        function=payload.get("function", "main"),
        args=tuple(lanes[0].get("args", ())) if lanes else (),
        options=tuple((k, v) for k, v in payload.get("options", ())),
        sim_backend=str(payload.get("sim_backend", "interp")),
    )
    results = [
        CellResult(
            workload=str(lane["workload"]),
            flow=task.flow,
            function=task.function,
            args=tuple(lane.get("args", ())),
            sim_backend=task.sim_backend,
            cache_key=str(lane.get("cache_key", "")),
        )
        for lane in lanes
    ]
    trace = None
    if payload.get("trace"):
        trace = TraceContext(name=f"{task.workload}:{task.flow}")
    profile = None
    if payload.get("coverage"):
        from ..sim.profile import SimProfile

        profile = SimProfile()
    timeout_s = float(payload.get("timeout_s", 0.0))
    start = time.perf_counter()
    try:
        # The whole batch gets the sum of its lanes' deadlines: one slow
        # lane cannot eat the others' budget share.
        with _Deadline(timeout_s * max(len(lanes), 1)):
            compiled = synthesize(
                task.source, task.synthesis_options(), trace=trace,
                frontend=frontend,
            )
            outcomes = compiled.run_batch(
                [tuple(lane.get("args", ())) for lane in lanes],
                max_cycles=int(payload.get("max_cycles", DEFAULT_MAX_CYCLES)),
                sim_profile=profile,
            )
            cost = compiled.cost()
            try:
                rtl = compiled.verilog()
            except NotImplementedError:
                rtl = ""
    except FlowError as rejection:
        for result in results:
            result.verdict = REJECTED
            result.rule = rejection.rule
            result.diagnostics = [rejection.reason]
    except CellTimeout:
        for result in results:
            result.verdict = TIMEOUT
            result.diagnostics = [
                f"cell exceeded its {payload.get('timeout_s')}s deadline"
            ]
    except Exception:
        diagnostics = traceback.format_exc().strip().splitlines()[-3:]
        for result in results:
            result.verdict = ERROR
            result.diagnostics = list(diagnostics)
    else:
        rtl_hash = (
            hashlib.sha256(rtl.encode()).hexdigest()[:16] if rtl else ""
        )
        for result, outcome, lane in zip(results, outcomes, lanes):
            if not outcome.ok:
                result.verdict = ERROR
                result.diagnostics = [
                    f"{outcome.error_kind}: {outcome.error}"
                ]
                continue
            run = outcome.result
            observable = canonical_observable(run.observable())
            result.value = run.value
            result.cycles = run.cycles
            result.clock_ns = cost.clock_ns
            result.latency_ns = (
                run.cycles * cost.clock_ns if cost.clock_ns > 0
                else run.time_ns
            )
            result.area_ge = cost.area_ge
            result.rtl_hash = rtl_hash
            result.observable = observable
            expected = lane.get("expected")
            if expected is not None and observable != expected:
                result.verdict = MISMATCH
                result.diagnostics = [
                    f"observables diverge from golden model: value "
                    f"{run.value} vs {expected[0] if expected else '?'}"
                ]
            else:
                result.verdict = OK
    wall_s = (time.perf_counter() - start) / max(len(lanes), 1)
    # The batch shares one profile (lanes run lockstep through one
    # design), so every simulated lane reports the batch-level stats.
    stats = None
    if profile is not None:
        stats = profile.coverage_stats() if profile.state_visits else {}
    for result in results:
        if trace is not None:
            result.trace = trace.to_dict()
        if profile is not None:
            result.sim_stats = (
                stats if result.verdict in (OK, MISMATCH) else {}
            )
        result.wall_s = wall_s
    return [result.to_dict() for result in results]


def _crash_result(payload: Dict[str, object]):
    if "lanes" in payload:
        crashed = []
        for lane in payload["lanes"]:  # type: ignore[union-attr]
            merged = {**payload, **lane}
            merged.pop("lanes", None)
            crashed.append(_crash_result(merged))
        return crashed
    result = CellResult(
        workload=str(payload["workload"]),
        flow=str(payload["flow"]),
        function=str(payload.get("function", "main")),
        args=tuple(payload.get("args", ())),
        sim_backend=str(payload.get("sim_backend", "interp")),
        verdict=ERROR,
        diagnostics=["worker process died while executing this cell"],
        cache_key=str(payload.get("cache_key", "")),
    )
    return result.to_dict()


#: ``MatrixEngine``'s golden-model memo key: ``(source, function, args)``.
GoldenKey = Tuple[str, str, Tuple[int, ...]]


class MatrixEngine:
    """Runs cell sets serially, in parallel, and through the cache.

    Parameters
    ----------
    jobs:
        Worker process count; ``1`` (default) runs in-process.
    cache:
        An :class:`ArtifactCache`, or None to disable caching.
    timeout_s / max_cycles:
        Per-cell wall-clock deadline and simulation bound.
    worker:
        The cell executor (module-level callable, dict→dict).  Tests
        substitute crashing/slow workers to exercise isolation paths.
    batch_worker:
        The batch executor (dict→list-of-dicts) used for coalesced
        ``sim_backend="batched"`` cells; see :func:`execute_batch`.
    trace:
        Record phase spans for every cell.  Traces ride inside the
        ``CellResult`` (and its cache entry), so a warm re-run still
        reports where each cell's time went; a cache hit written
        *without* a trace is treated as a miss so the stats exist.
    coverage:
        Capture each cell's :meth:`SimProfile.coverage_stats` alongside
        the result (the fuzz campaign's coverage signal).  Same cache
        contract as ``trace``: hits written without stats recompute.

    The engine owns one :class:`~repro.lang.Frontend` (``frontend``) for
    its lifetime: the golden model parses each source once, and serial
    cells compile from that same parse.  Pool workers parse for
    themselves; payloads never carry an AST.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ArtifactCache] = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        worker: Callable[[Dict[str, object]], Dict[str, object]] = execute_cell,
        trace: bool = False,
        batch_worker: Callable[
            [Dict[str, object]], List[Dict[str, object]]
        ] = execute_batch,
        coverage: bool = False,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.timeout_s = timeout_s
        self.max_cycles = max_cycles
        self.worker = worker
        self.batch_worker = batch_worker
        self.trace = bool(trace)
        self.coverage = bool(coverage)
        self._salt = environment_salt()
        # (source, function, args) -> golden observable, least recently
        # used first; bounded like the frontend it parses through.
        self._golden: "OrderedDict[GoldenKey, Optional[list]]" = OrderedDict()
        # Parsing dominates the golden model's cost (~12x the actual
        # interpretation on suite kernels): lanes over one program, and
        # the serial cells that compile it, share one parse.
        self.frontend = Frontend()

    # -- golden model -----------------------------------------------------

    def golden_observable(self, task: CellTask) -> Optional[list]:
        """The reference interpreter's canonical observable for the task's
        program and inputs, memoized per (source, function, args) for the
        most recent :data:`~repro.lang.frontend.CAPACITY` keys; None when
        the interpreter itself cannot run the program (the flows will then
        report their own rejections).  The parse comes from the engine's
        frontend, so many-lane batches pay it once."""
        key = (task.source, task.function, task.args)
        if key in self._golden:
            self._golden.move_to_end(key)
            return self._golden[key]
        from ..interp import run_program

        observable: Optional[list] = None
        try:
            program, info = self.frontend.parse(task.source)
        except Exception:
            pass
        else:
            try:
                golden = run_program(program, info, task.function, task.args)
            except Exception:
                pass
            else:
                observable = canonical_observable(golden.observable())
        self._golden[key] = observable
        if len(self._golden) > FRONTEND_CAPACITY:
            self._golden.popitem(last=False)
        return observable

    # -- execution --------------------------------------------------------

    def _payload(self, task: CellTask, key: str) -> Dict[str, object]:
        return {
            "workload": task.workload,
            "source": task.source,
            "flow": task.flow,
            "function": task.function,
            "args": list(task.args),
            "options": [list(pair) for pair in task.options],
            "sim_backend": task.sim_backend,
            "check": task.check,
            "expected": self.golden_observable(task),
            "timeout_s": self.timeout_s,
            "max_cycles": self.max_cycles,
            "cache_key": key,
            "trace": self.trace,
            "coverage": self.coverage,
        }

    def _lane_entry(self, task: CellTask, key: str) -> Dict[str, object]:
        return {
            "workload": task.workload,
            "args": list(task.args),
            "expected": self.golden_observable(task),
            "cache_key": key,
        }

    def _batch_payload(self, task: CellTask) -> Dict[str, object]:
        return {
            "source": task.source,
            "flow": task.flow,
            "function": task.function,
            "options": [list(pair) for pair in task.options],
            "sim_backend": task.sim_backend,
            "timeout_s": self.timeout_s,
            "max_cycles": self.max_cycles,
            "trace": self.trace,
            "coverage": self.coverage,
            "lanes": [],
        }

    def run_cells(self, tasks: Sequence[CellTask]) -> List[CellResult]:
        """Execute every task, preserving order; cache hits replay from
        disk and fresh deterministic results are written back.

        Cells with ``sim_backend="batched"`` that share
        ``(source, flow, function, options)`` but differ in inputs
        coalesce into one batch payload (even a single such cell runs as
        a one-lane batch, so batch-of-1 and batch-of-K take the same
        code path); cache hits still replay per lane."""
        results: List[Optional[CellResult]] = [None] * len(tasks)
        pending: List[Tuple[object, Dict[str, object]]] = []
        batch_groups: Dict[tuple, int] = {}
        for index, task in enumerate(tasks):
            key = cell_key(task, salt=self._salt) if self.cache is not None else ""
            if self.cache is not None:
                start = time.perf_counter()
                hit = self.cache.load(key)
                # An entry written by an untraced run has no phase stats to
                # report; when tracing, recompute it so the stored artifact
                # gains a trace and later warm runs can replay it.
                if hit is not None and self.trace and hit.trace is None:
                    hit = None
                # Same contract for coverage capture: a hit written without
                # sim stats recomputes so the coverage signal exists.
                if hit is not None and self.coverage and hit.sim_stats is None:
                    hit = None
                if hit is not None:
                    hit.wall_s = time.perf_counter() - start
                    # The key excludes the display label (identical sources
                    # share artifacts), so relabel from the current task.
                    hit.workload = task.workload
                    results[index] = hit
                    continue
            if task.sim_backend == "batched":
                group = (task.source, task.flow, task.function, task.options)
                position = batch_groups.get(group)
                if position is None:
                    position = len(pending)
                    batch_groups[group] = position
                    pending.append(([], self._batch_payload(task)))
                pending[position][0].append(index)  # type: ignore[union-attr]
                pending[position][1]["lanes"].append(  # type: ignore[index]
                    self._lane_entry(task, key)
                )
                continue
            pending.append((index, self._payload(task, key)))
        # Freeze batch index lists into hashable tuples (the pool's
        # bookkeeping puts the index side of each entry in a set).
        pending = [
            (tuple(i) if isinstance(i, list) else i, p) for i, p in pending
        ]

        if pending:
            if self.jobs == 1:
                fresh = [(i, self._run_serial(p)) for i, p in pending]
            else:
                fresh = self._run_pool(pending)
            for index, data in fresh:
                for i, d in (
                    zip(index, data) if isinstance(index, tuple)
                    else [(index, data)]
                ):
                    result = CellResult.from_dict(d)
                    if self.cache is not None and result.cache_key:
                        self.cache.store(result.cache_key, result)
                    results[i] = result
        return [r for r in results if r is not None]

    def _worker_for(self, payload: Dict[str, object]) -> Callable:
        return self.batch_worker if "lanes" in payload else self.worker

    def _run_serial(self, payload: Dict[str, object]):
        worker = self._worker_for(payload)
        if worker is execute_cell or worker is execute_batch:
            return worker(payload, frontend=self.frontend)
        return worker(payload)  # substitute workers stay dict -> dict

    def _run_pool(
        self, pending: List[Tuple[int, Dict[str, object]]]
    ) -> List[Tuple[int, Dict[str, object]]]:
        """Fan pending payloads over a process pool.  A worker death breaks
        the whole pool, so surviving cells are re-run one at a time in
        single-shot pools — the crasher is identified and reported as an
        ``error`` cell instead of aborting the sweep."""
        context = _pool_context()
        out: List[Tuple[int, Dict[str, object]]] = []
        survivors: List[Tuple[int, Dict[str, object]]] = []
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending)), mp_context=context
            ) as pool:
                futures = {
                    pool.submit(self._worker_for(payload), payload):
                        (index, payload)
                    for index, payload in pending
                }
                for future in as_completed(futures):
                    index, payload = futures[future]
                    try:
                        out.append((index, future.result()))
                    except BrokenProcessPool:
                        survivors.append((index, payload))
                    except Exception as failure:
                        # A worker that raised instead of returning a result
                        # dict (only possible with substitute workers).
                        crashed = _crash_result(payload)
                        if isinstance(crashed, list):
                            for entry in crashed:
                                entry["diagnostics"] = [repr(failure)]
                        else:
                            crashed["diagnostics"] = [repr(failure)]
                        out.append((index, crashed))
        except BrokenProcessPool:
            done = {index for index, _ in out}
            survivors = [
                (i, p) for i, p in pending
                if i not in done and (i, p) not in survivors
            ]
        for index, payload in survivors:
            out.append((index, self._run_isolated(payload, context)))
        return out

    def _run_isolated(self, payload, context):
        try:
            with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
                return pool.submit(self._worker_for(payload), payload).result()
        except BrokenProcessPool:
            return _crash_result(payload)

    # -- suite-level convenience ------------------------------------------

    def run_suite(
        self,
        workloads=None,
        flows: Optional[Sequence[str]] = None,
        function: str = "main",
        sim_backend: str = "interp",
    ) -> List[CellResult]:
        """The full workload × flow matrix (defaults: the whole suite
        against every compilable flow)."""
        return self.run_cells(
            suite_tasks(workloads=workloads, flows=flows, function=function,
                        sim_backend=sim_backend)
        )


def _pool_context():
    """Prefer fork so workers inherit the warm interpreter state (the
    package import alone would otherwise dominate sub-second sweeps)."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0]
    )


def _level_options(opt_level: Optional[int]) -> Tuple:
    """The CellTask ``options`` tuple selecting ``opt_level`` (empty when
    it is None or the default, keeping identities stable)."""
    from ..api import DEFAULT_OPT_LEVEL

    if opt_level is None or int(opt_level) == DEFAULT_OPT_LEVEL:
        return ()
    return CellTask.make_options({"opt_level": int(opt_level)})


def suite_tasks(
    workloads=None,
    flows: Optional[Sequence[str]] = None,
    function: str = "main",
    sim_backend: str = "interp",
    opt_level: Optional[int] = None,
) -> List[CellTask]:
    """CellTasks for a workload × flow cross product."""
    from ..flows import COMPILABLE
    from ..workloads import WORKLOADS

    selected = list(workloads) if workloads is not None else list(WORKLOADS)
    flow_keys = list(flows) if flows is not None else list(COMPILABLE)
    options = _level_options(opt_level)
    return [
        CellTask(
            workload=w.name,
            source=w.source,
            flow=key,
            function=function,
            args=tuple(w.args),
            options=options,
            sim_backend=sim_backend,
        )
        for w in selected
        for key in flow_keys
    ]


def file_tasks(
    source: str,
    name: str,
    flows: Optional[Sequence[str]] = None,
    function: str = "main",
    args: Sequence[int] = (),
    sim_backend: str = "interp",
    opt_level: Optional[int] = None,
) -> List[CellTask]:
    """CellTasks running one program through many flows (the CLI matrix)."""
    from ..flows import COMPILABLE

    flow_keys = list(flows) if flows is not None else list(COMPILABLE)
    options = _level_options(opt_level)
    return [
        CellTask(workload=name, source=source, flow=key,
                 function=function, args=tuple(args), options=options,
                 sim_backend=sim_backend)
        for key in flow_keys
    ]
