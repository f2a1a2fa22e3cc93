"""``fuzz_guided``: coverage-guided campaigns over every flow.

Many distinct, small, generated programs plus their mutants, so every
cell misses (the campaigns run without a cache).  The frontend
dominates: this is the ``suite_cold`` compile path with a different
input mix.  The corpus under ``tests/corpus`` is only read: nothing is
promoted.

One campaign has a fixed budget of :data:`SEEDS_PER_FLOW` programs per
flow, and its cost depends strongly on which programs its seeds
generate: single campaigns at different seed windows ran from 34 to 51
cells/s on one 2-core host.  So every run measures the same
:data:`WINDOWS` campaigns (``seed_base = campaign_seed = i *
SEEDS_PER_FLOW``), whole rounds of them until its time is spent, and the
run seed orders the campaigns within each round.  ``cells_per_s`` pools
every campaign; a cell's latency is the median of its wall times over
the rounds, so a host stall during one round does not decide the p99.
Each window runs in every round, so the rounds also check that a
campaign repeats exactly, cell by cell.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter
from typing import Dict, List

from clock import median
from common import Context, end_to_end, import_setup_s, qor
from layers import (
    Instrument,
    collect_results,
    finish_layers,
    layer_values,
    overhead,
    traced_rounds,
)

#: Program budget per flow and campaign: one scheduling wave, about 200
#: cells.
SEEDS_PER_FLOW = 8

#: Campaigns in one round: consecutive seed windows from 0, so sixteen
#: consecutive program seeds per flow.
WINDOWS = 2

#: At least this many measured rounds per run: a per-cell median needs
#: three.
MIN_ROUNDS = 3

#: Engine workers.  In-process: with a pool, the parent's own campaign
#: work (generation, mutation, lint, the golden model) competes with the
#: workers for the cores and inflates every cell's wall time.
JOBS = 1


def _options(ctx: Context, jobs: int, window: int):
    from repro.fuzz import FuzzOptions

    base = window * SEEDS_PER_FLOW
    return FuzzOptions(
        coverage=True, reduce=False, cache_dir="",
        campaign_seed=base, seed_base=base,
        seeds=SEEDS_PER_FLOW, jobs=jobs,
        corpus_dir=str(ctx.root / "tests" / "corpus"),
    )


def _fresh_heap() -> None:
    """Collect, then freeze what survives, so that the full collections a
    campaign triggers scan only that campaign's own objects.  Without the
    freeze they also scan the benchmark's heap and every earlier
    campaign's survivors: their pauses grew from round to round and
    landed on different cells, and the few cells that took one decided
    the p99 (29 to 45 ms over ten runs)."""
    gc.collect()
    gc.freeze()


def _campaign(ctx: Context, jobs: int, window: int):
    """One campaign; returns (report, collected cells, wall seconds)."""
    from repro.fuzz import run_campaign

    _fresh_heap()
    with collect_results() as cells:
        t0 = perf_counter()
        report = run_campaign(_options(ctx, jobs, window))
        wall = perf_counter() - t0
    return report, cells, wall


def _check(ctx: Context, report, results) -> int:
    """Correctness of one campaign; returns failed cells."""
    failed = [r for r in results if r.verdict in ("error", "timeout")]
    ctx.check("no_error_or_timeout", not failed,
              ", ".join(f"{r.flow}={r.verdict}" for r in failed[:5]))
    ctx.check("no_new_signatures", not report.new_signatures,
              ", ".join(report.new_signatures[:5]))
    return len(failed)


def _fingerprint(report, results) -> str:
    import hashlib
    import json

    cells = hashlib.sha256()
    for result in results:
        cells.update(json.dumps(result.identity(), sort_keys=True,
                                default=str).encode())
    return json.dumps({
        "cells": report.cells_run,
        "cell_digest": cells.hexdigest(),
        "coverage": report.coverage.to_dict() if report.coverage else None,
        "divergences": sorted(d.signature().id for d in report.divergences),
        "growth": report.coverage_growth,
    }, sort_keys=True)


def fuzz_guided(ctx: Context):
    setup_s = import_setup_s(ctx)
    ctx.note(f"seeds per flow and campaign: {SEEDS_PER_FLOW}; "
             f"campaigns per round: {WINDOWS}; jobs={JOBS}")
    if ctx.trace:
        return _traced(ctx)

    walls: List[float] = []
    cells_run = 0
    # Per window, per cell in campaign order: its wall time in each round.
    cell_walls: Dict[int, List[List[float]]] = {}
    ok: List = []
    failed = attempted = 0
    first: Dict[int, str] = {}
    rounds = 0
    started = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - started < ctx.seconds:
        order = list(range(WINDOWS))
        random.Random(f"{ctx.seed}/{rounds}").shuffle(order)
        for window in order:
            report, cells, wall = _campaign(ctx, JOBS, window)
            walls.append(wall)
            cells_run += report.cells_run
            attempted += len(cells.results)
            failed += _check(ctx, report, cells.results)
            # Keep figures, not results: cells carry their traces, and a
            # heap that grows over the run makes later garbage
            # collections slower.
            fingerprint = _fingerprint(report, cells.results)
            if window in first:
                ctx.check("deterministic_campaign",
                          fingerprint == first[window],
                          f"window {window} ran twice with different "
                          "results")
                for walls_of, r in zip(cell_walls[window], cells.results):
                    walls_of.append(r.wall_s)
            else:
                first[window] = fingerprint
                cell_walls[window] = [[r.wall_s] for r in cells.results]
                ok.extend(_Quality(r) for r in cells.results
                          if r.verdict == "ok")
        rounds += 1
    ctx.note(f"rounds: {rounds} of {WINDOWS} campaigns; "
             f"cells {attempted}")
    latencies = [median(w) for per_cell in cell_walls.values()
                 for w in per_cell]
    metrics = end_to_end(ctx, setup_s, cells_run / sum(walls), latencies,
                         qor(ok))
    return metrics, attempted, failed


class _Quality:
    """The fields :func:`common.qor` reads, without the cell's trace."""

    __slots__ = ("verdict", "latency_ns", "area_ge")

    def __init__(self, result) -> None:
        self.verdict = result.verdict
        self.latency_ns = result.latency_ns
        self.area_ge = result.area_ge


def _traced(ctx: Context):
    from repro.fuzz import run_campaign

    inst = Instrument(fuzz=True)
    tally = {"attempted": 0, "failed": 0}
    last = {}

    def run(traced: bool):
        if not traced:
            report, cells, wall = _campaign(ctx, JOBS, 0)
            results = cells.results
        else:
            # The instrument's own run_cells wrapper harvests the cells.
            before = len(inst.results)
            _fresh_heap()
            t0 = perf_counter()
            report = run_campaign(_options(ctx, JOBS, 0))
            wall = perf_counter() - t0
            results = inst.results[before:]
        tally["attempted"] += len(results)
        tally["failed"] += _check(ctx, report, results)
        last.update({"fuzz.coverage_buckets": report.coverage.distinct(),
                     "fuzz.divergences": len(report.divergences)})
        return wall, dict(last)

    untraced, traced = traced_rounds(ctx, inst, run)
    values = layer_values(inst, len(traced))
    values.update(last)
    _report, pool_cells, _wall = _campaign(ctx, ctx.jobs, 0)
    values["runner.pool_efficiency"] = pool_cells.pool_efficiency()
    overhead(values, untraced, traced, inst)
    ctx.note(f"traced rounds: {len(traced)} (in-process, jobs={JOBS}); "
             f"pool campaign jobs={ctx.jobs}")
    return finish_layers(values), tally["attempted"], tally["failed"]
