"""``suite_cold``: the 18 suite kernels x 10 flows.

Every cell compiles against an empty cache with
``MatrixEngine(jobs=nproc)``, so every compile phase, the FSMD sim and
the parent-side golden model do real work and the cache only writes.
"""

from __future__ import annotations

import gc
import random
from time import perf_counter
from typing import List

from clock import median
from common import (
    Context,
    check_cells,
    end_to_end,
    identities,
    import_setup_s,
    qor,
    reference_observables,
)
from layers import (
    Instrument,
    finish_layers,
    layer_values,
    overhead,
    traced_rounds,
)

#: At least this many measured passes per run, whatever ``--seconds`` says.
MIN_PASSES = 3

#: The in-process traced ``suite_cold`` rounds must be this close to fully
#: attributed to layers.
MAX_UNATTRIBUTED_PCT = 5.0


def _tasks(seed: int):
    from repro.runner import suite_tasks

    tasks = suite_tasks()
    random.Random(seed).shuffle(tasks)
    return tasks


def _sweep(ctx: Context, tasks, jobs: int, cache_dir=None, trace=False):
    """One timed pass; returns (results, wall seconds, engine)."""
    from repro.runner import ArtifactCache, MatrixEngine

    if cache_dir is None:
        cache_dir = ctx.fresh_dir("cache")
    engine = MatrixEngine(jobs=jobs, cache=ArtifactCache(cache_dir),
                          trace=trace)
    gc.collect()
    t0 = perf_counter()
    results = engine.run_cells(tasks)
    return results, perf_counter() - t0, engine


def suite_cold(ctx: Context):
    setup_s = import_setup_s(ctx)
    tasks = _tasks(ctx.seed)
    reference = reference_observables(tasks)
    ctx.note(f"cells per pass: {len(tasks)}; jobs={ctx.jobs}")

    if ctx.trace:
        return _suite_cold_traced(ctx, tasks, reference)

    _sweep(ctx, tasks, ctx.jobs)          # warm-up, not measured
    walls: List[float] = []
    # Per cell, in task order: its wall time in each pass.
    cell_walls: List[List[float]] = [[] for _ in tasks]
    digests: List[str] = []
    failed = attempted = 0
    quality = None
    started = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - started < ctx.seconds:
        results, wall, _ = _sweep(ctx, tasks, ctx.jobs)
        walls.append(wall)
        for walls_of, result in zip(cell_walls, results):
            walls_of.append(result.wall_s)
        digests.append(identities(tasks, results))
        failed += check_cells(ctx, tasks, results, reference)
        attempted += len(results)
        quality = quality or qor(results)
    ctx.check("deterministic_cells", len(set(digests)) == 1,
              f"{len(set(digests))} distinct cell digests over "
              f"{len(digests)} passes")
    ctx.note(f"passes: {len(walls)}; pass wall median {median(walls):.3f} s")
    # A cell's latency is its median over the passes, so a host stall
    # during one pass does not decide the p99.
    latencies = [median(w) for w in cell_walls]
    metrics = end_to_end(ctx, setup_s, len(tasks) * len(walls) / sum(walls),
                         latencies, quality)
    return metrics, attempted, failed


def _suite_cold_traced(ctx: Context, tasks, reference):
    inst = Instrument()
    tally = {"attempted": 0, "failed": 0}

    def make_pass(traced: bool):
        results, wall, _ = _sweep(ctx, tasks, 1, trace=traced)
        tally["attempted"] += len(results)
        tally["failed"] += check_cells(ctx, tasks, results, reference)
        return wall, {}

    untraced, traced = traced_rounds(ctx, inst, make_pass)
    rounds = len(traced)
    values = layer_values(inst, rounds)
    pool_results, pool_wall, _ = _sweep(ctx, tasks, ctx.jobs)
    values["runner.pool_efficiency"] = (
        sum(r.wall_s for r in pool_results) / (ctx.jobs * pool_wall)
    )
    overhead(values, untraced, traced, inst)
    ctx.check("self_times_cover_wall",
              abs(values["bench.unattributed_pct"]) < MAX_UNATTRIBUTED_PCT,
              f"{values['bench.unattributed_pct']:.1f}% of the traced "
              "rounds is unattributed")
    failed = tally["failed"] + check_cells(ctx, tasks, pool_results, reference)
    attempted = tally["attempted"] + len(pool_results)
    ctx.note(f"traced rounds: {rounds} (in-process, jobs=1); "
             f"pool pass jobs={ctx.jobs}")
    return finish_layers(values), attempted, failed
