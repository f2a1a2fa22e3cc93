"""``serve_mixed``: ``repro serve`` under an open-loop request schedule.

The server runs in its own process on port 0 with a compile pool of
``nproc - 1`` workers and starts with an empty cache.  Requests are a
seeded zipf draw over the 18 suite kernels x {handelc, c2verilog, cash},
sent at one fixed offered rate over at most ``nproc`` keep-alive
connections, each timed from the moment it was due.  Every tenth
request is cold: it asks for one of the 54 keys, each once per round in
a seeded order, and just before sending it the benchmark evicts that
key from the server's cache.  The cold request compiles in the pool,
concurrent duplicates of a popular key coalesce onto it, the rest hit
the cache.  This is the only workload that queues, so the serve tier's
dedup and backpressure carry its tail.  Every round sends the same
stream, so a request's latency is its median over the rounds, as a
cell's is on the other workloads.

Clearing the whole cache before every round was tried first: each round
then opens with a burst of ~40 compiles on one worker, the p99 is that
burst's queue, and it ranged from 47 to 160 ms over ten runs on a 2-core
host.  Evicting random keys at a steady pace left the share of cold
requests to chance, and with it the depth of the p99 in the compile
tail: 25 to 42 ms over ten runs.
"""

from __future__ import annotations

import asyncio
import gc
import random
import select
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from clock import median, percentile
from common import (
    SETUP_REPEATS,
    Context,
    end_to_end,
    peak_rss_mb,
)
from layers import Instrument, finish_layers, layer_values

#: Offered load, requests per second: well below the warm-only capacity
#: of one connection (about 580/s on a 2-core host), so the backlog is
#: the cold compiles', not the client's.
RATE = 100.0

#: Share of requests whose key the benchmark evicts from the server's
#: cache just before sending them: the stream's cold compiles.  They are
#: evenly spaced, so two compiles seldom queue on the one worker (a
#: quarter busy), and each round compiles every key once, so every run
#: compiles the same keys.
MISS_RATIO = 0.1

#: Length of one round: one cold request for each of the 54 keys.  All
#: rounds of a run send the same stream, and a request's latency is its
#: median over them.  With a fresh stream per round and the p99 taken
#: over every request, a host slowdown during a few compiles moved the
#: p99: it ranged from 19 to 34 ms over ten runs, with cold keys in a
#: fixed mix, and from 37 to 51 ms over five with cold keys drawn from
#: the zipf stream.
ROUND_S = 54 / (RATE * MISS_RATIO)

#: Zipf exponent of the key draw.
ZIPF_S = 1.2

FLOWS = ("handelc", "c2verilog", "cash")

BOOT_TIMEOUT_S = 60.0


class Server:
    """A ``python -m repro serve`` child process."""

    def __init__(self, ctx: Context, cache_dir: Path,
                 trace_out: Optional[Path] = None):
        cmd = [
            sys.executable, "-m", "repro", "serve", "--port", "0",
            "--jobs", str(max(1, ctx.jobs - 1)),
            "--cache-dir", str(cache_dir), "--drain-grace", "5",
        ]
        if trace_out is not None:
            cmd += ["--trace", str(trace_out)]
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ctx.root, env=ctx.env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        BOOT_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            address = line.split("http://", 1)[1].split()[0]
            host, port = address.rsplit(":", 1)
            self.host, self.port = host, int(port)
            # The server installs its SIGTERM handler after printing the
            # listening line and answers no request before that, so one
            # answered request means it will drain on SIGTERM.
            _stats(self)
        except BaseException:
            self.stop()
            raise
        self.boot_s = perf_counter() - t0

    def stop(self) -> str:
        """SIGTERM, wait for the drain, and return the server's output."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return out or ""


def _bodies() -> List[Dict[str, object]]:
    """The 54 distinct requests in rank order (suite order x flows): the
    rank of a key fixes its popularity, so which kernels are hot does not
    change from seed to seed."""
    from repro.workloads import WORKLOADS

    return [
        {"source": w.source, "flow": flow, "args": list(w.args)}
        for w in WORKLOADS for flow in FLOWS
    ]


def _schedule(seed: int) -> List[Tuple[Dict[str, object], bool]]:
    """Every round's request stream, seeded by the run seed: (request,
    evict its key first) pairs.  The requests are a zipf draw, except
    that every ``1 / MISS_RATIO``-th slot (from a seeded offset) is a
    cold request, for each of the 54 keys once in a seeded order."""
    from repro.serve.loadgen import zipfian_schedule

    rng = random.Random(seed)
    bodies = zipfian_schedule(_bodies(), round(RATE * ROUND_S), s=ZIPF_S,
                              seed=seed * 1009)
    every = round(1 / MISS_RATIO)
    offset = rng.randrange(every)
    cold = rng.sample(_bodies(), len(_bodies()))
    return [
        (cold[i // every], True) if i % every == offset else (body, False)
        for i, body in enumerate(bodies)
    ]


class Round:
    """What one round observed, client side."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        # Latency by the request's place in the stream.
        self.by_index: Dict[int, float] = {}
        self.late: List[float] = []
        self.status: Dict[int, int] = {}
        self.answers: List[Tuple[Dict[str, object], Dict[str, object]]] = []
        self.wall_s = 0.0


async def _open_loop(host: str, port: int, schedule, connections: int,
                     rate: float, evict=None) -> Round:
    """Send ``schedule``'s requests at ``rate`` over a pool of
    ``connections`` keep-alive clients; a request waits for a free
    connection, and that wait counts in its latency.  ``evict(request)``
    runs at the due time of each request marked for eviction."""
    from repro.serve.loadgen import HttpClient

    out = Round()
    loop = asyncio.get_running_loop()
    free: "asyncio.Queue[HttpClient]" = asyncio.Queue()
    clients = [HttpClient(host, port) for _ in range(connections)]
    for client in clients:
        free.put_nowait(client)

    async def send(index: int, body, due: float) -> None:
        client = await free.get()
        try:
            status, data = await client.request(
                "POST", "/synthesize", body, {"X-Client-Id": "perfbench"}
            )
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            return  # counted as failed: attempted, never answered
        finally:
            free.put_nowait(client)
        out.latencies.append(loop.time() - due)
        out.by_index[index] = out.latencies[-1]
        out.status[status] = out.status.get(status, 0) + 1
        if status == 200:
            out.answers.append((body, data))

    start = loop.time() + 0.01
    pending = []
    for index, (body, miss) in enumerate(schedule):
        due = start + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        out.late.append(max(0.0, loop.time() - due))
        if miss and evict is not None:
            evict(body)
        pending.append(asyncio.ensure_future(send(index, body, due)))
    await asyncio.gather(*pending)
    out.wall_s = loop.time() - start
    for client in clients:
        await client.close()
    return out


def _stats(server: Server) -> Dict[str, object]:
    from repro.serve.loadgen import fetch_stats

    return asyncio.run(fetch_stats(server.host, server.port))


def _round(ctx: Context, server: Server, schedule, evict=None):
    """Run one round; returns (Round, server counters over the round)."""
    gc.collect()
    before = _stats(server)
    result = asyncio.run(_open_loop(server.host, server.port, schedule,
                                    ctx.jobs, RATE, evict))
    after = _stats(server)
    delta = {k: after["dedup"][k] - before["dedup"][k]
             for k in ("hits", "coalesced", "compiles")}
    delta["shed"] = after["rejected"]["shed"] - before["rejected"]["shed"]
    return result, delta


def _evict(cache_dir: Path, key: str) -> None:
    """Delete one cached artifact (the artifact cache keeps one
    ``<root>/<key[:2]>/<key>.json`` file per key)."""
    (cache_dir / key[:2] / f"{key}.json").unlink(missing_ok=True)


def _direct(body) -> Tuple[str, object]:
    """The reference answer for one request: a direct synthesize."""
    from repro.api import SynthesisOptions, synthesize
    from repro.flows import FlowError

    try:
        compiled = synthesize(str(body["source"]),
                              SynthesisOptions(flow=str(body["flow"])))
        value = compiled.run(args=tuple(body["args"])).value
    except FlowError:
        return "rejected", None
    return "ok", value


def _check(ctx: Context, rounds: List[Round]) -> Dict[str, Dict]:
    """Every 200 answer equals a direct synthesize of its request, and
    every answer for one key is the same answer.  Returns the first
    answer per key."""
    first: Dict[str, Dict] = {}
    bodies: Dict[str, Dict] = {}
    for rnd in rounds:
        for body, data in rnd.answers:
            key = str(data.get("key"))
            seen = first.setdefault(key, data)
            bodies[key] = body
            same = all(seen.get(f) == data.get(f) for f in
                       ("verdict", "value", "cycles", "area_ge", "rtl_hash"))
            ctx.check("deterministic_answers", same,
                      f"key {key[:12]} answered two ways")
    wrong = []
    for key, data in first.items():
        verdict, value = _direct(bodies[key])
        if (data.get("verdict"), data.get("value")) != (verdict, value):
            wrong.append(f"{bodies[key]['flow']}: served "
                         f"{data.get('verdict')}/{data.get('value')} vs "
                         f"direct {verdict}/{value}")
    ctx.check("answers_equal_direct_synthesize", not wrong,
              "; ".join(wrong[:3]))
    return first


def _quality(first: Dict[str, Dict]) -> Dict[str, float]:
    from clock import geomean

    ok = [d for d in first.values() if d.get("verdict") == "ok"]
    return {
        "latency_ns_geomean": geomean(float(d["latency_ns"]) for d in ok),
        "area_ge_geomean": geomean(float(d["area_ge"]) for d in ok),
    }


def _every_key(ctx: Context, server: Server) -> Round:
    """Each of the 54 distinct requests once, unmeasured: the answers the
    checks and the quality figures cover whatever the zipf draw hit."""
    return asyncio.run(_open_loop(server.host, server.port,
                                  [(body, False) for body in _bodies()], 1,
                                  RATE))


def _attempts(rounds: List[Round]) -> Tuple[int, int]:
    """(requests attempted, requests failed): non-2xx answers, 503 sheds
    and transport errors all count as failed."""
    attempted = sum(len(r.late) for r in rounds)
    ok = sum(n for r in rounds for status, n in r.status.items()
             if 200 <= status < 300)
    return attempted, attempted - ok


def _run_rounds(ctx: Context, server: Server, cache_dir: Path,
                seconds: float, minimum: int):
    """Warm-up (a round, then every key once, so first-use imports are
    done and every key is cached), then measured rounds until ``seconds``
    are spent.  Returns (rounds, server counters per round, the every-key
    answers)."""
    _round(ctx, server, _schedule(ctx.seed))
    every = _every_key(ctx, server)
    keys = {(body["flow"], body["source"]): str(data["key"])
            for body, data in every.answers}

    def evict(body) -> None:
        _evict(cache_dir, keys[body["flow"], body["source"]])

    rounds: List[Round] = []
    deltas: List[Dict[str, int]] = []
    started = perf_counter()
    while len(rounds) < minimum or perf_counter() - started < seconds:
        rnd, delta = _round(ctx, server, _schedule(ctx.seed), evict)
        rounds.append(rnd)
        deltas.append(delta)
    return rounds, deltas, every


def _stop(ctx: Context, server: Server) -> None:
    output = server.stop()
    last = output.strip().splitlines()[-1:] or ["no output"]
    ctx.check("server_drained", "drained cleanly" in output, last[0])


def serve_mixed(ctx: Context):
    ctx.note(f"offered rate {RATE:g} req/s open loop, "
             f"{round(RATE * ROUND_S)} requests per {ROUND_S:g} s round, "
             f"zipf s={ZIPF_S}, connections={ctx.jobs}, "
             f"pool={max(1, ctx.jobs - 1)}")
    if ctx.trace:
        return _traced(ctx)

    boots = []
    for _ in range(SETUP_REPEATS - 1):
        probe = Server(ctx, ctx.fresh_dir("serve-probe"))
        boots.append(probe.boot_s)
        _stop(ctx, probe)
    cache_dir = ctx.fresh_dir("serve-cache")
    server = Server(ctx, cache_dir)
    boots.append(server.boot_s)
    try:
        rounds, deltas, every = _run_rounds(ctx, server, cache_dir,
                                            ctx.seconds, 3)
    finally:
        _stop(ctx, server)
    first = _check(ctx, rounds + [every])
    attempted, failed = _attempts(rounds)
    latencies = [median([r.by_index[i] for r in rounds if i in r.by_index])
                 for i in sorted(set().union(*(r.by_index for r in rounds)))]
    served = sum(len(r.answers) for r in rounds)
    ctx.note(f"rounds: {len(rounds)}; keys checked {len(first)}; shed "
             f"{sum(d['shed'] for d in deltas)}; generator late p99 "
             f"{percentile([x for r in rounds for x in r.late], 99) * 1e3:.3f} ms")
    metrics = end_to_end(ctx, median(boots),
                         served / sum(r.wall_s for r in rounds), latencies,
                         _quality(first), peak_rss_mb())
    return metrics, attempted, failed


def _traced(ctx: Context):
    """Untraced and ``--trace`` servers over the same rounds, plus the
    server's per-request parent work (validate, key) replayed here."""
    import repro.runner.cache as runner_cache
    from repro.runner import ArtifactCache, CellTask, environment_salt
    from repro.serve.protocol import ServeLimits, parse_synthesize

    half = ctx.seconds / 2
    cache_dir = ctx.fresh_dir("serve-cache")
    server = Server(ctx, cache_dir)
    try:
        untraced, _, _ = _run_rounds(ctx, server, cache_dir, half, 1)
    finally:
        _stop(ctx, server)
    trace_out = ctx.work / "serve-trace.json"
    cache_dir = ctx.fresh_dir("serve-cache")
    server = Server(ctx, cache_dir, trace_out)
    try:
        traced, deltas, every = _run_rounds(ctx, server, cache_dir, half, 1)
    finally:
        _stop(ctx, server)
    ctx.check("trace_written", trace_out.is_file(), str(trace_out))
    first = _check(ctx, untraced + traced + [every])
    attempted, failed = _attempts(untraced + traced)

    # The per-request work the server's event loop does before a request
    # reaches the pool (validate, key, cache read), replayed here on one
    # round's stream against the traced server's cache.
    limits = ServeLimits()
    salt = environment_salt()
    t0 = perf_counter()
    requests = [parse_synthesize(body, limits)
                for body, _miss in _schedule(ctx.seed)]
    validate_s = perf_counter() - t0
    tasks = [CellTask.from_options("serve", r.source, r.options, args=r.args)
             for r in requests]
    inst = Instrument()
    cache = ArtifactCache(cache_dir)
    with inst.patches():
        for task in tasks:
            cache.load(runner_cache.cell_key(task, salt=salt))
    values = layer_values(inst, 1)

    n = len(traced)
    answered = sum(len(r.answers) for r in traced) / n
    values.update(_quality(first))
    values["serve.validate_ms"] = validate_s * 1e3
    for name in ("hits", "coalesced", "compiles", "shed"):
        values[f"serve.{name}"] = sum(d[name] for d in deltas) / n
    values["serve.gen_late_ms"] = percentile(
        [x for r in traced for x in r.late], 99) * 1e3
    values["runner.hit_ratio"] = values["serve.hits"] / max(1.0, answered)
    # The server passes no golden observable to its workers, so no ``ok``
    # answer it gives was compared with the reference interpreter.
    values["interp.unavailable"] = sum(
        1 for r in traced for _body, d in r.answers if d.get("verdict") == "ok"
    ) / n
    p50 = {name: median([percentile(r.latencies, 50) for r in rs]) * 1e3
           for name, rs in (("untraced", untraced), ("traced", traced))}
    values["bench.untraced_round_ms"] = p50["untraced"]
    values["bench.traced_round_ms"] = p50["traced"]
    values["bench.trace_overhead_pct"] = 100.0 * (
        p50["traced"] / p50["untraced"] - 1.0)
    values["bench.unattributed_ms"] = median([r.wall_s for r in traced]) * 1e3
    values["bench.unattributed_pct"] = 100.0
    ctx.note(f"rounds: {len(untraced)} untraced, {n} traced; validate, "
             "key and cache-read work replayed in the benchmark process on "
             "one round's stream; round times are request p50s; no layer "
             "of the server process is attributed")
    return finish_layers(values), attempted, failed
