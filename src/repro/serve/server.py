"""``repro.serve`` — synthesis-as-a-service over asyncio HTTP/JSON.

The serving layer turns the frozen ``SynthesisOptions -> identity()``
contract into multi-tenant throughput.  Every ``POST /synthesize`` request
is validated into one option set, keyed by the same content address the
matrix runner caches under, and answered by the cheapest of three tiers:

1. **warm hit** — the artifact cache already holds the key; respond
   without touching a worker (microseconds);
2. **coalesce** — an identical request is compiling right now; await its
   shared future instead of dispatching a duplicate (one compile serves N
   clients);
3. **miss** — dispatch to a bounded process pool running the runner's own
   cell worker (SIGALRM deadline, FlowError classification, crash
   isolation), then store the artifact for every later request.

Capacity is explicit everywhere: a full queue answers ``503`` with
``Retry-After`` instead of buffering, per-client token buckets answer
``429``, and ``SIGTERM`` drains — stop accepting, finish in-flight work,
shut the pool down, exit 0.

The HTTP surface is deliberately tiny (HTTP/1.1 keep-alive, JSON bodies,
no TLS, stdlib only) — put a real proxy in front for the internet.
"""

from __future__ import annotations

import asyncio
import json
import signal
from collections import OrderedDict
from dataclasses import dataclass
from time import monotonic, perf_counter
from typing import Callable, Dict, Optional, Tuple

from ..runner.cache import (
    ArtifactCache,
    DEFAULT_CACHE_DIR,
    cell_key,
    environment_salt,
    normalized_source,
)
from ..runner.cells import CellResult, CellTask
from ..runner.engine import execute_cell
from ..trace import TraceContext
from .dedup import InflightTable
from .pool import CompilePool
from .protocol import (
    BAD_JSON,
    DRAINING,
    INTERNAL,
    METHOD_NOT_ALLOWED,
    NOT_FOUND,
    OVERLOADED,
    RATE_LIMITED,
    ServeLimits,
    ValidationError,
    parse_analysis,
    parse_synthesize,
    result_body,
)
from .ratelimit import RateLimiter
from .stats import ServeStats

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_ENDPOINTS = ("/synthesize", "/check", "/lint", "/stats", "/healthz")


@dataclass
class ServeConfig:
    """Everything that sizes and addresses one server instance."""

    host: str = "127.0.0.1"
    port: int = 8787              # 0 = pick a free port (tests, CI)
    jobs: int = 2                 # compile worker processes
    queue_limit: int = 16         # payloads allowed to wait beyond jobs
    rate: float = 0.0             # per-client requests/second; 0 = unlimited
    burst: float = 20.0           # per-client bucket capacity
    timeout_s: float = 20.0       # per-compile SIGALRM deadline in workers
    max_cycles: int = 2_000_000   # simulation bound per request
    max_source_bytes: int = 64 * 1024
    max_body_bytes: int = 1 << 20
    cache_dir: Optional[str] = None   # None = DEFAULT_CACHE_DIR
    no_cache: bool = False            # disable the warm tier entirely
    trace_out: Optional[str] = None   # write a Chrome trace on drain
    drain_grace_s: float = 10.0       # max wait for in-flight work on drain
    analysis_memo: int = 256          # lint/check LRU entries

    def limits(self) -> ServeLimits:
        return ServeLimits(max_source_bytes=self.max_source_bytes)


class _HttpError(Exception):
    """A transport-level refusal (malformed request, oversized body)."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


class SynthesisServer:
    """One serving instance: listener + dedup tiers + bounded pool."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        worker: Callable[[Dict[str, object]], Dict[str, object]] = execute_cell,
    ):
        self.config = config if config is not None else ServeConfig()
        self.stats = ServeStats()
        self.inflight = InflightTable()
        self.pool = CompilePool(
            jobs=self.config.jobs,
            queue_limit=self.config.queue_limit,
            worker=worker,
        )
        self.limiter = RateLimiter(self.config.rate, self.config.burst)
        self.cache: Optional[ArtifactCache] = None
        if not self.config.no_cache:
            root = self.config.cache_dir or DEFAULT_CACHE_DIR
            self.cache = ArtifactCache(root)
        self.trace: Optional[TraceContext] = (
            TraceContext("serve") if self.config.trace_out else None
        )
        self._salt = environment_salt()
        self._limits = self.config.limits()
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._active = 0
        self._connections: set = set()
        self._started_at = monotonic()
        self._memo: "OrderedDict[tuple, Dict[str, object]]" = OrderedDict()
        self.host = self.config.host
        self.port = self.config.port

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._client, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        self._started_at = monotonic()

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish in-flight requests
        (up to ``drain_grace_s``), stop the pool, flush the trace."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.drain_grace_s
        while self._active and loop.time() < deadline:
            await asyncio.sleep(0.02)
        # Idle keep-alive connections are parked in readline(); close them
        # so their handler coroutines finish instead of leaking into loop
        # shutdown.
        for writer in list(self._connections):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.02)
        self.inflight.abort_all(RuntimeError("server draining"))
        self.pool.shutdown(wait=True)
        if self.trace is not None and self.config.trace_out:
            self.trace.write_chrome(self.config.trace_out)

    @property
    def draining(self) -> bool:
        return self._draining

    def stats_body(self) -> Dict[str, object]:
        return self.stats.to_dict(
            queue_depth=self.pool.queue_depth,
            inflight_keys=len(self.inflight),
            uptime_s=monotonic() - self._started_at,
        )

    # -- HTTP transport ---------------------------------------------------

    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        peer = writer.get_extra_info("peername")
        peer_ip = peer[0] if isinstance(peer, tuple) else str(peer)
        self._connections.add(writer)
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _HttpError as refusal:
                    await self._respond(
                        writer, refusal.status,
                        {"error": {"code": refusal.code,
                                   "message": refusal.message}},
                        keep_alive=False,
                    )
                    break
                if parsed is None:
                    break
                method, path, headers, body = parsed
                status, payload, extra = await self._route(
                    method, path, headers, body, peer_ip
                )
                keep = (
                    headers.get("connection", "").lower() != "close"
                    and not self._draining
                )
                await self._respond(writer, status, payload,
                                    keep_alive=keep, extra=extra)
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        request_line = await reader.readline()
        if not request_line:
            return None
        try:
            method, target, _version = (
                request_line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            raise _HttpError(400, BAD_JSON, "malformed request line")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            if b":" not in line:
                raise _HttpError(400, BAD_JSON, "malformed header line")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, BAD_JSON, "bad Content-Length")
        if length < 0 or length > self.config.max_body_bytes:
            raise _HttpError(
                413, "body_too_large",
                f"request body over {self.config.max_body_bytes} bytes",
            )
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Dict[str, object], keep_alive: bool,
                       extra: Optional[Dict[str, str]] = None) -> None:
        self.stats.count_response(status)
        body = json.dumps(payload).encode()
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + body)
        await writer.drain()

    # -- routing ----------------------------------------------------------

    async def _route(
        self, method: str, path: str, headers: Dict[str, str],
        body: bytes, peer_ip: str,
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
        self.stats.started += 1
        self._active += 1
        t0 = perf_counter()
        endpoint = path.lstrip("/") or "root"
        try:
            status, payload, extra = await self._dispatch(
                method, path, headers, body, peer_ip
            )
        except ValidationError as refusal:
            self.stats.invalid += 1
            status, payload, extra = refusal.status, refusal.body(), None
        except Exception as failure:  # never kill the connection loop
            status, payload, extra = 500, {
                "error": {"code": INTERNAL, "message": repr(failure)}
            }, None
        finally:
            self._active -= 1
        elapsed = perf_counter() - t0
        self.stats.observe(endpoint, elapsed)
        if self.trace is not None:
            self.trace.leaf(endpoint, elapsed, cat="request", status=status)
        return status, payload, extra

    async def _dispatch(
        self, method: str, path: str, headers: Dict[str, str],
        body: bytes, peer_ip: str,
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
        if path == "/healthz":
            if method != "GET":
                return self._method_not_allowed()
            return 200, {
                "status": "draining" if self._draining else "ok",
                "queue_depth": self.pool.queue_depth,
            }, None
        if path == "/stats":
            if method != "GET":
                return self._method_not_allowed()
            return 200, self.stats_body(), None
        if path not in _ENDPOINTS:
            return 404, {
                "error": {"code": NOT_FOUND,
                          "message": f"no such endpoint: {path}",
                          "endpoints": list(_ENDPOINTS)}
            }, None
        if method != "POST":
            return self._method_not_allowed()
        if self._draining:
            return 503, {
                "error": {"code": DRAINING, "message": "server is draining"}
            }, {"Retry-After": "1"}

        client = headers.get("x-client-id") or peer_ip
        allowed, retry_after = self.limiter.allow(client)
        if not allowed:
            self.stats.rate_limited += 1
            wait = max(1, int(retry_after + 0.999))
            return 429, {
                "error": {"code": RATE_LIMITED,
                          "message": f"client {client!r} is over its "
                                     f"request budget",
                          "retry_after_s": wait}
            }, {"Retry-After": str(wait)}

        try:
            data = json.loads(body.decode("utf-8")) if body else None
        except (ValueError, UnicodeDecodeError):
            raise ValidationError(BAD_JSON, "request body is not valid JSON")

        if path == "/synthesize":
            return await self._synthesize(data)
        return await self._analyze(path.lstrip("/"), data)

    def _method_not_allowed(self):
        return 405, {
            "error": {"code": METHOD_NOT_ALLOWED,
                      "message": "use POST for RPC endpoints, GET for"
                                 " /stats and /healthz"}
        }, {"Allow": "GET, POST"}

    # -- /synthesize: the three dedup tiers -------------------------------

    async def _synthesize(
        self, data: object
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
        request = parse_synthesize(data, self._limits)
        task = CellTask.from_options(
            "serve", request.source, request.options, args=request.args
        )
        key = cell_key(task, salt=self._salt)

        # Tier 1: warm artifact.
        if self.cache is not None:
            hit = self.cache.load(key)
            if hit is not None:
                self.stats.hits += 1
                return 200, result_body(hit, "cache", key), None

        # Tier 2: identical compile already in flight.
        shared = self.inflight.follow(key)
        if shared is not None:
            self.stats.coalesced += 1
            # shield: a disconnecting follower must not cancel the owner's
            # future out from under every other follower.
            result_dict = await asyncio.shield(shared)
            result = CellResult.from_dict(result_dict)
            return 200, result_body(result, "coalesced", key), None

        # Tier 3: fresh dispatch — but only if the queue has room.
        if self.pool.saturated:
            self.stats.shed += 1
            wait = self._retry_after()
            return 503, {
                "error": {"code": OVERLOADED,
                          "message": f"compile queue is full "
                                     f"({self.pool.inflight} in flight)",
                          "retry_after_s": wait}
            }, {"Retry-After": str(wait)}

        future = self.inflight.register(key)
        self.stats.compiles += 1
        payload = self._payload(task, key)
        try:
            result_dict = await self.pool.run(payload)
        except BaseException as failure:
            self.inflight.fail(key, failure)
            raise
        result = CellResult.from_dict(result_dict)
        if self.cache is not None and self.cache.store(key, result):
            self.stats.stored += 1
        self.inflight.resolve(key, result_dict)
        return 200, result_body(result, "compile", key), None

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
            "expected": None,
            "timeout_s": self.config.timeout_s,
            "max_cycles": self.config.max_cycles,
            "cache_key": key,
            "trace": False,
        }

    def _retry_after(self) -> int:
        compile_hist = self.stats.latency.get("synthesize")
        mean = compile_hist.mean_s if compile_hist is not None else 0.5
        estimate = (self.pool.queue_depth + 1) * max(mean, 0.05) / self.pool.jobs
        return min(30, max(1, int(estimate + 0.999)))

    # -- /lint and /check -------------------------------------------------

    async def _analyze(
        self, kind: str, data: object
    ) -> Tuple[int, Dict[str, object], Optional[Dict[str, str]]]:
        request = parse_analysis(data, self._limits, kind)
        import hashlib

        digest = hashlib.sha256(
            normalized_source(request.source).encode()
        ).hexdigest()
        memo_key = (kind, digest, request.flows, request.function,
                    request.check_options)
        memoized = self._memo.get(memo_key)
        if memoized is not None:
            self._memo.move_to_end(memo_key)
            self.stats.analysis_memo_hits += 1
            return 200, dict(memoized, served_by="memo"), None

        inflight_key = f"{kind}:{digest}:{hash(memo_key) & 0xFFFFFFFF:x}"
        shared = self.inflight.follow(inflight_key)
        if shared is not None:
            self.stats.coalesced += 1
            report = await asyncio.shield(shared)
            return 200, dict(report, served_by="coalesced"), None

        future = self.inflight.register(inflight_key)
        self.stats.analysis_runs += 1
        loop = asyncio.get_running_loop()
        try:
            report = await loop.run_in_executor(
                None, _run_analysis, kind, request
            )
        except BaseException as failure:
            self.inflight.fail(inflight_key, failure)
            raise
        self.inflight.resolve(inflight_key, report)
        self._memo[memo_key] = report
        while len(self._memo) > self.config.analysis_memo:
            self._memo.popitem(last=False)
        return 200, dict(report, served_by="fresh"), None


def _run_analysis(kind: str, request) -> Dict[str, object]:
    """Thread-pool body for /lint and /check (pure CPU, no shared state)."""
    flows = list(request.flows) if request.flows is not None else None
    if kind == "check":
        from ..analysis.timing import CheckOptions, check

        options = CheckOptions(**dict(request.check_options))
        report = check(request.source, flows=flows,
                       function=request.function, options=options)
    else:
        from ..analysis.lint import lint

        report = lint(request.source, flows=flows, function=request.function)
    return report.to_dict()


# -- process entry ---------------------------------------------------------


async def amain(config: ServeConfig) -> int:
    """Run a server until SIGTERM/SIGINT, then drain; the CLI entry."""
    server = SynthesisServer(config)
    await server.start()
    # Install the drain handlers before announcing the port: a supervisor
    # may signal as soon as it reads the listening line.
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signame in ("SIGTERM", "SIGINT"):
        signum = getattr(signal, signame, None)
        if signum is None:
            continue
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # non-POSIX event loops
            pass
    cache_note = "off" if server.cache is None else str(server.cache.root)
    print(
        f"repro-serve: listening on http://{server.host}:{server.port}"
        f" (jobs={config.jobs}, queue={config.queue_limit},"
        f" cache={cache_note})",
        flush=True,
    )
    await stop.wait()
    print("repro-serve: draining...", flush=True)
    await server.drain()
    summary = server.stats_body()
    print(
        "repro-serve: drained cleanly "
        + json.dumps({"requests": summary["requests"],
                      "dedup": summary["dedup"],
                      "rejected": summary["rejected"]}),
        flush=True,
    )
    return 0


def run(config: Optional[ServeConfig] = None) -> int:
    return asyncio.run(amain(config if config is not None else ServeConfig()))


__all__ = ["ServeConfig", "SynthesisServer", "amain", "run"]
