"""Shared plumbing: run context, host fingerprint, set-up probes, checks."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence

from clock import geomean, median

#: Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 5

#: What every workload imports before it can run (the set-up probe).
IMPORT_PROBE = (
    "import repro.api, repro.flows.registry, repro.fuzz, repro.interp, "
    "repro.runner, repro.serve\n"
    "from repro.runner import MatrixEngine\n"
    "MatrixEngine(jobs={jobs})\n"
)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Context:
    """One benchmark run: where it runs, with which seed, for how long."""

    def __init__(self, root: Path, seed: int, seconds: float, trace: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.jobs = nproc()
        self.work = root / ".bench_work" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self._dirs = 0
        self.lines: List[str] = []
        self.checks: Dict[str, bool] = {}

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.work / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def env(self) -> Dict[str, str]:
        """Environment for child processes: the checkout's sources, and
        temporary files inside the checkout."""
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["TMPDIR"] = str(self.work)
        env["REPRO_CACHE_DIR"] = str(self.work / "default-cache")
        return env

    def note(self, line: str) -> None:
        self.lines.append(line)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            self.note(f"CHECK FAILED {name}: {detail}")

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass


def host_fingerprint(root: Path) -> Dict[str, object]:
    """Git sha (or a digest of ``src/`` when the checkout has no git
    metadata), Python, cores, numpy on or off, and load at start."""
    sha = "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    try:
        import numpy  # noqa: F401

        numpy_on = os.environ.get("REPRO_NO_NUMPY", "") == ""
    except ImportError:
        numpy_on = False
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": nproc(),
        "numpy": "on" if numpy_on else "off",
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (KiB on
    Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def import_setup_s(ctx: Context) -> float:
    """Median wall time of a fresh interpreter importing the program and
    starting an engine."""
    code = IMPORT_PROBE.format(jobs=ctx.jobs)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], env=ctx.env(), check=True,
            cwd=ctx.root, timeout=120,
        )
        times.append(perf_counter() - t0)
    return median(times)


# -- correctness ------------------------------------------------------------

def reference_observables(tasks) -> Dict[tuple, object]:
    """The reference interpreter's observable for every distinct
    (source, function, args), computed here without any flow."""
    from repro.interp import run_program
    from repro.lang import parse
    from repro.runner import canonical_observable

    out: Dict[tuple, object] = {}
    for task in tasks:
        key = (task.source, task.function, tuple(task.args))
        if key in out:
            continue
        try:
            program, info = parse(task.source)
            run = run_program(program, info, task.function, task.args)
        except Exception:
            out[key] = None
        else:
            out[key] = canonical_observable(run.observable())
    return out


def check_cells(ctx: Context, tasks, results, reference) -> int:
    """Verdict and golden checks for one sweep; returns failed cells."""
    failed = 0
    bad = []
    for task, result in zip(tasks, results):
        if result.verdict in ("error", "timeout"):
            failed += 1
        if result.verdict in ("mismatch", "error", "timeout"):
            bad.append(f"{task.workload}/{task.flow}={result.verdict}")
        elif result.verdict == "ok":
            expected = reference[(task.source, task.function, tuple(task.args))]
            if expected is not None and result.observable != expected:
                bad.append(f"{task.workload}/{task.flow} observable")
    ctx.check("verdicts_and_golden", not bad, ", ".join(bad[:5]))
    return failed


def identities(tasks, results) -> str:
    """Digest of every cell's deterministic content, in task order."""
    digest = hashlib.sha256()
    for task, result in zip(tasks, results):
        digest.update(json.dumps([task.workload, task.flow,
                                  result.identity()], sort_keys=True,
                                 default=str).encode())
    return digest.hexdigest()


def qor(results: Iterable) -> Dict[str, float]:
    """Geometric means of modelled latency and area over ``ok`` cells."""
    ok = [r for r in results if r.verdict == "ok"]
    return {
        "latency_ns_geomean": geomean(r.latency_ns for r in ok),
        "area_ge_geomean": geomean(r.area_ge for r in ok),
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def end_to_end(ctx: Context, setup_s: float, cells_per_s: float,
               latencies_s: Sequence[float], quality: Dict[str, float],
               rss_mb: Optional[float] = None) -> Dict[str, Dict[str, object]]:
    """The end-to-end metrics of an untraced run.  The quality-of-results
    geomeans are reported beside them (and with the per-layer metrics):
    they repeat exactly for a given seed but, on generated programs,
    depend on the seed, so they carry no regression bound."""
    from clock import percentile

    ms = [x * 1e3 for x in latencies_s]
    ctx.note(f"requests timed: {len(ms)}")
    for name, value in quality.items():
        ctx.note(f"quality {name} = {value:.4f}")
    return {
        "setup_s": metric(setup_s, "s"),
        "cells_per_s": metric(cells_per_s, "1/s"),
        "req_p50_ms": metric(percentile(ms, 50), "ms"),
        "req_p99_ms": metric(percentile(ms, 99), "ms"),
        "peak_rss_mb": metric(rss_mb if rss_mb is not None else peak_rss_mb(),
                              "MB"),
    }
