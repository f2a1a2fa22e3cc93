"""Boot the serving tier as a real subprocess and hammer it.

This is the CI smoke contract: the server must come up, absorb a
duplicate-heavy load with zero 5xx, answer most requests from the warm
tiers, and drain cleanly on SIGTERM (exit code 0)."""

import asyncio
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.serve.loadgen import run_load, zipfian_schedule

LISTEN = re.compile(r"listening on http://([\d.]+):(\d+)")

SOURCES = [
    "int main() { int a = 3; int b = 4; return a * b + %d; }" % n
    for n in range(4)
]


@pytest.fixture
def server(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
         "--drain-grace", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    try:
        deadline = time.monotonic() + 30
        line = ""
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line and proc.poll() is not None:
                pytest.fail(f"server died during boot (rc={proc.returncode})")
            match = LISTEN.search(line)
            if match:
                break
        else:
            pytest.fail("server never printed its listen line")
        yield proc, match.group(1), int(match.group(2))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.wait()


def test_smoke_duplicate_heavy_load_then_clean_drain(server):
    proc, host, port = server
    distinct = [
        {"source": source, "flow": "handelc", "args": []}
        for source in SOURCES
    ]
    schedule = zipfian_schedule(distinct, n=60, s=1.3, seed=11)
    report = asyncio.run(
        run_load(host, port, schedule, concurrency=6, client_id="smoke")
    )

    assert report.transport_errors == 0
    assert report.count_5xx() == 0, report.status_counts
    assert report.ok_ratio() == 1.0, report.status_counts

    stats = report.server_stats
    assert stats is not None
    dedup = stats["dedup"]
    warm = dedup["hits"] + dedup["coalesced"]
    total = warm + dedup["compiles"]
    assert total == 60
    # Zipfian s=1.3 over 4 keys is duplicate-heavy: most requests must be
    # answered without a worker dispatch.
    assert warm / total > 0.5, dedup
    assert dedup["compiles"] <= len(distinct)

    # SIGTERM -> graceful drain, exit 0, summary line on stdout.
    proc.send_signal(signal.SIGTERM)
    try:
        rc = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        pytest.fail("server did not drain within 30s of SIGTERM")
    tail = proc.stdout.read()
    assert rc == 0, tail
    assert "drained cleanly" in tail, tail


def test_sigterm_right_after_listen_line_still_drains(server):
    # A supervisor may signal the moment the server announces its port;
    # the drain handlers must already be installed by then.
    proc, _, _ = server
    proc.send_signal(signal.SIGTERM)
    try:
        rc = proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        pytest.fail("server did not drain within 30s of SIGTERM")
    tail = proc.stdout.read()
    assert rc == 0, tail
    assert "drained cleanly" in tail, tail
