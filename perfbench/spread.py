"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs ``perfbench/run.py`` several times per workload, each with another
seed, and prints for every metric the median and the quartile spread
((Q3 - Q1) / median, ``statistics.quantiles(n=4)``) next to the bound
``BENCHMARK.json`` fixes.  Run from the root of a checkout::

    python3 perfbench/spread.py --runs 10 --workloads suite_cold,serve_mixed

``--json OUT`` keeps every run's metrics so two sets can be compared
with ``--against OUT``: each metric's second median must not be worse
than the first by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from clock import quartile_spread  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run's result line, with its wall time under ``"run_s"``."""
    t0 = perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["run_s"] = perf_counter() - t0
    return result


def _worse(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if not first:
        return 0.0
    change = (second - first) / first
    return -change if metric["better"] == "higher" else change


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's metrics here")
    parser.add_argument("--against", help="an earlier --json to compare with")
    args = parser.parse_args(argv)

    metrics = {m["name"]: m for m in bench["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}
    record: dict = {}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        run_s = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = _run(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false")
                status = 1
            runs.append(result["metrics"])
            run_s.append(result["run_s"])
        record[workload] = runs
        print(f"== {workload}: {len(runs)} runs, each "
              f"{min(run_s):.1f}-{max(run_s):.1f} s")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            spread = quartile_spread(values)
            line = (f"  {name:<24} median {statistics.median(values):>12.4f}"
                    f"  spread {spread:.4f}")
            if name in metrics and args.trace == 0:
                bound = metrics[name]["bound"]
                line += f"  bound {bound:.2f}"
                if spread > bound and name != "setup_s":
                    line += "  SPREAD OVER BOUND"
                    status = 1
                elif spread > bound / 3 and name != "setup_s":
                    line += "  (over a third of the bound)"
                before = earlier.get(workload)
                if before:
                    first = statistics.median(r[name]["value"] for r in before)
                    worse = _worse(metrics[name], first,
                                   statistics.median(values))
                    line += f"  vs earlier {worse:+.4f}"
                    if worse > bound:
                        line += "  WORSE THAN BOUND"
                        status = 1
            print(line)
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
