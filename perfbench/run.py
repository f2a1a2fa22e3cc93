"""The repository benchmark: one command, three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload with wrappers around each layer's
public functions and prints the per-layer metrics instead.  Every run
checks the program's outputs (golden model, verdicts, determinism) and
ends with one JSON line::

    {"correct": true, "attempted": 1980, "failed": 0, "metrics": {...}}

See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("suite_cold", "fuzz_guided", "serve_mixed")


def _runner(name: str):
    if name == "suite_cold":
        from sweeps import suite_cold
        return suite_cold
    if name == "fuzz_guided":
        from fuzzing import fuzz_guided
        return fuzz_guided
    from serving import serve_mixed
    return serve_mixed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    from common import Context, host_fingerprint

    ctx = Context(root, args.seed, args.seconds, bool(args.trace))
    # Everything the program writes goes inside the checkout.
    os.environ.update({k: v for k, v in ctx.env().items()
                       if k in ("TMPDIR", "REPRO_CACHE_DIR")})
    import compileall

    compileall.compile_dir(str(root / "src"), quiet=1)
    host = host_fingerprint(root)
    try:
        metrics, attempted, failed = _runner(args.workload)(ctx)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        ctx.cleanup()

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for line in ctx.lines:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.4f} {m['unit']}")
    print(f"fail_ratio {failed}/{attempted} = "
          f"{failed / attempted if attempted else 0.0:.4f}")
    for name, ok in sorted(ctx.checks.items()):
        print(f"check {name}: {'pass' if ok else 'FAIL'}")
    correct = all(ctx.checks.values()) and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
