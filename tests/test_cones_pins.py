"""Equivalence pins for the Cones compile path.

Cones compiles the largest IR in the repository (every loop fully
unrolled into one block), so its passes, flattener and netlist pricing
are where constant-factor work pays most, and where a change of result
would be easiest to miss.  These pins were generated before that work
and must hold unchanged after it.  For the 18 suite kernels at
``opt_level`` 0, 1 and 2, plus 40 fuzz-grammar programs at fixed seeds
(each at the three levels), they record:

* the verdict (against the reference interpreter) and the rejection rule;
* the netlist's op count and logic depth;
* ``area_ge``, ``critical_path_ns`` and a digest of the emitted RTL;
* the optimizer's ``ops_in``/``ops_out`` and every other integer trace
  counter of the compile.

Regenerate ``tests/golden/cones_pins.json`` with
``PYTHONPATH=src python tests/test_cones_pins.py`` only together with a
deliberate, documented change of Cones results.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import synthesize
from repro.flows import FlowError
from repro.fuzz import feature_mask
from repro.fuzz.grammar import generate_program
from repro.interp import run_program
from repro.lang import Frontend
from repro.runner import canonical_observable
from repro.trace import TraceContext, numeric_counters_of
from repro.workloads import WORKLOADS

GOLDEN = Path(__file__).parent / "golden" / "cones_pins.json"

OPT_LEVELS = (0, 1, 2)
#: ``generate_program(seed, feature_mask("cones"), boundary=...)``.
FUZZ_SEEDS = tuple(range(32))
FUZZ_BOUNDARY_SEEDS = tuple(range(8))


def _programs():
    """(name, source, args) of every pinned program."""
    programs = [(w.name, w.source, tuple(w.args)) for w in WORKLOADS]
    mask = feature_mask("cones")
    for boundary, seeds in ((False, FUZZ_SEEDS), (True, FUZZ_BOUNDARY_SEEDS)):
        for seed in seeds:
            generated = generate_program(seed, mask, boundary=boundary)
            programs.append(
                (generated.name, generated.source, tuple(generated.args))
            )
    return programs


def _golden(frontend, source, args):
    try:
        program, info = frontend.parse(source)
        return canonical_observable(
            run_program(program, info, "main", args).observable()
        )
    except Exception:
        return None


def observe(frontend, source, args, opt_level):
    """Everything a Cones compile of ``source`` produces, as plain data."""
    trace = TraceContext(name="cones")
    try:
        result = synthesize(source, flow="cones", opt_level=opt_level,
                            trace=trace)
        run = result.run(args=args)
        cost = result.cost()
        rtl = result.verilog()
    except FlowError as rejection:
        return {"verdict": "rejected", "rule": rejection.rule,
                "reason": rejection.reason}
    except Exception as error:
        return {"verdict": "error", "error": type(error).__name__}
    expected = _golden(frontend, source, args)
    observable = canonical_observable(run.observable())
    netlist = result.design.netlist
    return {
        "verdict": "ok" if expected in (None, observable) else "mismatch",
        "value": run.value,
        "ops": netlist.op_count,
        "depth": netlist.depth(),
        "area_ge": cost.area_ge,
        "critical_path_ns": cost.critical_path_ns,
        "time_ns": run.time_ns,
        "rtl_hash": hashlib.sha256(rtl.encode()).hexdigest()[:16],
        "counters": numeric_counters_of(trace.to_dict()),
    }


def _compute():
    frontend = Frontend()
    return {
        f"{name}/O{level}": observe(frontend, source, args, level)
        for name, source, args in _programs()
        for level in OPT_LEVELS
    }


PINNED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
_PROGRAMS = _programs()


def test_every_program_and_level_is_pinned():
    expected = {f"{name}/O{level}" for name, _, _ in _PROGRAMS
                for level in OPT_LEVELS}
    assert set(PINNED) == expected
    assert len(_PROGRAMS) == len(WORKLOADS) + 40


def test_pins_cover_every_verdict_the_flow_gives():
    verdicts = {entry["verdict"] for entry in PINNED.values()}
    assert {"ok", "rejected"} <= verdicts
    assert all(entry["counters"]["passes.ops_in"] > 0
               for entry in PINNED.values() if entry["verdict"] == "ok")


def _text(entry) -> str:
    # JSON text, not ==: an area of 0 and one of 0.0 are equal but
    # serialize (and so hash into reports and cache entries) differently.
    return json.dumps(entry, sort_keys=True)


@pytest.mark.parametrize("program", _PROGRAMS, ids=lambda p: p[0])
def test_cones_results_are_pinned(program):
    name, source, args = program
    frontend = Frontend()
    for level in OPT_LEVELS:
        assert (_text(observe(frontend, source, args, level))
                == _text(PINNED[f"{name}/O{level}"])), f"{name}/O{level}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
