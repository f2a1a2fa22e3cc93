"""Nothing downstream of the frontend modifies the tree it was given.

The shared :class:`repro.lang.Frontend` hands one ``(Program,
SemanticInfo)`` per source to the golden model, every in-process cell,
the linter and the mutator, so any consumer that writes into it would
corrupt the others.  Each test takes a pickle fingerprint of the shared
pair before and after every consumer and requires it byte-identical:

* every compilable flow × ``opt_level`` 0/1/2, compiled, costed, emitted
  and run on the ``interp``, ``compiled`` and ``batched`` sim backends;
* the golden ``run_program``;
* every lint rule, timing tier included, through ``LintContext``;
* ``mutants()``.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.lint import lint
from repro.analysis.timing import CheckOptions
from repro.analysis.timing.checker import _TimingScratch
from repro.analysis.timing.rules import timing_rules_for
from repro.api import SynthesisOptions, synthesize
from repro.flows import COMPILABLE, FlowError
from repro.fuzz import feature_mask, generate_program, mutants
from repro.interp import run_program
from repro.lang import Frontend
from repro.workloads import WORKLOADS

OPT_LEVELS = (0, 1, 2)
BACKENDS = ("interp", "compiled", "batched")


class Shared:
    """One source's shared frontend artifacts and their fingerprint."""

    def __init__(self, source):
        self.source = source
        self.frontend = Frontend()
        self.program, self.info = self.frontend.parse(source)
        self.before = self.fingerprint()

    def fingerprint(self) -> bytes:
        return pickle.dumps((self.program, self.info),
                            protocol=pickle.HIGHEST_PROTOCOL)

    def unchanged_after(self, consumer: str) -> None:
        assert self.fingerprint() == self.before, (
            f"{consumer} modified the shared tree")


def compile_and_run(shared, flows, args, opt_levels=OPT_LEVELS,
                    backends=BACKENDS):
    for flow in flows:
        for level in opt_levels:
            label = f"{flow} opt_level={level}"
            try:
                result = synthesize(
                    shared.source,
                    SynthesisOptions(flow=flow, opt_level=level),
                    frontend=shared.frontend,
                )
            except FlowError:
                shared.unchanged_after(f"{label} rejection")
                continue
            shared.unchanged_after(f"{label} compile")
            result.cost()
            try:
                result.verilog()
            except NotImplementedError:
                pass
            shared.unchanged_after(f"{label} cost/verilog")
            for backend in backends:
                try:
                    result.design.run(args=args, sim_backend=backend,
                                      max_cycles=200_000)
                except Exception:  # noqa: BLE001 - a sim error is an outcome
                    pass
                shared.unchanged_after(f"{label} {backend} run")


def golden_lint_and_mutate(shared, function, args, seed=0, mask=None):
    try:
        run_program(shared.program, shared.info, function, args)
    except Exception:  # noqa: BLE001 - an interpreter error is an outcome
        pass
    shared.unchanged_after("golden run_program")
    lint(shared.source, function=function, frontend=shared.frontend)
    lint(shared.source, function=function, frontend=shared.frontend,
         extra_rules=lambda key: timing_rules_for(
             key, CheckOptions(), _TimingScratch()))
    shared.unchanged_after("lint")
    mutants(shared.source, seed=seed, count=3, mask=mask,
            frontend=shared.frontend)
    shared.unchanged_after("mutants")


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_suite_kernel_consumers_leave_the_shared_tree_alone(workload):
    shared = Shared(workload.source)
    golden_lint_and_mutate(shared, "main", tuple(workload.args))
    compile_and_run(shared, COMPILABLE, tuple(workload.args))


@given(seed=st.integers(min_value=0, max_value=5000),
       flow=st.sampled_from(sorted(COMPILABLE)))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzz_program_consumers_leave_the_shared_tree_alone(seed, flow):
    mask = feature_mask(flow)
    program = generate_program(seed, mask)
    shared = Shared(program.source)
    golden_lint_and_mutate(shared, "main", tuple(program.args), seed=seed,
                           mask=mask)
    compile_and_run(shared, [flow], tuple(program.args))
