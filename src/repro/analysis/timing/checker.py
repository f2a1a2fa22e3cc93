"""The time-sensitive checker's entry points.

``check()`` is ``lint()`` plus the TIM tier: one parse, the registry's SYN
rules, then the flow's TIM rules layered through the engine's
``extra_rules`` hook — same context caches, same deterministic report.
``enforce()`` is the synthesize-facade gate: with
``SynthesisOptions(check=True)`` the pipeline refuses to compile a program
whose obligations the flow's schedule cannot meet, surfacing the rejection
as :class:`CheckRejected` (a :class:`FlowError`, so the matrix engine
classifies it as a rejection with the rule id attached).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ...flows.base import FlowError
from ..lint.diagnostics import Diagnostic, LintReport
from ..lint.engine import lint
from .obligations import CheckOptions
from .rules import _TimingScratch, timing_rules_for


class CheckRejected(FlowError):
    """The pre-compile check found obligations this flow cannot meet.

    Carries the triggering diagnostics (``diagnostics``) and the full
    report (``report``); ``rule``/``location`` come from the first error
    in deterministic report order, so the exception text matches what
    ``repro check`` prints first."""

    def __init__(self, flow: str, errors: List[Diagnostic], report: LintReport):
        first = errors[0]
        super().__init__(
            flow,
            f"check rejected: {first.message}"
            + (f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""),
            rule=first.rule,
            location=first.location,
        )
        self.diagnostics = list(errors)
        self.report = report

    def __reduce__(self):
        # FlowError's field-replay reduce does not fit this signature;
        # rebuild from the diagnostics (the report shrinks to just them).
        report = LintReport(
            filename=self.report.filename,
            flows=list(self.report.flows),
            diagnostics=list(self.diagnostics),
        )
        return (self.__class__, (self.flow, self.diagnostics, report))


def check(
    source: str,
    flow: Optional[str] = None,
    flows: Optional[Sequence[str]] = None,
    function: str = "main",
    filename: str = "<input>",
    options: Optional[CheckOptions] = None,
    frontend=None,
    **kwargs,
) -> LintReport:
    """Lint plus the TIM tier for one flow, a list, or every compilable
    flow.  ``options`` (or loose :class:`CheckOptions` keywords such as
    ``pipeline_ii=2``) parameterize the timing rules.  One scratch is
    shared across flows: the expensive replicated artifacts (optimized
    CDFGs, Handel-C FSMDs) are flow-independent.  ``frontend`` (a
    :class:`~repro.lang.Frontend`) supplies a shared parse, as for
    :func:`~repro.analysis.lint.lint`."""
    if options is None:
        options = CheckOptions(**kwargs)
    elif kwargs:
        raise TypeError("pass either options= or loose keywords, not both")
    scratch = _TimingScratch()
    return lint(
        source,
        flow=flow,
        flows=flows,
        function=function,
        filename=filename,
        extra_rules=lambda key: timing_rules_for(key, options, scratch),
        frontend=frontend,
    )


def check_file(
    path: str,
    flow: Optional[str] = None,
    flows: Optional[Sequence[str]] = None,
    function: str = "main",
    options: Optional[CheckOptions] = None,
) -> LintReport:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return check(source, flow=flow, flows=flows, function=function,
                 filename=path, options=options)


def enforce(
    source: str,
    flow: str,
    function: str = "main",
    options: Optional[CheckOptions] = None,
    frontend=None,
) -> LintReport:
    """Run the checker for one flow and raise :class:`CheckRejected` when
    it finds errors; returns the (possibly warning-bearing) report
    otherwise.  This is what ``SynthesisOptions(check=True)`` calls before
    handing the program to ``Flow.compile``, with the frontend the
    compile then parses through."""
    report = check(source, flow=flow, function=function, options=options,
                   frontend=frontend)
    errors = [d for d in report.sorted() if d in set(report.errors(flow))]
    if errors:
        raise CheckRejected(flow, errors, report)
    return report
