"""The lint driver: parse once, run each flow's declared rule set.

``lint(source, flow=...)`` is the pre-flight counterpart of
``Flow.compile``: it answers "what would this flow reject, and where?"
without running any backend.  Frontend failures (lex/parse/semantic) apply
to every flow and are reported once under the ``*`` flow key; a rule that
crashes is downgraded to a ``SYN999-internal`` warning so one bad rule
never hides the others.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ...lang.errors import FrontendError, UNKNOWN_LOCATION
from .diagnostics import (
    ALL_FLOWS,
    Diagnostic,
    LintReport,
    RULE_DYNAMIC_MEMORY,
    RULE_INTERNAL,
    RULE_PARSE,
    Severity,
)
from .rules import LintContext

_ALLOCATORS = ("malloc", "calloc", "realloc", "free")


def _frontend_diagnostic(error: FrontendError) -> Diagnostic:
    """Classify a frontend failure.  Calls to the C heap allocators surface
    as 'unknown function' semantic errors; those get their own rule id
    because the paper treats dynamic memory as its own rejection class."""
    message = error.message
    rule = RULE_PARSE
    hint = ""
    if "unknown function" in message and any(
        f"'{name}'" in message for name in _ALLOCATORS
    ):
        rule = RULE_DYNAMIC_MEMORY
        hint = "allocate storage as fixed-size global or local arrays"
    return Diagnostic(
        flow=ALL_FLOWS,
        rule=rule,
        severity=Severity.ERROR,
        message=message,
        location=error.location or UNKNOWN_LOCATION,
        hint=hint,
    )


def lint(
    source: str,
    flow: Optional[str] = None,
    flows: Optional[Sequence[str]] = None,
    function: str = "main",
    filename: str = "<input>",
    extra_rules: Optional[Callable[[str], Sequence]] = None,
    frontend=None,
) -> LintReport:
    """Lint ``source`` for one flow, an explicit list, or (default) every
    compilable flow in the registry.

    ``extra_rules`` maps a flow key to additional :class:`Rule` instances to
    run after the registry's set — how the time-sensitive checking tier
    (``repro.analysis.timing.check``) layers TIM rules onto the same engine,
    context caches, and crash isolation.  ``frontend`` (a
    :class:`~repro.lang.Frontend`) supplies a shared parse of ``source``;
    rules only read the tree, so sharing it is safe."""
    # Imported lazily: flows.base imports this package for the shared
    # rule-id table, so a module-level import would be a cycle.
    from ...flows import registry

    if flow is not None:
        selected: List[str] = [flow]
    elif flows is not None:
        selected = list(flows)
    else:
        selected = list(registry.COMPILABLE)
    for key in selected:
        registry.get_flow(key)  # unknown flow raises, same as compile paths

    report = LintReport(filename=filename, flows=selected)

    from ...lang import parse

    if frontend is not None:
        parse = frontend.parse
    try:
        program, info = parse(source, filename=filename)
    except FrontendError as error:
        report.add(_frontend_diagnostic(error))
        return report

    if not any(fn.name == function for fn in program.functions):
        report.add(
            Diagnostic(
                flow=ALL_FLOWS,
                rule=RULE_PARSE,
                severity=Severity.ERROR,
                message=f"entry function {function!r} is not defined",
            )
        )
        return report

    ctx = LintContext(program, info, function=function, filename=filename)
    for key in selected:
        rules = list(registry.lint_rules(key))
        if extra_rules is not None:
            rules.extend(extra_rules(key))
        for rule in rules:
            if rule.requires_inline and ctx.has_recursion:
                # Inlining would not terminate; the recursion feature rule
                # carries the rejection for every flow that has one.
                continue
            try:
                report.extend(rule.check(ctx, key))
            except Exception as error:  # noqa: BLE001 - isolate rule crashes
                report.add(
                    Diagnostic(
                        flow=key,
                        rule=RULE_INTERNAL,
                        severity=Severity.WARNING,
                        message=(
                            f"rule {type(rule).__name__} crashed:"
                            f" {type(error).__name__}: {error}"
                        ),
                    )
                )
    return report


def lint_file(
    path: str,
    flow: Optional[str] = None,
    flows: Optional[Sequence[str]] = None,
    function: str = "main",
) -> LintReport:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint(source, flow=flow, flows=flows, function=function,
                filename=path)
