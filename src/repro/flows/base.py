"""Flow framework: the common interface every surveyed language implements.

A *flow* packages one historical tool's semantics: which language features
it accepts (Table 1's restrictions), how it finds concurrency, and where it
puts clock-cycle boundaries.  All flows share the same frontend and IR, so
their outputs differ only by those semantics — which is what makes the
paper's comparisons measurable.

Usage::

    from repro.flows import compile_flow, run_flow, REGISTRY
    design = compile_flow(source, flow="handelc")
    result = design.run(args=(3, 4))
    print(result.value, result.cycles, result.time_ns)
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.lint.diagnostics import FEATURE_TO_RULE, RULE_TIM_WITHIN_INFEASIBLE
from ..lang import ast_nodes as ast
from ..lang.errors import SourceLocation, UNKNOWN_LOCATION
from ..lang.semantic import SemanticInfo
from ..rtl.tech import DEFAULT_TECH, Technology


class FlowError(Exception):
    """A program is outside what this flow can synthesize.

    ``rule`` carries the linter rule id predicting this rejection (empty
    when no rule covers it yet) and ``location`` points at the offending
    construct, so error text, linter output, and tests all agree."""

    def __init__(
        self,
        flow: str,
        message: str,
        rule: str = "",
        location: Optional[SourceLocation] = None,
    ):
        text = f"[{flow}] "
        if rule:
            text += f"{rule}: "
        text += message
        if location is not None and location != UNKNOWN_LOCATION:
            text += f" (at {location})"
        super().__init__(text)
        self.flow = flow
        self.rule = rule
        self.location = location
        self.reason = message

    def __reduce__(self):
        # Exception's default reduce replays __init__ with self.args (the
        # formatted text), which does not match this signature; rebuild
        # from the original fields so rejections cross process boundaries
        # intact (the parallel matrix runner pickles them).
        return (
            self.__class__,
            (self.flow, self.reason, self.rule, self.location),
        )


class UnsupportedFeature(FlowError):
    """The historical tool this flow models did not support the feature."""


# Safe to import here: the ``analysis`` import above already pulled in the
# scheduling package (analysis.dependence builds on it), so no cycle.
from ..scheduling.base import ConstraintInfeasible  # noqa: E402


class TimingInfeasible(FlowError, ConstraintInfeasible):
    """A ``within`` budget no schedule can meet.

    Dual-natured on purpose: a :class:`ConstraintInfeasible` (the
    scheduler's own exception, asserted by scheduling tests) *and* a
    :class:`FlowError` carrying ``rule=TIM102-within-infeasible`` — so the
    matrix engine classifies the cell as a rule-predicted rejection and the
    time-sensitive checker's verdict can be cross-validated against it."""

    def __init__(
        self,
        flow: str,
        message: str,
        rule: str = RULE_TIM_WITHIN_INFEASIBLE,
        location: Optional[SourceLocation] = None,
    ):
        FlowError.__init__(self, flow, message, rule=rule, location=location)


@dataclass(frozen=True)
class FlowMetadata:
    """One row of Table 1, plus the axes the paper's analysis uses."""

    key: str
    title: str
    year: int
    note: str                 # Table 1's one-line characterization
    concurrency: str          # 'explicit' | 'compiler' | 'structural'
    concurrency_detail: str
    timing: str               # how cycles are placed
    timing_detail: str
    artifact: str             # 'fsmd' | 'combinational' | 'dataflow' | 'api'
    reference: str = ""


@dataclass
class FlowResult:
    """What running a compiled design produced."""

    value: Optional[int]
    cycles: int
    time_ns: float
    globals: Dict[str, object] = field(default_factory=dict)
    channel_log: Dict[str, List[int]] = field(default_factory=dict)
    stats: Dict[str, object] = field(default_factory=dict)

    def observable(self) -> Tuple:
        return (
            self.value,
            tuple(sorted(
                (k, tuple(v) if isinstance(v, list) else v)
                for k, v in self.globals.items()
            )),
            tuple(sorted((k, tuple(v)) for k, v in self.channel_log.items())),
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot (stats are filtered to scalars so
        arbitrary flow bookkeeping cannot break serialization)."""
        return {
            "value": self.value,
            "cycles": self.cycles,
            "time_ns": self.time_ns,
            "globals": {
                k: list(v) if isinstance(v, (list, tuple)) else v
                for k, v in self.globals.items()
            },
            "channel_log": {k: list(v) for k, v in self.channel_log.items()},
            "stats": {
                k: v for k, v in self.stats.items()
                if isinstance(v, (int, float, str, bool))
            },
        }


@dataclass
class DesignCost:
    """Area/clock summary comparable across artifact kinds."""

    area_ge: float = 0.0
    clock_ns: float = 0.0       # 0 for unclocked artifacts
    critical_path_ns: float = 0.0
    states: int = 0
    registers: int = 0
    functional_units: int = 0
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def fmax_mhz(self) -> float:
        return 1000.0 / self.clock_ns if self.clock_ns > 0 else 0.0


@dataclass
class LaneOutcome:
    """One lane of a batched run: a :class:`FlowResult` or the error the
    scalar backend would have raised for the same arguments."""

    args: Tuple[int, ...]
    result: Optional[FlowResult] = None
    error: str = ""
    error_kind: str = ""        # exception class name

    @property
    def ok(self) -> bool:
        return not self.error and self.result is not None


class CompiledDesign(abc.ABC):
    """A synthesized artifact that can be simulated and priced."""

    def __init__(self, flow_key: str, name: str):
        self.flow_key = flow_key
        self.name = name

    @property
    @abc.abstractmethod
    def artifact_kind(self) -> str:
        """'fsmd-system' | 'combinational' | 'dataflow'."""

    @abc.abstractmethod
    def run(
        self,
        args: Sequence[int] = (),
        process_args: Optional[Dict[str, Sequence[int]]] = None,
        max_cycles: int = 2_000_000,
        sim_backend: str = "interp",
        sim_profile=None,
        trace=None,
    ) -> FlowResult:
        """Simulate the hardware on concrete inputs.

        ``sim_backend`` selects the FSMD simulation engine ("interp" or
        "compiled"); artifacts without an FSMD (combinational netlists,
        dataflow) have a single engine and ignore it.  ``sim_profile``
        takes a :class:`repro.sim.SimProfile` to fill in; ``trace`` a
        :class:`repro.trace.TraceContext` that receives the ``sim`` span
        (with the backend's compile/execute split as leaf spans)."""

    def run_batch(
        self,
        arg_sets: Sequence[Sequence[int]],
        process_args: Optional[Dict[str, Sequence[int]]] = None,
        max_cycles: int = 2_000_000,
        sim_backend: str = "interp",
        sim_profile=None,
        trace=None,
    ) -> List["LaneOutcome"]:
        """Simulate the design on every argument set in ``arg_sets``.

        Each lane is observably identical to ``run`` on the same
        arguments; lanes that error capture the scalar backend's error
        instead of poisoning the batch.  This default runs the lanes
        sequentially (still amortizing the one compiled artifact); FSMD
        designs override it with the lockstep batch engine."""
        from ..lang.errors import InterpError

        lanes: List[LaneOutcome] = []
        for args in arg_sets:
            args = tuple(args)
            try:
                result = self.run(
                    args=args, process_args=process_args,
                    max_cycles=max_cycles, sim_backend=sim_backend,
                    sim_profile=sim_profile, trace=trace,
                )
            except InterpError as failure:
                lanes.append(LaneOutcome(
                    args=args, error=str(failure),
                    error_kind=type(failure).__name__,
                ))
            else:
                lanes.append(LaneOutcome(args=args, result=result))
        return lanes

    @abc.abstractmethod
    def cost(self, tech: Technology = DEFAULT_TECH, trace=None) -> DesignCost:
        """Estimate area and timing (binding spans land in ``trace``)."""

    def verilog(self, trace=None) -> str:
        """Verilog text for the artifact (flows override where supported)."""
        raise NotImplementedError(
            f"{self.flow_key} does not emit Verilog for this artifact"
        )


class Flow(abc.ABC):
    """One surveyed language/compiler."""

    metadata: FlowMetadata

    # Feature name -> human explanation for every language feature the
    # historical tool rejected.  ``check_features`` enforces the table and
    # ``flows.registry.lint_rules`` derives the linter's feature rules from
    # it, so the compiler and the linter cannot drift apart.
    FORBIDDEN: Dict[str, str] = {}

    @abc.abstractmethod
    def compile(
        self,
        program: ast.Program,
        info: SemanticInfo,
        function: str = "main",
        **options,
    ) -> CompiledDesign:
        """Synthesize ``function`` (plus any ``process`` functions)."""

    def compile_source(
        self, source: str, function: str = "main", trace=None, **options
    ) -> CompiledDesign:
        from ..lang.frontend import frontend_phases

        program, info = frontend_phases(source, trace=trace)
        return self.compile(program, info, function, trace=trace, **options)

    def check_features(
        self,
        info: SemanticInfo,
        roots: List[str],
        forbidden: Optional[Dict[str, str]] = None,
    ) -> None:
        """Reject programs using features the historical tool lacked.
        ``forbidden`` maps feature name -> human explanation; defaults to
        the flow's class-level :attr:`FORBIDDEN` table."""
        if forbidden is None:
            forbidden = self.FORBIDDEN
        used = set()
        for root in roots:
            used |= info.features_of(root)
        for feature, reason in forbidden.items():
            if feature in used:
                location = UNKNOWN_LOCATION
                for root in roots:
                    location = info.feature_site(root, feature)
                    if location != UNKNOWN_LOCATION:
                        break
                raise UnsupportedFeature(
                    self.metadata.key,
                    reason,
                    rule=FEATURE_TO_RULE.get(feature, ""),
                    location=location,
                )


def _roots_of(program: ast.Program, function: str) -> List[str]:
    """The entry function plus every ``process`` (they run concurrently)."""
    roots = [function]
    roots += [p.name for p in program.processes if p.name != function]
    return roots


#: Back-compat alias; the helper is flow-internal, use the underscore name.
roots_of = _roots_of
