"""The shared frontend: one memoized parse per source and owner.

Covers :class:`repro.lang.Frontend` itself (exact-text keys, remembered
failures, private copies, the span contract, the LRU bound) and how the
engine and the fuzz campaign use it: one ``parse_program`` call per
distinct source within a campaign, none shared between campaigns.
"""

import sys
import traceback

import pytest

import repro.lang.frontend as frontend_module
import repro.lang.parser as parser_module
from repro.analysis.timing import CheckRejected, enforce
from repro.api import SynthesisOptions, synthesize
from repro.fuzz import FuzzOptions, mutants, run_campaign
from repro.lang import Frontend, ParseError, SemanticError, print_program
from repro.lang.frontend import CAPACITY
from repro.runner import CellTask, MatrixEngine, file_tasks

SOURCE = "int main(int a) { int b = a + 1; return b * 2; }"


@pytest.fixture
def parse_calls(monkeypatch):
    """Every ``parse_program`` call's source, wherever it is bound."""
    calls = []
    original = parser_module.parse_program

    def counting(source, filename="<input>"):
        calls.append(source)
        return original(source, filename)

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counting)
    return calls


# -- the memo -----------------------------------------------------------------


def test_parse_is_memoized_and_shared(parse_calls):
    frontend = Frontend()
    first = frontend.parse(SOURCE)
    second = frontend.parse(SOURCE)
    assert first[0] is second[0] and first[1] is second[1]
    assert parse_calls == [SOURCE]
    assert len(frontend) == 1


def test_key_is_exact_text_and_filename():
    frontend = Frontend()
    relaid = SOURCE.replace("{ ", "{\n    ")
    program, _ = frontend.parse(SOURCE)
    moved, _ = frontend.parse(relaid)
    named, _ = frontend.parse(SOURCE, filename="kernel.c")
    assert len(frontend) == 3
    body = program.functions[0].body.statements
    moved_body = moved.functions[0].body.statements
    assert body[0].location != moved_body[0].location
    assert moved_body[0].location.line == 2
    assert named.functions[0].location.filename == "kernel.c"


def test_frontend_error_is_remembered_with_a_stable_traceback(parse_calls):
    frontend = Frontend()
    broken = "int main() { return 1 }"
    def tail(raised):
        return traceback.format_exception(
            raised.type, raised.value, raised.value.__traceback__)[-2:]

    with pytest.raises(ParseError) as first:
        frontend.parse(broken)
    first_tail = tail(first)
    assert "parser.py" in first_tail[0]
    tails, depths = [], []
    for _ in range(3):
        with pytest.raises(ParseError) as again:
            frontend.parse(broken)
        assert again.value is first.value
        tails.append(tail(again))
        depths.append(len(traceback.extract_tb(again.value.__traceback__)))
    assert parse_calls == [broken]
    assert tails == [first_tail] * 3
    assert len(set(depths)) == 1


def test_semantic_error_is_remembered_after_a_good_parse():
    frontend = Frontend()
    bad = "int main() { return missing; }"
    with pytest.raises(SemanticError):
        frontend.parse(bad)
    with pytest.raises(SemanticError):
        frontend.parse(bad)
    assert len(frontend) == 1


def test_other_exceptions_propagate_and_are_not_remembered(monkeypatch):
    original = frontend_module.parse_program
    failures = [RuntimeError("alarm")]

    def flaky(source, filename="<input>"):
        if failures:
            raise failures.pop()
        return original(source, filename)

    monkeypatch.setattr(frontend_module, "parse_program", flaky)
    frontend = Frontend()
    with pytest.raises(RuntimeError):
        frontend.parse(SOURCE)
    assert len(frontend) == 0
    program, _ = frontend.parse(SOURCE)
    assert program.functions[0].name == "main"


def test_fresh_copies_are_private(parse_calls):
    frontend = Frontend()
    shared, _ = frontend.parse(SOURCE)
    text = print_program(shared)
    one = frontend.fresh(SOURCE)
    two = frontend.fresh(SOURCE)
    assert one is not two and one is not shared
    assert print_program(one) == print_program(two) == text
    one.functions[0].body.statements.clear()
    assert print_program(shared) == text
    assert print_program(frontend.fresh(SOURCE)) == text
    assert parse_calls == [SOURCE]


def test_spans_record_memo_and_keep_their_counts():
    from repro.trace import TraceContext

    frontend = Frontend()
    traces = []
    for _ in range(2):
        trace = TraceContext()
        frontend.parse(SOURCE, trace=trace)
        traces.append(trace)
    miss, hit = traces
    assert miss.structure() == hit.structure() == ["parse", "semantic"]
    assert miss.find("parse").args == {
        "memo": "miss", "functions": 1, "processes": 0}
    assert hit.find("parse").args == {
        "memo": "hit", "functions": 1, "processes": 0}
    assert miss.find("semantic").args == {"memo": "miss"}
    assert hit.find("semantic").args == {"memo": "hit"}


def test_synthesize_without_a_frontend_parses_afresh(parse_calls):
    synthesize(SOURCE, SynthesisOptions(flow="c2verilog"))
    synthesize(SOURCE, SynthesisOptions(flow="c2verilog"))
    assert parse_calls == [SOURCE, SOURCE]
    frontend = Frontend()
    for flow in ("c2verilog", "handelc"):
        synthesize(SOURCE, SynthesisOptions(flow=flow), frontend=frontend)
    assert parse_calls == [SOURCE] * 3


def test_mutator_copies_only_for_kinds_with_sites(monkeypatch):
    copies = []
    original = Frontend.fresh

    def counting(self, source, filename="<input>"):
        copies.append(source)
        return original(self, source, filename)

    monkeypatch.setattr(Frontend, "fresh", counting)
    # No binary operator to commute and no loop to rotate: one copy shows
    # both kinds have no sites, and neither is tried again.
    assert mutants("int main() { return 1; }",
                   only=["commute", "rotate-loop"]) == []
    assert len(copies) == 1
    # SOURCE has two commutable operators, so three distinct mutants are
    # out of reach and all 18 attempts run, alternating the two kinds:
    # only the nine at "commute" need a copy (the first "rotate-loop"
    # attempt's copy serves the next one).
    copies.clear()
    found = mutants(SOURCE, seed=3, only=["commute", "rotate-loop"])
    assert len(found) == 2 and {m.name for m in found} == {"commute"}
    assert len(copies) == 9


# -- the engine ---------------------------------------------------------------


def test_serial_cells_reuse_the_golden_parse(parse_calls):
    tasks = file_tasks(SOURCE, "shared", flows=["c2verilog", "handelc",
                                                 "cash"], args=(4,))
    results = MatrixEngine(jobs=1, trace=True).run_cells(tasks)
    assert [r.verdict for r in results] == ["ok"] * 3
    assert parse_calls == [SOURCE]
    for result in results:
        spans = {s["name"]: s for s in result.trace["spans"]}
        assert spans["parse"]["args"]["memo"] == "hit"
        assert spans["semantic"]["args"]["memo"] == "hit"


def test_pool_cells_parse_in_their_workers():
    tasks = file_tasks(SOURCE, "pooled", flows=["c2verilog", "handelc"],
                       args=(4,))
    serial = MatrixEngine(jobs=1, trace=True).run_cells(tasks)
    pooled = MatrixEngine(jobs=2, trace=True).run_cells(tasks)
    assert [r.identity() for r in serial] == [r.identity() for r in pooled]
    for result in pooled:
        spans = {s["name"]: s for s in result.trace["spans"]}
        assert spans["parse"]["args"]["memo"] == "miss"


def test_frontend_errors_read_the_same_serial_and_pooled():
    # Serial cells re-raise the golden model's remembered ParseError; the
    # diagnostics (the traceback's last lines) must match a fresh raise.
    tasks = file_tasks("int main() { return 1 }", "broken",
                       flows=["c2verilog", "cash"])
    serial = MatrixEngine(jobs=1).run_cells(tasks)
    pooled = MatrixEngine(jobs=2).run_cells(tasks)
    assert [r.verdict for r in serial] == ["error", "error"]
    assert "ParseError" in serial[0].diagnostics[-1]
    assert [r.identity() for r in serial] == [r.identity() for r in pooled]


def test_engine_memory_is_bounded_and_results_survive_eviction():
    engine = MatrixEngine(jobs=1)
    sources = [f"int main() {{ return {n}; }}" for n in range(CAPACITY + 40)]
    for value, source in enumerate(sources):
        task = CellTask(workload="w", source=source, flow="c2verilog")
        assert engine.golden_observable(task)[0] == value
        assert len(engine.frontend) <= CAPACITY
    assert len(engine.frontend) == CAPACITY
    # The first sources were evicted; running them parses again and
    # gives the same results as a new engine.
    tasks = [CellTask(workload="w", source=s, flow="c2verilog")
             for s in sources[:3] + sources[-3:]]
    again = engine.run_cells(tasks)
    fresh = MatrixEngine(jobs=1).run_cells(tasks)
    assert [r.identity() for r in again] == [r.identity() for r in fresh]
    assert [r.value for r in again] == [0, 1, 2] + [
        CAPACITY + 37, CAPACITY + 38, CAPACITY + 39]
    assert len(engine.frontend) == CAPACITY


SELF_RENDEZVOUS = """
chan<int> c;
int main(int a) {
  send(c, a);
  int x = recv(c);
  return x;
}
"""


def test_a_check_cell_parses_its_source_once(parse_calls):
    tasks = [CellTask(workload="checked", source=source, flow="handelc",
                      args=(4,), check=True)
             for source in (SOURCE, SELF_RENDEZVOUS)]
    results = MatrixEngine(jobs=1).run_cells(tasks)
    assert parse_calls == [SOURCE, SELF_RENDEZVOUS]
    assert [r.verdict for r in results] == ["ok", "rejected"]
    # The checker's verdict reads as it does with a parse of its own.
    with pytest.raises(CheckRejected) as caught:
        enforce(SELF_RENDEZVOUS, "handelc")
    assert results[1].rule == caught.value.rule
    assert results[1].diagnostics == [caught.value.reason]
    unchecked = MatrixEngine(jobs=1).run_cells(
        [CellTask(workload="checked", source=SOURCE, flow="handelc",
                  args=(4,))])
    assert results[0].value == unchecked[0].value


def test_golden_memo_is_bounded_like_the_frontend():
    engine = MatrixEngine(jobs=1)
    sources = [f"int main(int a) {{ return a + {n}; }}" for n in range(600)]

    def golden(source):
        return engine.golden_observable(
            CellTask(workload="w", source=source, flow="c2verilog", args=(1,))
        )

    observed = []
    for n, source in enumerate(sources):
        observed.append(golden(source))
        assert len(engine._golden) <= CAPACITY
        if n == CAPACITY - 1:
            golden(sources[0])       # a hit makes the key most recent
    assert len(engine._golden) == CAPACITY
    assert [o[0] for o in observed] == [n + 1 for n in range(600)]
    assert (sources[0], "main", (1,)) in engine._golden
    assert (sources[1], "main", (1,)) not in engine._golden
    # Evicted keys recompute; every answer matches a new engine's.
    for source, expected in zip(sources[:3] + sources[-3:],
                                observed[:3] + observed[-3:]):
        fresh = MatrixEngine(jobs=1).golden_observable(
            CellTask(workload="w", source=source, flow="c2verilog", args=(1,))
        )
        assert golden(source) == expected == fresh
    assert len(engine._golden) == CAPACITY


# -- the campaign -------------------------------------------------------------


def _small_campaign():
    return run_campaign(FuzzOptions(
        coverage=True, reduce=False, cache_dir="", seeds=4, jobs=1,
        flows=("cash", "handelc", "c2verilog"),
    ))


def test_campaign_parses_each_distinct_source_at_most_once(parse_calls):
    report = _small_campaign()
    assert report.cells_run > 0
    assert parse_calls
    assert len(parse_calls) == len(set(parse_calls))


def test_consecutive_campaigns_share_no_parses(parse_calls):
    _small_campaign()
    first = list(parse_calls)
    _small_campaign()
    second = parse_calls[len(first):]
    assert first and second == first
