"""Pointer-analysis tests."""

import pytest

from repro.analysis.pointer import plan_pointers
from repro.ir.passes import inline_program
from repro.lang import parse


def plan_for(source, enable=True):
    program, info = parse(source)
    inlined, _ = inline_program(program, info)
    return plan_pointers(inlined.function("main"), enable_analysis=enable)


def test_no_pointers_mode_none():
    plan = plan_for("int main() { int a[4]; return a[0]; }")
    assert plan.mode == "none"
    assert not plan.in_memory and not plan.bases


def test_single_array_pointer_resolved():
    plan = plan_for(
        """
        int buf[8];
        int main() {
            int *p = &buf[0];
            int s = 0;
            for (int i = 0; i < 8; i++) { s += *p; p = p + 1; }
            return s;
        }
        """
    )
    assert plan.mode == "resolved"
    assert plan.stats.resolved_count >= 1
    assert plan.memory_size == 0


def test_scalar_pointer_without_arithmetic_resolved():
    plan = plan_for(
        """
        int main() {
            int x = 3;
            int *p = &x;
            *p = 5;
            return x;
        }
        """
    )
    assert plan.mode == "resolved"
    kinds = {kind for kind, _ in plan.bases.values()}
    assert kinds == {"scalar"}


def test_scalar_pointer_with_arithmetic_unified():
    plan = plan_for(
        """
        int main() {
            int x = 3;
            int *p = &x;
            p = p + 1;
            return x;
        }
        """
    )
    assert plan.memory_symbol is not None


def test_two_target_pointer_unified():
    plan = plan_for(
        """
        int a[4];
        int b[4];
        int main(int w) {
            int *p = w != 0 ? &a[0] : &b[0];
            return *p;
        }
        """
    )
    assert plan.stats.max_points_to == 2
    assert {s.name for s in plan.in_memory} == {"a", "b"}
    assert plan.memory_size == 8


def test_copy_chains_propagate_points_to():
    plan = plan_for(
        """
        int buf[4];
        int main() {
            int *p = &buf[0];
            int *q = p;
            int *r = q;
            return *r;
        }
        """
    )
    assert plan.mode == "resolved"
    assert plan.stats.resolved_count == 3


def test_mixed_mode_keeps_resolved_pointers_private():
    plan = plan_for(
        """
        int a[4];
        int b[4];
        int c[4];
        int main(int w) {
            int *clean = &c[0];
            int *dirty = w != 0 ? &a[0] : &b[0];
            return *clean + *dirty;
        }
        """
    )
    assert plan.mode == "mixed"
    in_memory = {s.name for s in plan.in_memory}
    assert in_memory == {"a", "b"}
    resolved_bases = {base.name for _, base in plan.bases.values()}
    assert resolved_bases == {"c"}


def test_disabled_analysis_unifies_everything():
    plan = plan_for(
        """
        int buf[4];
        int main() {
            int *p = &buf[0];
            return *p;
        }
        """,
        enable=False,
    )
    assert plan.mode == "unified"
    assert plan.stats.iterations == 0
    assert plan.stats.resolved_count == 0


def test_layout_is_disjoint_and_covers_sizes():
    plan = plan_for(
        """
        int a[3];
        int b[5];
        int main(int w) {
            int *p = w != 0 ? &a[0] : &b[0];
            return *p;
        }
        """
    )
    spans = sorted(
        (base, base + (s.type.size if hasattr(s.type, "size") else 1))
        for s, base in plan.layout.items()
    )
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        assert hi1 <= lo2
    assert plan.memory_size == 8


def test_initial_memory_from_global_inits():
    program, info = parse(
        """
        int a[3] = {7, 8, 9};
        int main(int w) {
            int x = 0;
            int *p = w != 0 ? &a[0] : &x;
            return *p;
        }
        """
    )
    inlined, _ = inline_program(program, info)
    plan = plan_pointers(inlined.function("main"))
    words = plan.initial_memory(info.global_inits)
    a_symbol = next(s for s in plan.layout if s.name == "a")
    base = plan.layout[a_symbol]
    assert words[base : base + 3] == [7, 8, 9]


def test_stats_count_constraints_and_iterations():
    plan = plan_for(
        """
        int buf[4];
        int main() {
            int *p = &buf[0];
            int *q = p + 1;
            return *q;
        }
        """
    )
    assert plan.stats.pointer_count == 2
    assert plan.stats.constraint_count >= 2
    assert plan.stats.iterations >= 1


def test_address_of_scalar_used_directly():
    plan = plan_for("int main() { int x = 4; return *(&x); }")
    # Dereferencing &x immediately needs no pointer variable at all.
    assert plan.stats.pointer_count == 0


def _cones_programs():
    from repro.fuzz import feature_mask
    from repro.fuzz.grammar import generate_program
    from repro.workloads import WORKLOADS

    sources = [w.source for w in WORKLOADS]
    for flow in ("cones", "c2verilog"):
        sources += [generate_program(seed, feature_mask(flow)).source
                    for seed in range(12)]
    return sources


def test_pointer_free_matches_the_plan_after_unrolling():
    # Cones asks pointer_free() of the inlined function before unrolling
    # and skips plan_pointers() on the unrolled one when it says yes: the
    # plan it would have computed must be exactly the empty one.
    from repro.analysis.pointer import PointerPlan, pointer_free
    from repro.ir.passes import try_full_unroll

    sources = _cones_programs()
    free = 0
    for source in sources:
        program, info = parse(source)
        fn = inline_program(program, info, roots=["main"])[0].function("main")
        if pointer_free(fn):
            free += 1
            unrolled, _, _ = try_full_unroll(fn)
            assert plan_pointers(unrolled) == PointerPlan()
    # Both answers occur (the C2Verilog programs walk pointers).
    assert 0 < free < len(sources)
