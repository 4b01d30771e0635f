"""Call graph and pretty-printer tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IRError
from repro.ir import ProgramBuilder, build_callgraph, call, var
from repro.ir.printer import format_expr, format_function, format_program


def linear_chain():
    pb = ProgramBuilder()
    with pb.function("c", []) as f:
        f.work(1)
    with pb.function("b", []) as f:
        f.call("c")
    with pb.function("a", []) as f:
        f.call("b")
        f.call("MPI_Barrier")
    return pb.build(entry="a")


def recursive_program():
    pb = ProgramBuilder()
    with pb.function("f", ["n"]) as f:
        with f.if_(var("n")):
            f.call("f", 0)
    return pb.build(entry="f")


class TestCallGraph:
    def test_edges(self):
        cg = build_callgraph(linear_chain())
        assert cg.callees("a") == frozenset({"b"})
        assert cg.callers("c") == frozenset({"b"})

    def test_externals(self):
        cg = build_callgraph(linear_chain())
        assert cg.externals_of("a") == frozenset({"MPI_Barrier"})
        assert cg.transitive_externals("a") == frozenset({"MPI_Barrier"})

    def test_no_recursion(self):
        cg = build_callgraph(linear_chain())
        assert not cg.has_recursion
        assert cg.recursive_functions() == frozenset()

    def test_self_recursion_detected(self):
        cg = build_callgraph(recursive_program())
        assert cg.has_recursion
        assert "f" in cg.recursive_functions()

    def test_mutual_recursion_detected(self):
        pb = ProgramBuilder()
        with pb.function("even", ["n"]) as f:
            f.call("odd", var("n"))
        with pb.function("odd", ["n"]) as f:
            f.call("even", var("n"))
        with pb.function("main", []) as f:
            f.call("even", 4)
        cg = build_callgraph(pb.build(entry="main"))
        assert cg.recursive_functions() == frozenset({"even", "odd"})

    def test_topological_order_callee_first(self):
        cg = build_callgraph(linear_chain())
        order = cg.topological_order()
        assert order.index("c") < order.index("b") < order.index("a")

    def test_topological_order_raises_on_recursion(self):
        cg = build_callgraph(recursive_program())
        with pytest.raises(IRError):
            cg.topological_order()

    def test_reachable_from(self):
        cg = build_callgraph(linear_chain())
        assert cg.reachable_from("b") == frozenset({"b", "c"})

    def test_lulesh_acyclic(self, lulesh_program):
        assert not build_callgraph(lulesh_program).has_recursion

    def test_self_loop_alone_is_recursive(self):
        pb = ProgramBuilder()
        with pb.function("loop", ["n"]) as f:
            with f.if_(var("n")):
                f.call("loop", 0)
            f.call("leaf")
        with pb.function("leaf", []) as f:
            f.work(1)
        with pb.function("main", []) as f:
            f.call("loop", 1)
        cg = build_callgraph(pb.build(entry="main"))
        assert cg.recursive_functions() == frozenset({"loop"})
        assert cg.callers("loop") == frozenset({"loop", "main"})
        with pytest.raises(IRError):
            cg.topological_order()

    def test_mutual_recursion_cycle_raises_and_reaches(self):
        pb = ProgramBuilder()
        with pb.function("main", []) as f:
            f.call("ping", 3)
        with pb.function("ping", ["n"]) as f:
            f.call("pong", var("n"))
        with pb.function("pong", ["n"]) as f:
            with f.if_(var("n")):
                f.call("ping", 0)
            f.call("MPI_Barrier")
        cg = build_callgraph(pb.build(entry="main"))
        assert cg.recursive_functions() == frozenset({"ping", "pong"})
        assert cg.reachable_from("pong") == frozenset({"ping", "pong"})
        assert cg.transitive_externals("main") == frozenset({"MPI_Barrier"})
        with pytest.raises(IRError):
            cg.topological_order()

    def test_reachable_from_leaf_and_unknown(self):
        cg = build_callgraph(linear_chain())
        assert cg.reachable_from("c") == frozenset({"c"})
        assert cg.reachable_from("a") == frozenset({"a", "b", "c"})
        assert cg.reachable_from("MPI_Barrier") == frozenset()
        assert cg.reachable_from("nope") == frozenset()

    def test_topological_order_deterministic_diamond(self):
        pb = ProgramBuilder()
        with pb.function("main", []) as f:
            f.call("right")
            f.call("left")
        with pb.function("left", []) as f:
            f.call("base")
        with pb.function("right", []) as f:
            f.call("base")
        with pb.function("base", []) as f:
            f.work(1)
        program = pb.build(entry="main")
        # Successors are visited by name, roots in program order.
        assert build_callgraph(program).topological_order() == [
            "base", "left", "right", "main"
        ]

    def test_deep_chain_needs_no_recursion(self):
        """The SCC pass is iterative: a call chain far deeper than the
        interpreter's recursion limit is analysed without error."""
        depth = 3000
        pb = ProgramBuilder()
        for i in range(depth):
            with pb.function(f"f{i}", []) as f:
                if i + 1 < depth:
                    f.call(f"f{i + 1}")
                else:
                    f.work(1)
        cg = build_callgraph(pb.build(entry="f0"))
        assert not cg.has_recursion
        assert cg.topological_order() == [f"f{i}" for i in reversed(range(depth))]
        assert len(cg.reachable_from("f0")) == depth

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=14
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_recursion_matches_reachability(self, edges):
        """A function is recursive exactly when it can reach itself, and
        an acyclic graph's order puts every callee before its callers."""
        names = [f"g{i}" for i in range(7)]
        calls = {name: sorted({names[b] for a, b in edges if names[a] == name})
                 for name in names}
        pb = ProgramBuilder()
        for name in names:
            with pb.function(name, []) as f:
                f.work(1)
                for callee in calls[name]:
                    f.call(callee)
        cg = build_callgraph(pb.build(entry="g0"))
        cyclic = {
            name
            for name in names
            if any(name in cg.reachable_from(c) for c in calls[name])
        }
        assert cg.recursive_functions() == frozenset(cyclic)
        for name in names:
            assert cg.callees(name) == frozenset(calls[name])
        if not cyclic:
            order = cg.topological_order()
            assert sorted(order) == sorted(names)
            for name in names:
                for callee in calls[name]:
                    assert order.index(callee) < order.index(name)


class TestPrinter:
    def test_expr_minimal_parens(self):
        from repro.ir.builder import add, mul

        text = format_expr(mul(add(var("a"), 1), var("b")))
        assert text == "(a + 1) * b"

    def test_expr_no_redundant_parens(self):
        from repro.ir.builder import add, mul

        text = format_expr(add(mul(var("a"), 2), var("b")))
        assert text == "a * 2 + b"

    def test_function_renders_loops_and_ids(self):
        prog = linear_chain()
        pb = ProgramBuilder()
        with pb.function("k", ["n"]) as f:
            with f.for_("i", 0, f.var("n")):
                f.work(3)
        prog = pb.build(entry="k")
        text = format_function(prog.function("k"))
        assert "for i in" in text
        assert "# loop 0" in text
        assert "@work(3" in text

    def test_program_round_stability(self):
        prog = linear_chain()
        assert format_program(prog) == format_program(prog)

    def test_program_entry_first(self):
        text = format_program(linear_chain())
        assert text.index("def a(") < text.index("def b(")

    def test_call_format(self):
        assert format_expr(call("f", var("x"), 2)) == "f(x, 2)"
