"""Differential property tests: compiled engine ≡ tree-walking engine.

The compiled engine must be *bit-identical* to the tree-walker — same
``RunResult`` (value, steps, totals, per-function metrics, loop
iterations), same execution-event streams, and the same raised errors at
the same point — over randomized IR programs and over all bundled apps.
These tests are the license for the measurement layer to default to the
compiled engine.

The same holds for the **taint** analysis domain: the tree-walking and
compiled shadow engines must produce identical ``TaintReport`` objects
(loop/branch/library records with their parameter sets and call paths,
implicit flows, warnings, executed-function sets) plus identical values
and metrics — the license for the taint stage to default to the compiled
engine.
"""

from __future__ import annotations

import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interp import CostKind, ExecConfig, TableRuntime, make_engine
from repro.interp.runtime import LibraryCall
from repro.ir.builder import (
    ProgramBuilder,
    add,
    binop,
    call,
    const,
    intrinsic,
    load,
    lt,
    min_,
    mod,
    mul,
    neg,
    sub,
    var,
)
from repro.measure.instrumentation import full_plan
from repro.measure.io import profile_to_dict
from repro.measure.profiler import profile_run


class RecordingListener:
    """Captures the full execution-event stream for exact comparison."""

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def on_enter(self, function):
        self.events.append(("enter", function))

    def on_exit(self, function):
        self.events.append(("exit", function))

    def on_cost(self, kind, amount):
        self.events.append(("cost", kind, amount))

    def on_loop_iterations(self, function, loop_id, count):
        self.events.append(("iters", function, loop_id, count))

    def on_aggregate_calls(self, callee, count, unit_compute, unit_memory):
        self.events.append(("agg", callee, count, unit_compute, unit_memory))


def _runtime() -> TableRuntime:
    rt = TableRuntime()
    rt.register(
        "LIB_scale",
        lambda x: LibraryCall(value=x * 2, costs={CostKind.COMM: 5.0}),
    )
    return rt


def run_one(program, engine: str, args, config: ExecConfig):
    """Run *program* on *engine*; canonicalize outcome (result or error)."""
    listener = RecordingListener()
    eng = make_engine(
        program, engine, runtime=_runtime(), config=config, listener=listener
    )
    try:
        result = eng.run(args)
    except Exception as exc:  # noqa: BLE001 - error parity is the point
        return ("error", type(exc).__name__, str(exc), listener.events)
    functions = {
        name: (fm.calls, fm.compute, fm.memory, fm.comm)
        for name, fm in result.metrics.functions.items()
    }
    return (
        "ok",
        result.value,
        result.steps,
        dict(result.metrics.totals),
        functions,
        dict(result.metrics.loop_iterations),
        listener.events,
    )


def assert_equivalent(program, args, config: ExecConfig) -> None:
    tree = run_one(program, "tree", args, config)
    compiled = run_one(program, "compiled", args, config)
    assert tree == compiled, (
        f"engines diverged\ntree:     {tree!r}\ncompiled: {compiled!r}"
    )


# ----------------------------------------------------------------------
# randomized program generation

ARITH_OPS = ("+", "-", "*", "min", "max")
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


def _gen_expr(draw, names: list[str], depth: int):
    """A random arithmetic expression over the defined *names*."""
    if depth <= 0 or draw(st.integers(0, 3)) == 0:
        if names and draw(st.booleans()):
            return var(draw(st.sampled_from(names)))
        return const(draw(st.integers(-3, 5)))
    choice = draw(st.integers(0, 4))
    if choice <= 1:
        op = draw(st.sampled_from(ARITH_OPS))
        return binop(
            op,
            _gen_expr(draw, names, depth - 1),
            _gen_expr(draw, names, depth - 1),
        )
    if choice == 2:
        return mod(_gen_expr(draw, names, depth - 1), const(draw(st.integers(1, 4))))
    if choice == 3:
        return neg(_gen_expr(draw, names, depth - 1))
    return intrinsic("abs", _gen_expr(draw, names, depth - 1))


def _gen_cond(draw, names: list[str]):
    op = draw(st.sampled_from(CMP_OPS))
    return binop(op, _gen_expr(draw, names, 1), _gen_expr(draw, names, 1))


def _gen_block(draw, f, names: list[str], depth: int, in_loop: bool) -> None:
    """Emit 1-4 random statements into builder *f* (mutates *names*)."""
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 9))
        if kind <= 2:  # assignment (possibly to a fresh local)
            if names and draw(st.booleans()):
                name = draw(st.sampled_from(names))
            else:
                name = f"t{len(names)}"
            f.assign(name, _gen_expr(draw, names, 2))
            if name not in names:
                names.append(name)
        elif kind == 3:  # cost intrinsic (sometimes negative -> error parity)
            amount = _gen_expr(draw, names, 1)
            if draw(st.booleans()):
                amount = intrinsic("abs", amount)
            f.work(amount)
        elif kind == 4 and depth > 0:  # counted loop
            loop_var = f"i{depth}{len(names)}"
            stop = min_(_gen_expr(draw, names, 1), const(draw(st.integers(0, 5))))
            if draw(st.booleans()):
                # Pure-cost body: eligible for the O(1) fast path.
                with f.for_(loop_var, 0, stop):
                    f.work(float(draw(st.integers(1, 9))))
            else:
                with f.for_(loop_var, 0, stop):
                    inner = names + [loop_var]
                    _gen_block(draw, f, inner, depth - 1, in_loop=True)
        elif kind == 5 and depth > 0:  # bounded while
            counter = f"w{depth}{len(names)}"
            f.assign(counter, 0)
            bound = draw(st.integers(0, 4))
            with f.while_(lt(var(counter), bound)):
                f.assign(counter, add(var(counter), 1))
                inner = names + [counter]
                _gen_block(draw, f, inner, depth - 1, in_loop=True)
        elif kind == 6 and depth > 0:  # branch
            with f.if_(_gen_cond(draw, names)):
                _gen_block(draw, f, list(names), depth - 1, in_loop)
            with f.else_():
                _gen_block(draw, f, list(names), depth - 1, in_loop)
        elif kind == 7 and in_loop:  # guarded break/continue
            with f.if_(_gen_cond(draw, names)):
                if draw(st.booleans()):
                    f.brk()
                else:
                    f.cont()
        elif kind == 8:  # array traffic (indices mostly in bounds)
            arr = f"arr{len(names)}"
            f.alloc(arr, 4)
            f.store(arr, mod(_gen_expr(draw, names, 1), 4), _gen_expr(draw, names, 1))
            f.assign(f"t{len(names)}", load(arr, mod(_gen_expr(draw, names, 1), 4)))
            names.append(f"t{len(names)}")
        else:  # call (program function or library routine)
            callee = draw(st.sampled_from(["leaf", "helper", "LIB_scale"]))
            target = f"t{len(names)}"
            if callee == "helper":
                f.assign(
                    target,
                    call(callee, _gen_expr(draw, names, 1), _gen_expr(draw, names, 1)),
                )
            else:
                f.assign(target, call(callee, _gen_expr(draw, names, 1)))
            names.append(target)


@st.composite
def programs(draw, traps: bool = False):
    """A random ``main(a, b)`` over fixed ``leaf``/``helper`` callees.

    With *traps*, two more entry points raise mid-run: ``spin(n)``
    exceeds any test's step budget for large *n* and ``broken(x)`` reads an
    undefined variable, both after some cost and call events.
    """
    pb = ProgramBuilder()
    if traps:
        with pb.function("spin", ["n"]) as f:
            f.assign("t", 0)
            with f.while_(lt(var("t"), var("n"))):
                f.assign("t", add(var("t"), 1))
                f.work(1.0)
        with pb.function("broken", ["x"]) as f:
            f.work(2.0)
            f.assign("y", call("leaf", var("x")))
            f.assign("z", add(var("y"), var("never_set")))
    with pb.function("leaf", ["x"], kind="accessor") as f:
        f.assign("v", mul(var("x"), 2.0))
        f.work(3.0)
        f.ret(var("v"))
    with pb.function("helper", ["n", "m"]) as f:
        f.assign("acc", 0)
        with f.for_("i", 0, min_(var("n"), 6)):
            f.assign("acc", add(var("acc"), call("leaf", var("i"))))
            f.work(2.0)
        f.ret(add(var("acc"), var("m")))
    with pb.function("main", ["a", "b"]) as f:
        names = ["a", "b"]
        _gen_block(draw, f, names, depth=2, in_loop=False)
        f.ret(_gen_expr(draw, names, 1))
    return pb.build(entry="main")


class TestRandomizedDifferential:
    @given(
        program=programs(),
        a=st.integers(0, 6),
        b=st.integers(-2, 6),
        fast_loops=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_engines_bit_identical(self, program, a, b, fast_loops):
        # Bounded step budget: random assignments can reset a while
        # counter into an infinite loop; both engines must then raise the
        # identical limit error instead of hanging the test.
        config = ExecConfig(fast_loops=fast_loops, step_limit=20_000)
        assert_equivalent(program, {"a": a, "b": b}, config)

    @given(program=programs(), a=st.integers(0, 6), b=st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_step_limit_errors_identical(self, program, a, b):
        """Tiny step budget: both engines must fail at the same step with
        the same message (which names the function and the limit)."""
        config = ExecConfig(step_limit=7)
        tree = run_one(program, "tree", {"a": a, "b": b}, config)
        compiled = run_one(program, "compiled", {"a": a, "b": b}, config)
        assert tree == compiled


def _canon_lane(result, events):
    """Canonicalize one lane outcome (RunResult or raised error)."""
    if isinstance(result, Exception):
        return ("error", type(result).__name__, str(result), tuple(events))
    return (
        "ok",
        result.value,
        result.steps,
        dict(result.metrics.totals),
        {
            name: (fm.calls, fm.compute, fm.memory, fm.comm)
            for name, fm in result.metrics.functions.items()
        },
        dict(result.metrics.loop_iterations),
        tuple(events),
    )


class TestVectorizedDifferential:
    """Vectorized engine ≡ tree/compiled — scalar runs and every lane of
    every batch width (the license for the batched measurement layer)."""

    @given(
        program=programs(),
        a=st.integers(0, 6),
        b=st.integers(-2, 6),
        fast_loops=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_run_bit_identical(self, program, a, b, fast_loops):
        config = ExecConfig(fast_loops=fast_loops, step_limit=20_000)
        tree = run_one(program, "tree", {"a": a, "b": b}, config)
        vectorized = run_one(program, "vectorized", {"a": a, "b": b}, config)
        assert tree == vectorized, (
            f"engines diverged\ntree:       {tree!r}\n"
            f"vectorized: {vectorized!r}"
        )

    @given(program=programs())
    @settings(max_examples=60, deadline=None)
    def test_batch_lanes_bit_identical(self, program):
        """Widths 1 and 7, divergent per-lane arguments: every lane's
        result, metrics, and event stream must equal a dedicated
        compiled-engine run of that lane — including raised errors."""
        from repro.interp import CompiledEngine, VectorizedEngine

        config = ExecConfig(step_limit=20_000)
        for width in (1, 7):
            args_list = [{"a": 3 + lane, "b": 4 - lane} for lane in range(width)]
            reference = []
            for args in args_list:
                listener = RecordingListener()
                engine = CompiledEngine(
                    program,
                    runtime=_runtime(),
                    config=config,
                    listener=listener,
                )
                try:
                    outcome = engine.run(args)
                except Exception as exc:  # noqa: BLE001 - error parity
                    outcome = exc
                reference.append(_canon_lane(outcome, listener.events))
            listeners = [RecordingListener() for _ in range(width)]
            batch = VectorizedEngine(program, config=config).run_batch(
                args_list,
                lane_runtimes=[_runtime() for _ in range(width)],
                lane_listeners=listeners,
                collect_errors=True,
            )
            got = [
                _canon_lane(outcome, listeners[lane].events)
                for lane, outcome in enumerate(batch)
            ]
            assert got == reference, (
                f"lanes diverged at width {width}\n"
                f"reference: {reference!r}\ngot:       {got!r}"
            )


def run_taint(program, engine: str, args, config: ExecConfig, policy=None):
    """Run taint analysis on *engine*; canonicalize outcome or error."""
    from repro.taint.engine import TaintEngine
    from repro.taint.policy import FULL_POLICY

    taint = TaintEngine(
        program,
        runtime=_runtime(),
        config=config,
        policy=policy or FULL_POLICY,
        engine=engine,
    )
    try:
        result = taint.analyze(args, {"a": "a", "b": "b"})
    except Exception as exc:  # noqa: BLE001 - error parity is the point
        return ("error", type(exc).__name__, str(exc), taint.report)
    return (
        "ok",
        result.value,
        result.report,
        dict(result.metrics.totals),
        dict(result.metrics.loop_iterations),
        {
            name: (fm.calls, fm.compute, fm.memory, fm.comm)
            for name, fm in result.metrics.functions.items()
        },
    )


class TestTaintDifferential:
    """Tree-walking taint ≡ compiled taint, report-bit-identical."""

    @given(
        program=programs(),
        a=st.integers(0, 6),
        b=st.integers(-2, 6),
        implicit=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_taint_reports_bit_identical(self, program, a, b, implicit):
        from repro.taint.policy import PropagationPolicy

        policy = PropagationPolicy(implicit_flow=implicit)
        config = ExecConfig(step_limit=20_000)
        args = {"a": a, "b": b}
        tree = run_taint(program, "tree", args, config, policy)
        compiled = run_taint(program, "compiled", args, config, policy)
        assert tree == compiled, (
            f"taint engines diverged\ntree:     {tree!r}\n"
            f"compiled: {compiled!r}"
        )

    @given(program=programs(), a=st.integers(0, 6), b=st.integers(0, 6))
    @settings(max_examples=20, deadline=None)
    def test_dataflow_only_policy_identical(self, program, a, b):
        from repro.taint.policy import DATAFLOW_ONLY

        config = ExecConfig(step_limit=20_000)
        args = {"a": a, "b": b}
        tree = run_taint(program, "tree", args, config, DATAFLOW_ONLY)
        compiled = run_taint(program, "compiled", args, config, DATAFLOW_ONLY)
        assert tree == compiled

    def _assert_app_taint_matches(self, workload) -> None:
        from repro.core.stages import run_taint_stage
        from repro.libdb.mpi_models import MPI_DATABASE
        from repro.taint.policy import FULL_POLICY

        program = workload.program()
        reports = [
            run_taint_stage(
                workload,
                program,
                FULL_POLICY,
                MPI_DATABASE.copy(),
                engine=engine,
            )
            for engine in ("tree", "compiled")
        ]
        tree, compiled = reports
        assert tree == compiled
        # The canonical artifact payload (what campaign workspaces
        # persist) must match bit for bit as well.
        from repro.core.artifacts import taint_report_to_dict

        assert taint_report_to_dict(tree) == taint_report_to_dict(compiled)

    def test_lulesh(self):
        from repro.apps.lulesh import LuleshWorkload

        self._assert_app_taint_matches(LuleshWorkload())

    def test_milc(self):
        from repro.apps.milc import MilcWorkload

        self._assert_app_taint_matches(MilcWorkload())

    def test_synthetic(self):
        from repro.apps.synthetic import make_scaling_workload

        self._assert_app_taint_matches(make_scaling_workload())


class TestAppDifferential:
    """Bit-identical profiles on every bundled application."""

    def _assert_profiles_match(self, workload, config) -> None:
        program = workload.program()
        plan = full_plan(program)
        profiles = []
        for engine in ("tree", "compiled", "vectorized"):
            setup = workload.setup(config)
            profiles.append(
                profile_run(
                    program,
                    setup.args,
                    plan,
                    runtime=setup.runtime,
                    exec_config=setup.exec_config,
                    entry=setup.entry,
                    engine=engine,
                )
            )
        tree, compiled, vectorized = profiles
        assert profile_to_dict(tree) == profile_to_dict(compiled)
        assert tree.total_time() == compiled.total_time()
        assert profile_to_dict(tree) == profile_to_dict(vectorized)
        assert tree.total_time() == vectorized.total_time()

    def test_lulesh(self):
        from repro.apps.lulesh import LuleshWorkload

        workload = LuleshWorkload()
        self._assert_profiles_match(workload, workload.taint_config())

    def test_milc(self):
        from repro.apps.milc import MilcWorkload

        workload = MilcWorkload()
        self._assert_profiles_match(workload, workload.taint_config())

    def test_synthetic(self):
        from repro.apps.synthetic import make_scaling_workload

        workload = make_scaling_workload()
        self._assert_profiles_match(workload, {"p": 6.0, "s": 9.0})


# ----------------------------------------------------------------------
# engine reuse: one lowering, reset per run


def _scaled_runtime(scale: float | None) -> TableRuntime | None:
    """``None`` (no library: LIB_scale calls fail) or a LIB_scale whose
    result and communication cost depend on *scale*, so a runtime left
    over from a previous run shows in values and metrics."""
    if scale is None:
        return None
    rt = TableRuntime()
    rt.register(
        "LIB_scale",
        lambda x: LibraryCall(value=x * scale, costs={CostKind.COMM: scale}),
    )
    return rt


def _canon_run(engine, run, events) -> tuple:
    """Canonicalize one run on *engine* (see :func:`_canon_lane`), plus
    the engine's step counter afterwards."""
    try:
        outcome = run()
    except Exception as exc:  # noqa: BLE001 - error parity is the point
        outcome = exc
    return _canon_lane(outcome, events), getattr(engine, "steps", None)


#: Entry points and arguments of the reuse property test.
_OK_RUNS = st.one_of(
    st.tuples(
        st.just("main"),
        st.fixed_dictionaries(
            {"a": st.integers(0, 6), "b": st.integers(-2, 6)}
        ),
    ),
    st.tuples(st.just("spin"), st.just([3])),
    st.tuples(
        st.just("helper"), st.lists(st.integers(0, 5), min_size=2, max_size=2)
    ),
)
#: Runs that raise: step limit, undefined variable, entry arity.
_RAISING_RUNS = st.sampled_from(
    [("spin", [10**6]), ("broken", [1]), ("main", [1])]
)


class TestEngineReuse:
    """A reset engine is indistinguishable from a fresh one — the license
    for the measurement layer to lower a program once per stage."""

    @given(
        program=programs(traps=True),
        runs=st.lists(
            st.tuples(_OK_RUNS, st.sampled_from([None, 2.0, 3.0])),
            min_size=1,
            max_size=5,
        ),
        raising=st.tuples(_RAISING_RUNS, st.sampled_from([None, 2.0])),
        position=st.integers(0, 5),
        fast_loops=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_reset_engine_matches_fresh(
        self, program, runs, raising, position, fast_loops
    ):
        config = ExecConfig(fast_loops=fast_loops, step_limit=2_000)
        runs = list(runs)
        runs.insert(min(position, len(runs)), raising)
        for name in ("compiled", "tree", "vectorized"):
            listener = RecordingListener()
            reused = make_engine(
                program, name, config=config, listener=listener
            )
            for (entry, args), scale in runs:
                fresh_listener = RecordingListener()
                fresh = make_engine(
                    program,
                    name,
                    runtime=_scaled_runtime(scale),
                    config=config,
                    listener=fresh_listener,
                )
                expected = _canon_run(
                    fresh,
                    lambda: fresh.run(args, entry=entry),
                    fresh_listener.events,
                )
                reused.reset(_scaled_runtime(scale))
                listener.events = []
                got = _canon_run(
                    reused,
                    lambda: reused.run(args, entry=entry),
                    listener.events,
                )
                assert got == expected, (
                    f"{name}: reused engine diverged on {entry}{args!r}\n"
                    f"fresh:  {expected!r}\nreused: {got!r}"
                )

    def test_measure_stage_lowers_once(self, lulesh_workload, monkeypatch):
        """A 9-configuration LULESH measure stage lowers the program
        exactly once (on a fresh thread, so no earlier test's engine is
        in its slot)."""
        from repro.core.stages import run_measure_stage
        from repro.interp import CompiledEngine
        from repro.measure.noise import GaussianNoise
        from repro.mpisim.contention import NoContention

        lowered = []
        original = CompiledEngine._compile_functions

        def counting(engine):
            lowered.append(engine.program)
            original(engine)

        monkeypatch.setattr(CompiledEngine, "_compile_functions", counting)
        program = lulesh_workload.program()
        design = [
            {"p": p, "size": size} for p in (27, 64, 125) for size in (6, 9, 12)
        ]
        out = {}

        def stage():
            out["result"] = run_measure_stage(
                lulesh_workload,
                design,
                full_plan(program),
                noise=GaussianNoise(),
                contention=NoContention(),
                repetitions=2,
                seed=3,
                engine="compiled",
            )

        worker = threading.Thread(target=stage)
        worker.start()
        worker.join()
        _measurements, profiles = out["result"]
        assert len(profiles) == 9
        assert lowered == [program]

    def test_concurrent_threads_match_serial(self, lulesh_workload):
        """Two threads profiling different LULESH configurations at once
        (each reusing its own engine) produce exactly the profiles of a
        serial run and of fresh engines."""
        from repro.measure.profiler import ProfileResult, ScorePListener

        program = lulesh_workload.program()
        plan = full_plan(program)
        configs = [
            {"p": p, "size": size} for p in (8, 27) for size in (3, 4, 5)
        ]

        def profile(config):
            setup = lulesh_workload.setup(config)
            result = profile_run(
                program,
                setup.args,
                plan,
                runtime=setup.runtime,
                exec_config=setup.exec_config,
                entry=setup.entry,
            )
            return profile_to_dict(result), result.loop_iterations

        def fresh(config):
            setup = lulesh_workload.setup(config)
            listener = ScorePListener(plan)
            engine = make_engine(
                program,
                "compiled",
                runtime=setup.runtime,
                config=setup.exec_config,
                listener=listener,
            )
            result = engine.run(setup.args, entry=setup.entry)
            iterations = dict(result.metrics.loop_iterations)
            profile = ProfileResult(
                plan=plan, nodes=listener.nodes, loop_iterations=iterations
            )
            return profile_to_dict(profile), iterations

        expected = [fresh(c) for c in configs]
        assert [profile(c) for c in configs] == expected

        halves = (configs[0::2], configs[1::2])
        got: list[list] = [[], []]
        barrier = threading.Barrier(2)

        def worker(slot: int) -> None:
            barrier.wait()
            for _ in range(2):
                for config in halves[slot]:
                    got[slot].append((configs.index(config), profile(config)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the two runs finely
        try:
            threads = [
                threading.Thread(target=worker, args=(i,)) for i in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        outcomes = got[0] + got[1]
        assert len(outcomes) == 2 * len(configs)
        for index, outcome in outcomes:
            assert outcome == expected[index], configs[index]
