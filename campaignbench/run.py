"""Campaign benchmark: whole Perf-Taint campaigns, timed as users run them.

Run from the root of a checkout::

    python3 campaignbench/run.py --workload lulesh-cold --seed 1 \
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced campaigns and prints the per-layer metrics of the
traced ones, plus the tracing overhead.  Every campaign is checked
against the tree-engine oracle.  The last line of standard output is one
JSON object; the exit code is 0 only when every campaign passed.  See
``campaignbench/README.md`` for the workloads and what each metric
should predict.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

#: Fresh interpreters timed per run for set-up (median reported),
#: spread evenly over the timed phase so that set-up and campaigns see
#: the same stretch of host time.
SETUP_REPEATS = 5
#: Fewest campaigns a run times: the tail percentile needs ten campaigns
#: beyond it, and with 22 or more it lies above the median.
MIN_CAMPAIGNS = 22

#: Median host-speed probe seconds on the reference host.  The CPU
#: speed this shared 2-core host gives a process drifts by up to ±30%
#: within minutes, and LULESH campaigns and the probe drift together, so
#: the end-to-end timings are scaled to the speed at which the probe
#: takes HOST_REF_S (see README, "Host speed").
HOST_REF_S = 0.045

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("campaign_s.p50", "s"),
    ("campaign_s.tail", "s"),
    ("campaigns_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
import repro.cli
imported = time.perf_counter()
from repro.core.stages import Campaign
Campaign.from_spec(json.loads(sys.argv[1])).program()
print(json.dumps({"import_s": imported - start,
                  "build_s": time.perf_counter() - imported}))
"""


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples above it; the median when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), 50.0, n
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n, n


def campaign_count(workload_cls, seconds: float) -> int:
    """Campaigns a run times: a fixed number for given ``--seconds``, so
    every run reads its median and tail at the same ranks, whatever the
    speed of the code under test."""
    return max(MIN_CAMPAIGNS, round(seconds / workload_cls.NOMINAL_CAMPAIGN_S))


def time_setup(spec: dict, env: dict) -> dict:
    """Wall, import and build seconds of one fresh interpreter."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_CHILD, json.dumps(spec)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    child = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "setup_s": time.perf_counter() - started,
        "setup.import_s": child["import_s"],
        "setup.program_build_s": child["build_s"],
    }


def host_probe() -> float:
    """CPU seconds of a fixed pure-Python loop on this thread.

    Thread CPU time, so that another thread holding the interpreter lock
    or another process on the same core does not count; the loop's
    integers never trigger a garbage collection.
    """
    start = time.thread_time()
    s = 0
    for i in range(400_000):
        s += i * i % 7
    return time.thread_time() - start


@contextmanager
def plain_timer(outcome, collect=True):
    # A cold campaign starts from a collected heap, as in a fresh
    # process, so garbage left by the previous campaign and by the
    # benchmark's own bookkeeping is not collected on its clock.
    if collect:
        gc.collect()
    started = time.perf_counter()
    try:
        yield
    finally:
        outcome.wall = time.perf_counter() - started


def traced_timer(tracer, install, collect):
    @contextmanager
    def timer(outcome):
        if collect:
            gc.collect()
        install(tracer)
        try:
            with tracer.campaign_span(outcome.campaign_id):
                with plain_timer(outcome, collect=False):
                    yield
        finally:
            tracer.uninstall()

    return timer


def timed_phase(workload, count: int, env: dict, setup_repeats: int, tracing_timer=None):
    """Closed loop, one client: the next campaign starts when the last
    one ends.  With a traced timer, every second campaign is traced.
    The host-speed probe runs after every campaign, and one fresh
    interpreter's set-up is timed after every ``count / setup_repeats``
    campaigns.

    Returns the outcomes, the median set-up figures (with the median
    probe seconds as ``host_probe_s``), and the process's peak resident
    memory in MB at the end of the phase.
    """
    plain = partial(plain_timer, collect=workload.COLLECT_BEFORE)
    setup_after = {round((j + 1) * count / setup_repeats) - 1 for j in range(setup_repeats)}
    outcomes, setups, probes = [], [], []
    for index in range(count):
        traced = tracing_timer is not None and index % 2 == 1
        outcome = workload.run(index, tracing_timer if traced else plain)
        outcome.traced = traced
        outcomes.append(outcome)
        probes.append(host_probe())
        if index in setup_after:
            setups.append(time_setup(workload.spec, env))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = {key: statistics.median(s[key] for s in setups) for key in setups[0]}
    setup["host_probe_s"] = statistics.median(probes)
    return outcomes, setup, peak_rss_mb


def end_to_end(outcomes, passed, setup, peak_rss_mb) -> tuple[dict, list[str]]:
    """The end-to-end metrics, timings scaled to the reference host
    speed, and report lines with the tail's rank and the raw timings."""
    walls = [o.wall for o in outcomes if o.index in passed]
    value, percentile, n = tail(walls)
    raw = {
        "campaign_s.p50": statistics.median(walls),
        "campaign_s.tail": value,
        "campaigns_per_s": len(walls) / sum(o.wall for o in outcomes),
        "setup_s": setup["setup_s"],
    }
    scale = HOST_REF_S / setup["host_probe_s"]
    metrics = {
        "campaign_s.p50": raw["campaign_s.p50"] * scale,
        "campaign_s.tail": raw["campaign_s.tail"] * scale,
        "campaigns_per_s": raw["campaigns_per_s"] / scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = [
        f"campaign_s.tail: p{percentile:.0f} of {n} campaigns, "
        f"{n - round(percentile * n / 100)} beyond",
        f"host probe: median {setup['host_probe_s']:.4f} s, timings below "
        f"scaled by {HOST_REF_S:g} / that = {scale:.4f}; raw: "
        + " ".join(f"{k}={v:.6g}" for k, v in raw.items()),
    ]
    return metrics, notes


def per_layer(outcomes, passed, tracer, setup) -> dict:
    import layers

    traced = [o for o in outcomes if o.traced and o.index in passed]
    untraced = [o for o in outcomes if not o.traced]
    rows = [layers.campaign_layers(tracer, o.campaign_id, o.facts) for o in traced]
    if not rows or not untraced:
        return {}
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values["setup.import_s"] = setup["setup.import_s"]
    values["setup.program_build_s"] = setup["setup.program_build_s"]
    values["runtime.host_probe_s"] = setup["host_probe_s"]
    traced_cps = len(traced) / sum(o.wall for o in outcomes if o.traced)
    base_cps = len(untraced) / sum(o.wall for o in untraced)
    values["trace.campaigns_per_s"] = traced_cps
    values["trace.base_campaigns_per_s"] = base_cps
    values["trace.overhead"] = 1.0 - traced_cps / base_cps
    return {name: values[name] for name, _ in layers.PER_LAYER}


def host_facts() -> str:
    import numpy

    return (
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}"
    )


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
    count: "int | None" = None,
    setup_repeats: int = SETUP_REPEATS,
    tamper=None,
) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, report lines).

    *count* overrides the number of timed campaigns (the self-check's
    smoke passes use 1 or 2).  *tamper*, when given, edits each oracle
    payload dict before the comparison (the self-check uses it to prove
    mismatches are caught).
    """
    import workloads

    cls = workloads.WORKLOADS[name]
    if count is None:
        count = campaign_count(cls, seconds)
    out_dir = root / ".campaignbench"
    work = out_dir / f"work-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    src = str(root / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    workload = cls(work, seed)
    tracer = None
    # Wall seconds of each phase of the run, for the report.
    phases = {}
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    try:
        workload.prepare()
        warmup = workload.run(-1, plain_timer)
        if warmup.error is not None:
            raise RuntimeError(f"warm-up campaign failed: {warmup.error}")
        phase("warmup")
        timer = None
        if trace:
            import layers
            from spans import Tracer

            tracer = Tracer()
            timer = traced_timer(tracer, layers.install, cls.COLLECT_BEFORE)
        outcomes, setup, peak_rss_mb = timed_phase(
            workload, count, env, setup_repeats, timer
        )
        phase("timed")
        expected, cross_checks = workload.oracles(o.key for o in outcomes)
        failures = []
        for outcome in outcomes:
            oracle = expected[outcome.key]
            if tamper is not None:
                oracle = tamper(dict(oracle))
            for problem in workload.check(outcome, oracle):
                failures.append((outcome.index, problem))
        for key, problems in cross_checks.items():
            failures.extend(
                (o.index, problem)
                for o in outcomes
                if o.key == key
                for problem in problems
            )
        phase("oracle")
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)
    phase("close")
    failed = {index for index, _ in failures}
    passed = {o.index for o in outcomes} - failed

    lines = [
        f"campaignbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}",
        f"host: {host_facts()}",
        f"constants: campaigns={count} client_poll_s={workloads.CLIENT_POLL_S} "
        f"worker_poll_s={workloads.WORKER_POLL_S} "
        f"campaign_timeout_s={workloads.CAMPAIGN_TIMEOUT_S:g} "
        f"setup_repeats={setup_repeats} "
        f"loop_cross_checks={workloads.CROSS_CHECKS}",
        "phases: " + " ".join(f"{k}={v:.1f}s" for k, v in phases.items()),
    ]
    metrics: dict = {}
    units: dict = {}
    if passed:
        if trace:
            import layers

            metrics = per_layer(outcomes, passed, tracer, setup)
            units = dict(layers.PER_LAYER)
            out_dir.mkdir(parents=True, exist_ok=True)
            trace_path = out_dir / f"trace-{name}-seed{seed}.jsonl"
            tracer.write_jsonl(trace_path)
            lines.append(f"spans: {len(tracer.spans)} written to {trace_path}")
        else:
            metrics, notes = end_to_end(outcomes, passed, setup, peak_rss_mb)
            units = dict(END_TO_END)
            lines.extend(notes)
        for key, value in metrics.items():
            lines.append(f"  {key:<30} {value:.6g} {units[key]}")
    lines.append(
        f"  {'failed_frac':<30} {len(failed) / len(outcomes):.6g} ratio "
        f"({len(failed)} of {len(outcomes)} campaigns)"
    )
    lines.extend(f"FAILED campaign {i}: {problem}" for i, problem in failures)
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        },
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            "error: run from the root of a checkout (src/repro not found)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r} "
            f"(workloads: {', '.join(workloads.WORKLOADS)})",
            file=sys.stderr,
        )
        return 2
    result, lines = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), root
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
