"""Run-cache fingerprints must include the execution-engine identity.

Engines are differentially tested to be bit-identical, but a cache entry
must still never be served across engines: an engine bug would otherwise
be masked — or spread — by the cache.  These tests populate a cache with
one engine and prove the other engine re-executes from scratch (and that
the numbers nevertheless agree, as the differential suite demands).
"""

from __future__ import annotations

import json

from repro.apps.synthetic import make_scaling_workload
from repro.measure.instrumentation import full_plan
from repro.measure.io import measurements_to_dict, run_fingerprint
from repro.measure.batched import BatchedExperimentRunner

DESIGN = [
    {"p": 2.0, "s": 3.0},
    {"p": 2.0, "s": 5.0},
    {"p": 4.0, "s": 3.0},
]


def _runner(engine: str, cache_dir) -> BatchedExperimentRunner:
    workload = make_scaling_workload()
    return BatchedExperimentRunner(
        workload=workload,
        plan=full_plan(workload.program()),
        repetitions=2,
        seed=7,
        cache_dir=cache_dir,
        engine=engine,
    )


class TestEngineCacheIsolation:
    def test_cache_not_shared_across_engines(self, tmp_path):
        cache = tmp_path / "cache"
        compiled = _runner("compiled", cache)
        first, _ = compiled.run(DESIGN)
        assert compiled.last_stats.executed == len(DESIGN)
        assert compiled.last_stats.cached == 0

        # Same cache, other engine: every configuration re-executes.
        tree = _runner("tree", cache)
        second, _ = tree.run(DESIGN)
        assert tree.last_stats.executed == len(DESIGN)
        assert tree.last_stats.cached == 0

        # Same engine again: everything is served from the cache.
        compiled_again = _runner("compiled", cache)
        third, _ = compiled_again.run(DESIGN)
        assert compiled_again.last_stats.executed == 0
        assert compiled_again.last_stats.cached == len(DESIGN)

        # And the engines agree bit-for-bit on the measurements anyway.
        canon = lambda m: json.dumps(measurements_to_dict(m), sort_keys=True)
        assert canon(first) == canon(second) == canon(third)

    def test_run_fingerprint_varies_with_engine(self):
        workload = make_scaling_workload()
        plan = full_plan(workload.program())
        common = dict(
            config={"p": 2.0, "s": 3.0},
            plan=plan,
            exec_repr="exec",
            noise_repr="noise",
            contention_repr="contention",
            repetitions=2,
            seed=7,
        )
        tree = run_fingerprint("digest", engine="tree", **common)
        compiled = run_fingerprint("digest", engine="compiled", **common)
        assert tree != compiled
        # Still deterministic per engine.
        assert tree == run_fingerprint("digest", engine="tree", **common)
