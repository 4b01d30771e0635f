"""Self-check of the campaign benchmark.

Run from the root of a checkout::

    python3 campaignbench/selfcheck.py

Checks that ``BENCHMARK.json`` lists exactly the metrics the benchmark
prints, runs a one-campaign smoke pass per workload (untraced, then
traced), proves that a deliberately altered oracle payload is reported
as a failed campaign with a non-zero exit, and that the benchmark
refuses to run where the program's sources are missing.  Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    sys.path.insert(0, str(root / "src"))
    import layers
    import run
    import workloads

    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    declared = json.loads((root / "BENCHMARK.json").read_text())
    expect(
        [(m["name"], m["unit"]) for m in declared["end_to_end"]]
        == list(run.END_TO_END),
        "BENCHMARK.json end_to_end matches run.END_TO_END",
    )
    expect(
        [(m["name"], m["unit"]) for m in declared["per_layer"]]
        == list(layers.PER_LAYER),
        "BENCHMARK.json per_layer matches layers.PER_LAYER",
    )
    expect(
        [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json workloads match workloads.WORKLOADS",
    )

    for name in workloads.WORKLOADS:
        for trace, wanted in ((False, run.END_TO_END), (True, layers.PER_LAYER)):
            result, _ = run.run_workload(
                name, 0, 0.0, trace, root, count=1 + trace, setup_repeats=1
            )
            expect(
                result["correct"] and result["failed"] == 0,
                f"{name} trace={int(trace)} smoke campaign matches the oracle",
            )
            expect(
                list(result["metrics"]) == [n for n, _ in wanted],
                f"{name} trace={int(trace)} reports every declared metric",
            )

    fit = {"coefficients": [704.4299655903891, 91.19432843908044], "terms": [[0.25, 0]]}
    expect(
        not workloads.differences(
            fit, {**fit, "coefficients": [704.4299655903895, 91.19432843908042]}
        )
        and workloads.differences(
            fit, {**fit, "coefficients": [705.0, 91.19432843908044]}
        )
        and workloads.differences(fit, {**fit, "terms": [[0.5, 0]]}),
        "the loop cross-check allows float differences within its tolerance only",
    )

    def alter(oracle: dict) -> dict:
        oracle["model"] = oracle["model"].replace("1", "2", 1)
        return oracle

    result, lines = run.run_workload(
        "lulesh-cold", 0, 0.0, False, root, count=1, setup_repeats=1, tamper=alter
    )
    expect(
        not result["correct"]
        and result["failed"] == 1
        and any("model payload differs" in line for line in lines),
        "an altered oracle payload is reported as a failed campaign",
    )

    bare = root / ".campaignbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare)
    shutil.copytree(bench_dir, bare / bench_dir.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*declared["command"], "--workload", "lulesh-cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(
        done.returncode != 0 and not done.stdout.strip(),
        "without the program's sources the benchmark exits non-zero, no result",
    )

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
