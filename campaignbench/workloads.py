"""The campaign workloads and their oracle.

The campaign seeds come from the benchmark's ``--seed``; the program
only sees the generated specs.  The oracle is the same campaign run on
the ``tree`` engine (the reference interpreter): its measure, model and
validate payloads are bit-identical across engines, so every timed
campaign must reproduce them exactly, whatever engine the spec selects.
The oracle's own model search is cross-checked against the ``loop``
model backend (the per-hypothesis reference search), so a change to the
default batched search cannot pass by changing the oracle with it.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro.core.stages import STAGES, Campaign
from repro.service import HttpBrokerTransport, ServiceClient, Worker, serve

#: Stages whose payloads the oracle pins down.
ORACLE_STAGES = ("measure", "model", "validate")
#: Tolerance of the loop-backend cross-check, that of the repository's
#: loop-vs-batched differential suite: both searches must select the
#: same models (terms and metadata exactly), but they solve the least
#: squares differently, so on ill-conditioned fits their coefficients
#: and statistics differ from the 6th digit on.
CROSS_CHECK_REL = 1e-4
CROSS_CHECK_ABS = 1e-8
#: Oracle keys per run whose model search is cross-checked against the
#: loop backend (~1.7 s per LULESH key, so not every key).
CROSS_CHECKS = 1
#: Processes the oracle campaigns run in (one per core of the reference
#: host).
ORACLE_PROCESSES = 2
#: An oracle process that takes longer than this fails the run.
ORACLE_TIMEOUT_S = 120.0
#: A campaign that takes longer than this counts as failed.
CAMPAIGN_TIMEOUT_S = 60.0
#: ``ServiceClient.wait`` poll interval (its default, 0.2 s, would add
#: ~0.1 s of dead time per campaign; this one adds ~0.025 s).
CLIENT_POLL_S = 0.05
#: ``Worker`` idle poll interval between lease claims.
WORKER_POLL_S = 0.05

BENCH_DIR = Path(__file__).resolve().parent
SPEC_DIR = BENCH_DIR / "specs"

#: Body of one oracle process: ``python -c ORACLE_CHILD TASKS RESULTS
#: WORK`` runs the campaign specs listed in the JSON file TASKS and
#: writes their canonical payloads, in order, to the JSON file RESULTS.
ORACLE_CHILD = """
import json, sys
from workloads import oracle_task
with open(sys.argv[1]) as handle:
    specs = json.load(handle)
results = [oracle_task(spec, sys.argv[3]) for spec in specs]
with open(sys.argv[2], "w") as handle:
    json.dump(results, handle)
"""


def canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def differences(expected, actual, path: str = "") -> list[str]:
    """Where *actual* differs from *expected*: floats within the
    cross-check tolerance, everything else exactly."""
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(
            expected, actual, rel_tol=CROSS_CHECK_REL, abs_tol=CROSS_CHECK_ABS
        ):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual):
        return [f"{path}: {type(actual).__name__} != {type(expected).__name__}"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [
            d for key in expected
            for d in differences(expected[key], actual[key], f"{path}/{key}")
        ]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [
            d for i, (e, a) in enumerate(zip(expected, actual))
            for d in differences(e, a, f"{path}[{i}]")
        ]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


def load_spec(name: str) -> dict:
    with open(SPEC_DIR / name, "rb") as handle:
        return tomllib.load(handle)


@dataclass
class Outcome:
    """One campaign as the client saw it."""

    index: int
    #: What the oracle is keyed by: the campaign seed.
    key: object
    campaign_id: str = ""
    traced: bool = False
    wall: float = 0.0
    error: "str | None" = None
    split: tuple = (0, 0)
    outputs: dict = field(default_factory=dict)
    #: Facts about the campaign read through the public API afterwards
    #: (stage split, model count, planned lanes, broker leases).
    facts: dict = field(default_factory=dict)


def local_outputs(campaign: Campaign) -> dict:
    return {
        name: canonical(STAGES[name].to_payload(campaign.artifacts[name]))
        for name in ORACLE_STAGES
    }


def local_facts(campaign: Campaign) -> dict:
    computed = campaign.computed_stages
    planned = 0
    if "measure" in computed:
        planned = len(campaign.artifacts["design"].configurations) * int(
            campaign.repetitions
        )
    return {
        "computed_n": len(computed),
        "resumed_n": len(campaign.resumed_stages),
        "functions_n": len(campaign.artifacts["model"]),
        "lanes_planned": planned,
    }


def oracle_task(spec: dict, work: str) -> dict:
    """Run one oracle campaign in a pool process; its canonical payloads.

    Each process keeps one tree-engine workspace, so the stages that do
    not depend on the seed run once per process.
    """
    workspace = Path(work) / f"oracle-{os.getpid()}"
    campaign = Campaign.from_spec(spec, workspace=str(workspace))
    campaign.run()
    return local_outputs(campaign)


def run_oracle_processes(specs: list, weights: list, work: Path) -> list:
    """Canonical payloads of *specs*, in order, from ``ORACLE_PROCESSES``
    fresh interpreters.

    Each spec goes to the process with the least *weight* so far.  The
    processes are plain child interpreters that are always waited for (a
    multiprocessing pool would leave its resource tracker running after
    the benchmark exits).
    """
    loads = [0.0] * ORACLE_PROCESSES
    shares: list[list[int]] = [[] for _ in range(ORACLE_PROCESSES)]
    for index, weight in enumerate(weights):
        slot = loads.index(min(loads))
        shares[slot].append(index)
        loads[slot] += weight
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (str(Path(repro.__file__).parents[1]), str(BENCH_DIR), env.get("PYTHONPATH"))
        if p
    )
    results: list = [None] * len(specs)
    children = []
    try:
        for slot, share in enumerate(shares):
            if not share:
                continue
            tasks = work / f"oracle-tasks-{slot}.json"
            out = work / f"oracle-results-{slot}.json"
            tasks.write_text(json.dumps([specs[i] for i in share]))
            child = subprocess.Popen(
                [sys.executable, "-c", ORACLE_CHILD, str(tasks), str(out), str(work)],
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
            )
            children.append((share, out, child))
        for share, out, child in children:
            code = child.wait(timeout=ORACLE_TIMEOUT_S)
            if code != 0:
                raise RuntimeError(f"oracle process exited with code {code}")
            for index, payloads in zip(share, json.loads(out.read_text())):
                results[index] = payloads
    finally:
        for _, _, child in children:
            if child.poll() is None:
                child.kill()
            child.wait()
    return results


class Workload:
    name = ""
    spec_file = ""
    #: (computed, resumed) stage counts every campaign must show.
    expected_split = (0, 0)
    #: Wall seconds of one campaign on the reference host (see README):
    #: a run times ``--seconds / NOMINAL_CAMPAIGN_S`` campaigns.
    NOMINAL_CAMPAIGN_S = 1.0
    #: Whether each timed campaign starts from a collected heap.
    COLLECT_BEFORE = True

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.spec = load_spec(self.spec_file)
        self._rng = random.Random(f"{self.name}:{seed}")
        self._used_seeds: set[int] = set()

    def fresh_seed(self) -> int:
        """A campaign seed not used before in this run."""
        while True:
            value = self._rng.randrange(1, 2**31)
            if value not in self._used_seeds:
                self._used_seeds.add(value)
                return value

    def prepare(self) -> None:
        """Untimed set-up before the warm-up campaign."""

    def run(self, index: int, timer) -> Outcome:
        """Run one campaign; only the part inside ``timer`` is timed."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything :meth:`prepare` started."""

    # -- the oracle ---------------------------------------------------------

    def oracles(self, keys) -> tuple[dict, dict]:
        """Oracle payloads of *keys*, and the loop cross-check.

        Returns (key -> canonical payloads, key -> reasons the oracle's
        model or validate payload differs from the ``loop`` backend's,
        for the ``CROSS_CHECKS`` seeded keys re-fitted with it).  The
        campaigns run in ``ORACLE_PROCESSES`` fresh processes, after the
        timed phase, so they take neither the timed phase's CPU nor its
        memory.
        """
        keys = sorted(set(keys))
        checked = random.Random(repr(keys)).sample(keys, min(CROSS_CHECKS, len(keys)))
        # The loop re-fits are the longest tasks (about three campaigns
        # each), so they are placed first.
        specs = [
            *(dict(self.spec, seed=k, engine="tree", model_backend="loop") for k in checked),
            *(dict(self.spec, seed=k, engine="tree") for k in keys),
        ]
        weights = [3.0] * len(checked) + [1.0] * len(keys)
        results = run_oracle_processes(specs, weights, self.work)
        expected = dict(zip(keys, results[len(checked):]))
        problems = {
            key: [
                f"oracle {name} differs from the loop model backend at {where}"
                for name in ("model", "validate")
                for where in differences(
                    json.loads(reference[name]), json.loads(expected[key][name])
                )[:3]
            ]
            for key, reference in zip(checked, results)
        }
        return expected, problems

    def check(self, outcome: Outcome, expected: dict) -> list[str]:
        """Reasons *outcome* failed against the *expected* oracle payloads
        (empty when it passed)."""
        if outcome.error is not None:
            return [outcome.error]
        problems = []
        if outcome.wall > CAMPAIGN_TIMEOUT_S:
            problems.append(f"took {outcome.wall:.1f}s > {CAMPAIGN_TIMEOUT_S:g}s")
        if tuple(outcome.split) != self.expected_split:
            problems.append(
                f"stage split computed/resumed {outcome.split[0]}/"
                f"{outcome.split[1]}, expected {self.expected_split[0]}/"
                f"{self.expected_split[1]}"
            )
        for name in ORACLE_STAGES:
            if outcome.outputs.get(name) != expected[name]:
                problems.append(f"{name} payload differs from the oracle")
        return problems


#: Campaign seeds a ``lulesh-cold`` run cycles through.  A cold campaign
#: does the same work whether or not its seed ran before (every
#: workspace starts empty), and each distinct seed costs an oracle
#: campaign.
LULESH_COLD_SEEDS = 4


class LuleshCold(Workload):
    """The paper's LULESH study, every campaign on an empty workspace."""

    name = "lulesh-cold"
    spec_file = "lulesh.toml"
    expected_split = (9, 0)
    NOMINAL_CAMPAIGN_S = 1.3

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        self.seeds = [self.fresh_seed() for _ in range(LULESH_COLD_SEEDS)]

    def run(self, index: int, timer) -> Outcome:
        seed = self.seeds[index % len(self.seeds)]
        outcome = Outcome(index=index, key=seed, campaign_id=f"{self.name}-{index}")
        workspace = self.work / f"c{index}"
        try:
            with timer(outcome):
                campaign = Campaign.from_spec(
                    dict(self.spec, seed=seed), workspace=str(workspace)
                )
                campaign.run()
        except Exception as exc:  # noqa: BLE001 — a failed campaign is a result
            outcome.error = f"{type(exc).__name__}: {exc}"
            return outcome
        finally:
            shutil.rmtree(workspace, ignore_errors=True)
        outcome.split = (
            len(campaign.computed_stages),
            len(campaign.resumed_stages),
        )
        outcome.outputs = local_outputs(campaign)
        outcome.facts = local_facts(campaign)
        return outcome


class ServiceLulesh(Workload):
    """LULESH campaigns submitted to an in-process campaign server."""

    name = "service-lulesh"
    spec_file = "lulesh.toml"
    expected_split = (3, 6)
    NOMINAL_CAMPAIGN_S = 1.6
    # A long-lived ``repro serve`` keeps every finished campaign in
    # memory and pays its garbage collections on the clock.
    COLLECT_BEFORE = False

    def prepare(self) -> None:
        self.httpd = serve(self.work / "state", host="127.0.0.1", port=0)
        host, port = self.httpd.server_address[:2]
        url = f"http://{host}:{port}"
        self._server = threading.Thread(
            target=self.httpd.serve_forever, name="bench-server"
        )
        self._server.start()
        self._stop = threading.Event()
        worker = Worker(
            HttpBrokerTransport(url),
            worker_id="bench-worker",
            poll_interval=WORKER_POLL_S,
        )
        self._worker = threading.Thread(
            target=worker.run, args=(self._stop,), name="bench-worker"
        )
        self._worker.start()
        self.client = ServiceClient(url)
        self._seen_leases: set = set()
        self._quarantined = 0

    def run(self, index: int, timer) -> Outcome:
        # The server's shared store would resume measure for a seed it
        # has seen, so every campaign gets its own.
        seed = self.fresh_seed()
        spec = dict(self.spec, seed=seed)
        outcome = Outcome(index=index, key=seed, campaign_id=f"{self.name}-{index}")
        try:
            with timer(outcome):
                campaign_id = self.client.submit(spec)
                status = self.client.wait(
                    campaign_id, timeout=CAMPAIGN_TIMEOUT_S, poll=CLIENT_POLL_S
                )
            if status.get("state") != "done":
                outcome.error = f"campaign ended {status.get('state')}: {status.get('error')}"
                return outcome
            how = list(status["stages"].values())
            outcome.split = (how.count("computed"), how.count("resumed"))
            payloads = {
                name: self.client.artifact(campaign_id, name)["payload"]
                for name in (*ORACLE_STAGES, "design")
            }
        except Exception as exc:  # noqa: BLE001 — a failed campaign is a result
            outcome.error = f"{type(exc).__name__}: {exc}"
            return outcome
        outcome.outputs = {name: canonical(payloads[name]) for name in ORACLE_STAGES}
        planned = 0
        if status["stages"].get("measure") == "computed":
            planned = len(payloads["design"]["configurations"]) * int(
                spec["repetitions"]
            )
        outcome.facts = {
            "computed_n": outcome.split[0],
            "resumed_n": outcome.split[1],
            "functions_n": len(payloads["model"]),
            "lanes_planned": planned,
            **self._broker_delta(),
        }
        return outcome

    def _broker_delta(self) -> dict:
        """Leases and quarantines since the previous campaign."""
        telemetry = self.client.telemetry()
        fresh = [
            lease
            for lease in telemetry["leases"]
            if lease["lease"] not in self._seen_leases
            and lease["status"] == "completed"
        ]
        self._seen_leases.update(lease["lease"] for lease in fresh)
        quarantined = telemetry.get("store", {}).get("corrupt_entries", 0) + sum(
            1 for w in telemetry["workers"] if w.get("quarantined")
        )
        delta = quarantined - self._quarantined
        self._quarantined = quarantined
        return {
            "lease_seconds": [float(lease["seconds"]) for lease in fresh],
            "quarantine_n": delta,
        }

    def close(self) -> None:
        if not hasattr(self, "httpd"):
            return
        self._stop.set()
        self._worker.join(timeout=30)
        self.httpd.shutdown()
        self.httpd.server_close()
        self._server.join(timeout=30)


WORKLOADS = {cls.name: cls for cls in (LuleshCold, ServiceLulesh)}
