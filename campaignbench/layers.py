"""Per-layer probes around the program's public entry points.

Each probe wraps one entry point of one module, named after the module
it observes (``stage.*`` and ``core.*`` for :mod:`repro.core`,
``apps.*`` for :mod:`repro.apps`, ``measure.*`` for
:mod:`repro.measure`, ``service.*`` for :mod:`repro.service`).  Stage
self time is the stage span minus the store, codec, fingerprint and
program-build spans inside it.
"""

from __future__ import annotations

import dataclasses
import statistics

from repro.apps import lulesh
from repro.core import stages as core_stages
from repro.core.artifacts import ArtifactStore
from repro.errors import TransientServiceError
from repro.measure import batched, experiment
from repro.service import remote_store, retry, server, worker
from repro.service.remote_store import (
    STAGE_NAMESPACE,
    LocalStore,
    RemoteStore,
    SharedWorkspace,
)
from repro.service.server import ServiceClient
from repro.service.worker import Worker

from spans import Tracer, self_times

STAGE_NAMES = tuple(core_stages.STAGES)

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    *((f"stage.{name}.self_s", "s") for name in STAGE_NAMES),
    ("stage.computed_n", "count"),
    ("stage.resumed_n", "count"),
    ("apps.program_build_s", "s"),
    ("core.fingerprint_s", "s"),
    ("core.store.get_s", "s"),
    ("core.store.get_n", "count"),
    ("core.store.miss_n", "count"),
    ("core.store.decode_s", "s"),
    ("core.store.put_s", "s"),
    ("core.store.put_n", "count"),
    ("core.store.put_bytes", "B"),
    ("core.store.encode_s", "s"),
    ("measure.lanes_planned", "count"),
    ("measure.lanes_executed", "count"),
    ("measure.lane_yield", "ratio"),
    ("measure.runs_per_s", "1/s"),
    ("modeling.functions_n", "count"),
    ("modeling.s_per_function", "s"),
    ("service.submit_s", "s"),
    ("service.poll_n", "count"),
    ("service.lease_n", "count"),
    ("service.lease_s.p50", "s"),
    ("service.measure_wait_s", "s"),
    ("service.store_rtt_s", "s"),
    ("service.store_n", "count"),
    ("service.retry_n", "count"),
    ("service.quarantine_n", "count"),
    ("runtime.gc_s", "s"),
    ("runtime.gc_n", "count"),
    ("runtime.cpu_s", "s"),
    ("runtime.host_probe_s", "s"),
    ("setup.import_s", "s"),
    ("setup.program_build_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.campaigns_per_s", "1/s"),
    ("trace.base_campaigns_per_s", "1/s"),
    ("trace.overhead", "ratio"),
)


def _stored_bytes(store, stage: str, fingerprint: str) -> int:
    """Size of the file a workspace put wrote.

    Raises when the file is not where the store's layout puts it, so a
    change of layout stops the traced run instead of reading 0 bytes.
    """
    if isinstance(store, SharedWorkspace):
        if not isinstance(store.store, LocalStore):
            raise RuntimeError(
                f"put_bytes: no probe for a {type(store.store).__name__} "
                "behind the shared workspace"
            )
        path = store.store._path(STAGE_NAMESPACE, f"{stage}-{fingerprint}")
    else:
        path = store._path(stage, fingerprint)
    if not path.is_file():
        raise RuntimeError(
            f"put_bytes: {stage} artifact not found at {path} after put; "
            "the store layout changed, update campaignbench/layers.py"
        )
    return path.stat().st_size


def install(tracer: Tracer) -> None:
    """Wrap every observed entry point; undone by ``tracer.uninstall()``."""
    t = tracer

    def run_stage(original):
        def wrapper(campaign, stage):
            with t.span(f"stage.{stage.name}") as span:
                value = original(campaign, stage)
                span.attrs["how"] = campaign.stage_stats.get(stage.name)
            return value

        return wrapper

    t.patch(core_stages.Campaign, "run_stage", run_stage)
    t.patch(
        core_stages.Campaign,
        "stage_fingerprint",
        lambda o: t.traced("core.fingerprint", o),
    )
    t.patch(core_stages, "program_hash", lambda o: t.traced("core.fingerprint", o))
    for name, stage in list(core_stages.STAGES.items()):
        t.replace_item(
            core_stages.STAGES,
            name,
            dataclasses.replace(
                stage,
                to_payload=t.traced("core.store.encode", stage.to_payload),
                from_payload=t.traced("core.store.decode", stage.from_payload),
            ),
        )

    def store_get(original):
        def wrapper(store, stage, fingerprint):
            with t.span("core.store.get") as span:
                payload = original(store, stage, fingerprint)
                span.attrs["hit"] = payload is not None
            return payload

        return wrapper

    def store_put(original):
        def wrapper(store, stage, fingerprint, payload):
            with t.span("core.store.put") as span:
                original(store, stage, fingerprint, payload)
            span.attrs["bytes"] = _stored_bytes(store, stage, fingerprint)

        return wrapper

    for cls in (ArtifactStore, SharedWorkspace):
        t.patch(cls, "get", store_get)
        t.patch(cls, "put", store_put)

    t.patch(lulesh, "build_lulesh", lambda o: t.traced("apps.program_build", o))

    def profile_run(original):
        def wrapper(*args, **kwargs):
            t.count("measure.lanes_executed")
            return original(*args, **kwargs)

        return wrapper

    def batch_run(original):
        def wrapper(program, setups, *args, dedup=True, **kwargs):
            lanes = (
                batched.plan_lanes(setups)[2].executed if dedup else len(setups)
            )
            t.count("measure.lanes_executed", lanes)
            return original(program, setups, *args, dedup=dedup, **kwargs)

        return wrapper

    t.patch(experiment, "profile_run", profile_run)
    for module in (batched, worker):
        t.patch(module, "run_batch_configurations", batch_run)

    t.patch(ServiceClient, "submit", lambda o: t.traced("service.submit", o))
    t.patch(ServiceClient, "status", lambda o: t.traced("service.poll", o))
    t.patch(Worker, "execute", lambda o: t.traced("service.lease", o))

    def local_store_call(original):
        # Stage-namespace calls sit under a core.store span already.
        def wrapper(store, namespace, *args, **kwargs):
            if namespace == STAGE_NAMESPACE:
                return original(store, namespace, *args, **kwargs)
            with t.span("service.store", namespace=namespace):
                return original(store, namespace, *args, **kwargs)

        return wrapper

    for op in ("get", "put", "has", "has_many", "keys"):
        t.patch(LocalStore, op, local_store_call)
    for op in ("get", "put", "has", "has_many"):
        t.patch(
            RemoteStore, op, lambda o: t.traced("service.store", o)
        )

    def retry_call(original):
        def wrapper(fn, **kwargs):
            def counted():
                try:
                    return fn()
                except TransientServiceError:
                    t.count("service.retry_n")
                    raise

            return original(counted, **kwargs)

        return wrapper

    for module in (retry, server, remote_store):
        t.patch(module, "retry_call", retry_call)
    t.install_gc_probe()


def campaign_layers(tracer: Tracer, campaign_id: str, facts: dict) -> dict:
    """Per-layer values of one traced campaign.

    *facts* are what the workload observed through the public API after
    the campaign (stage split, models, planned lanes, broker leases).
    """
    spans = tracer.campaign_spans(campaign_id)
    selfs = self_times(spans)
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        own[s.name] = own.get(s.name, 0.0) + selfs[s.id]
        calls[s.name] = calls.get(s.name, 0) + 1
    counts = tracer.counts.get(campaign_id, {})
    root = next(s for s in spans if s.name == "campaign")

    out = {f"stage.{n}.self_s": own.get(f"stage.{n}", 0.0) for n in STAGE_NAMES}
    out["stage.computed_n"] = facts["computed_n"]
    out["stage.resumed_n"] = facts["resumed_n"]
    out["apps.program_build_s"] = own.get("apps.program_build", 0.0)
    out["core.fingerprint_s"] = own.get("core.fingerprint", 0.0)
    gets = [s for s in spans if s.name == "core.store.get"]
    puts = [s for s in spans if s.name == "core.store.put"]
    out["core.store.get_s"] = own.get("core.store.get", 0.0)
    out["core.store.get_n"] = len(gets)
    out["core.store.miss_n"] = sum(1 for s in gets if not s.attrs.get("hit"))
    out["core.store.decode_s"] = own.get("core.store.decode", 0.0)
    out["core.store.put_s"] = own.get("core.store.put", 0.0)
    out["core.store.put_n"] = len(puts)
    out["core.store.put_bytes"] = sum(s.attrs.get("bytes", 0) for s in puts)
    out["core.store.encode_s"] = own.get("core.store.encode", 0.0)

    planned = facts["lanes_planned"]
    executed = counts.get("measure.lanes_executed", 0)
    measure_self = out["stage.measure.self_s"]
    out["measure.lanes_planned"] = planned
    out["measure.lanes_executed"] = executed
    out["measure.lane_yield"] = executed / planned if planned else 0.0
    out["measure.runs_per_s"] = (
        planned / measure_self if planned and measure_self > 0 else 0.0
    )
    functions = facts["functions_n"]
    out["modeling.functions_n"] = functions
    out["modeling.s_per_function"] = (
        out["stage.model.self_s"] / functions if functions else 0.0
    )

    leases = facts.get("lease_seconds", [])
    measure_spans = [s for s in spans if s.name == "stage.measure"]
    out["service.submit_s"] = own.get("service.submit", 0.0)
    out["service.poll_n"] = calls.get("service.poll", 0)
    out["service.lease_n"] = len(leases)
    out["service.lease_s.p50"] = statistics.median(leases) if leases else 0.0
    out["service.measure_wait_s"] = (
        max(0.0, sum(s.duration for s in measure_spans) - sum(leases))
        if leases
        else 0.0
    )
    out["service.store_rtt_s"] = own.get("service.store", 0.0)
    out["service.store_n"] = calls.get("service.store", 0)
    out["service.retry_n"] = counts.get("service.retry_n", 0)
    out["service.quarantine_n"] = facts.get("quarantine_n", 0)
    out["runtime.gc_s"] = counts.get("runtime.gc_s", 0.0)
    out["runtime.gc_n"] = counts.get("runtime.gc_n", 0)
    out["runtime.cpu_s"] = counts.get("runtime.cpu_s", 0.0)
    out["trace.coverage"] = 1.0 - selfs[root.id] / root.duration
    return out
