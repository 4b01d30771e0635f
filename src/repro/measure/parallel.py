"""Workload specs and run-cache keys shared by every measure path.

The paper's measurement campaigns are embarrassingly parallel: every
configuration of the design is an independent profiled run (benchbuild
structures its experiments the same way — independent, cacheable jobs
fanned out over workers).  The one local runner,
:class:`~repro.measure.batched.BatchedExperimentRunner`, shards a design
over a process pool, and the campaign-service broker leases it out to
workers; this module holds what both need to agree on.

Workers do not unpickle live :class:`~repro.measure.experiment.Workload`
objects (those may hold caches, runtimes, and other process-local state);
they rebuild the workload from a :class:`WorkloadSpec` — a picklable
(factory, args, kwargs) triple — and memoize the built workload per
process (:func:`_workload_for`) so the program is constructed once per
worker, not once per chunk.

:func:`configuration_fingerprint` keys the on-disk
:class:`~repro.measure.io.RunCache` and the service's shared run store,
so a configuration measured with identical inputs (program content,
configuration, instrumentation plan, execution config, noise model,
seed, engine, ...) is measured once, by whichever path gets there first.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..mpisim.contention import ContentionModel
from .experiment import RunSetup, Workload
from .instrumentation import InstrumentationPlan
from .io import run_fingerprint
from .noise import NoiseModel


@dataclass(frozen=True)
class WorkloadSpec:
    """A picklable recipe for building a workload in another process.

    ``factory`` must be importable by reference (a module-level class or
    function); ``args``/``kwargs`` are its picklable arguments.  Workload
    classes expose a :meth:`spec` method returning one of these; any
    other picklable workload object can ride along via :func:`spec_of`.
    """

    factory: Callable[..., Workload]
    args: tuple = ()
    kwargs: Mapping[str, object] = field(default_factory=dict)

    def build(self) -> Workload:
        """Construct a fresh workload instance."""
        return self.factory(*self.args, **dict(self.kwargs))


def workload_repr(workload: Workload) -> str:
    """Fingerprint of workload identity beyond the program content.

    Non-modeled defaults, the network model, and the execution config all
    change what ``setup()`` derives from the same configuration point, so
    they must participate in cache keys — both the per-configuration run
    cache here and the stage-artifact fingerprints of
    :mod:`repro.core.stages`.
    """
    parts = [
        f"name={getattr(workload, 'name', type(workload).__name__)}",
        f"parameters={tuple(workload.parameters)}",
    ]
    defaults = getattr(workload, "defaults", None)
    if defaults is not None:
        parts.append(f"defaults={sorted(defaults.items())}")
    for attr in ("network", "exec_config"):
        value = getattr(workload, attr, None)
        if value is not None:
            parts.append(f"{attr}={value!r}")
    return ";".join(parts)


def configuration_fingerprint(
    program_digest: str,
    config: Mapping[str, float],
    setup: RunSetup,
    plan: InstrumentationPlan,
    noise: NoiseModel,
    contention: ContentionModel,
    repetitions: int,
    seed: int,
    workload_repr: str,
    engine: str,
) -> str:
    """Run-cache key of one configuration, shared by every scheduler.

    The setup carries everything the workload derives from the
    configuration point (entry args, exec config, runtime/network
    parameters) — fingerprint the derived state, not just the point.
    The local runner and the campaign-service broker both key their
    caches with this function, so a configuration measured by either is
    a hit for both.
    """
    exec_repr = ";".join(
        [
            f"args={sorted(setup.args.items())}",
            f"ranks_per_node={setup.ranks_per_node}",
            f"exec={setup.exec_config!r}",
            f"runtime={getattr(setup.runtime, 'config', None)!r}",
            f"entry={setup.entry!r}",
        ]
    )
    return run_fingerprint(
        program_digest,
        config,
        plan,
        exec_repr=exec_repr,
        noise_repr=repr(noise),
        contention_repr=repr(contention),
        repetitions=repetitions,
        seed=seed,
        workload_repr=workload_repr,
        engine=engine,
    )


def _identity_workload(workload: Workload) -> Workload:
    return workload


def spec_of(workload: Workload) -> WorkloadSpec:
    """The workload's own spec when it has one, else a pickling fallback.

    The fallback ships the workload object itself (it must then be
    picklable); workloads with a ``spec()`` method are preferred because
    rebuilding from a factory avoids serializing cached programs.
    """
    spec = getattr(workload, "spec", None)
    if callable(spec):
        return spec()
    return WorkloadSpec(factory=_identity_workload, args=(workload,))


# ----------------------------------------------------------------------
# worker side

#: Per-process memo of built workloads, keyed by the pickled spec: each
#: worker constructs the program once and reuses it for every
#: configuration it is handed.
_WORKER_WORKLOADS: dict[bytes, Workload] = {}


def _workload_for(spec_blob: bytes) -> Workload:
    workload = _WORKER_WORKLOADS.get(spec_blob)
    if workload is None:
        workload = pickle.loads(spec_blob).build()
        _WORKER_WORKLOADS[spec_blob] = workload
    return workload


@dataclass
class RunStats:
    """Where the results of the last run came from."""

    executed: int = 0
    cached: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.cached
