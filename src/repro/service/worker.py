"""Pool-side execution bodies for the serving layer.

These are the module-level, picklable functions the server dispatches
onto :func:`repro.parallel.get_pool` (or, for a ``--jobs 1`` server,
onto a thread).  They run the replay *raw* — no result-cache lookups
and no telemetry — because the server owns both concerns in the parent
process: it consults and populates the cache around single-flight
coalescing, and its metrics must count exactly one execution per
coalesced request group.  A worker that also memoized would double-count
lookups when executing in-process and hide executions when in a pool.

Traces arrive the same way experiment sweeps deliver them: a
:class:`repro.trace.shm.TraceHandle` published once by the server (the
worker attaches zero-copy), falling back to the per-process trace cache
on a dead or absent segment.
"""

from __future__ import annotations

import os
import time

from repro.experiments import bus as bus_experiment
from repro.experiments import common, resultcache
from repro.experiments import table2, table3
from repro.service.protocol import (
    DIRECTORY_POLICIES,
    ExperimentRequest,
    ReplaySpec,
    VerifyRequest,
    make_snooping_protocol,
)
from repro.snooping.machine import BusMachine
from repro.trace.shm import TraceHandle


def _trace(spec: ReplaySpec, handle: TraceHandle | None):
    return common.get_trace(spec.app, spec.num_procs, spec.seed,
                            spec.scale, handle=handle)


def replay_cache_parts(spec: ReplaySpec, trace_digest: str) -> tuple[str, tuple]:
    """The replay result cache ``(kind, parts)`` a spec resolves to.

    These are exactly the keys :func:`repro.experiments.common.
    run_directory` / ``run_bus`` use, so a replay served over HTTP and
    the same replay run by ``repro-experiments`` share one cache entry.
    """
    if spec.engine == "directory":
        config = common.directory_config(
            spec.cache_size, spec.block_size, spec.num_procs
        )
        policy = DIRECTORY_POLICIES[spec.policy]
        return "directory", (
            trace_digest,
            resultcache.config_digest(config),
            resultcache.policy_digest(policy),
            spec.placement,
        )
    config = common.bus_config(spec.cache_size, spec.block_size,
                               spec.num_procs)
    protocol = make_snooping_protocol(spec.policy)
    return "bus", (
        trace_digest,
        resultcache.config_digest(config),
        resultcache.protocol_digest(protocol),
    )


#: Fault/latency-injection seam: a positive value sleeps that many
#: milliseconds inside every replay execution.  Environment-keyed so it
#: crosses into spawned pool workers; used by the drain regression test
#: (a provably in-flight pool job at SIGTERM time).  Unset in
#: production: the check is one getenv.
INJECT_DELAY_ENV = "REPRO_SERVICE_INJECT_DELAY_MS"


def _inject_delay() -> None:
    delay_ms = os.environ.get(INJECT_DELAY_ENV)
    if delay_ms:
        time.sleep(float(delay_ms) / 1000.0)


def run_replay(spec_payload: dict, handle: TraceHandle | None) -> dict:
    """Execute one replay; returns the cache-codec stats payload.

    Runs the same replays as ``repro-experiments``
    (:func:`repro.experiments.common.replay_directory` and
    :meth:`BusMachine.run`), so families shipping their own machines
    replay on them here too.
    """
    _inject_delay()
    spec = ReplaySpec.from_payload(spec_payload)
    trace = _trace(spec, handle)
    if spec.engine == "directory":
        config = common.directory_config(
            spec.cache_size, spec.block_size, spec.num_procs
        )
        stats = common.replay_directory(
            trace, DIRECTORY_POLICIES[spec.policy], config, spec.placement
        )
        return resultcache.encode_message_stats(stats)
    config = common.bus_config(spec.cache_size, spec.block_size,
                               spec.num_procs)
    stats = BusMachine(config, make_snooping_protocol(spec.policy)).run(trace)
    return resultcache.encode_bus_stats(stats)


#: name -> (run, render).  Experiments execute serially inside the
#: worker (``jobs=1``): the server already fans requests out, and a
#: nested pool inside a pool worker would oversubscribe the host.
_EXPERIMENTS = {
    "table2": (table2.run, table2.render),
    "table3": (table3.run, table3.render),
    "bus": (bus_experiment.run, bus_experiment.render),
}


def run_experiment(request_payload: dict) -> dict:
    """Execute one row-level experiment; returns the rendered table."""
    request = ExperimentRequest.from_payload(request_payload)
    run, render = _EXPERIMENTS[request.name]
    rows = run(apps=request.apps, scale=request.scale, seed=request.seed,
               jobs=1)
    return {"rendered": render(rows)}


def run_verify(request_payload: dict) -> dict:
    """Execute one model-checking sweep; returns the certificate.

    BFS frontiers expand serially in the worker (``jobs=1``) for the
    same reason experiments do: the server is the fan-out layer, and
    certificates are byte-identical at any job count anyway.
    """
    from repro.verification.checker import sweep

    request = VerifyRequest.from_payload(request_payload)
    result = sweep(
        engine=request.engine,
        protocol=request.protocol,
        num_procs=request.num_procs,
        num_blocks=request.num_blocks,
        evictions=request.evictions,
        jobs=1,
    )
    return result.certificate()
