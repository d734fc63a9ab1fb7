"""The asyncio HTTP/JSON coherence-simulation server.

One :class:`CoherenceService` owns four pieces of machinery:

* **Admission control** — at most ``max_queue`` requests are in flight
  at once; the next one is answered ``429 Too Many Requests`` with a
  ``Retry-After`` header instead of being buffered without bound.  Load
  sheds at the front door, where it is cheap.
* **Single-flight coalescing** — concurrent identical requests (same
  replay result-cache key: trace digest + config/policy behavioural
  digests) share one execution.  The first request becomes the leader
  and runs the replay; followers await the leader's future.  A thundering
  herd of N identical requests costs exactly one pool execution and one
  cache miss, which is how the load generator verifies the property from
  the outside (``repro_result_cache_requests_total``).
* **Cache integration** — served replays consult and populate the same
  content-addressed result cache the batch CLIs use
  (:mod:`repro.experiments.resultcache`), so a table cell computed by
  ``repro-experiments`` is a cache hit over HTTP and vice versa.
* **Execution dispatch** — replays run on the session process pool
  (:func:`repro.parallel.get_pool`, every worker started with the
  server) when the server is configured with more than one worker,
  with traces published once into the shared-memory arena
  (:mod:`repro.trace.shm`) so pool workers attach zero-copy; a
  single-worker server executes on a thread instead, which keeps tests
  and small deployments free of spawn cost.

``GET /healthz`` and ``GET /metrics`` are never admission-controlled;
metrics render the server's telemetry registry in Prometheus text
format.  On SIGTERM/SIGINT (wired by ``repro-serve``) the server stops
accepting connections, finishes every admitted request, then exits —
the graceful-drain contract the load generator exercises.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from concurrent.futures.process import BrokenProcessPool

from repro.experiments import common, resultcache
from repro.parallel import effective_workers, get_pool, shutdown_pool
from repro.service import protocol, worker
from repro.service.protocol import (
    CompareRequest,
    ExperimentRequest,
    ReplaySpec,
    ServiceError,
    VerifyRequest,
)
from repro.snooping.costmodels import model1_cost
from repro.telemetry import runtime as telemetry
from repro.trace import shm

#: Metric families the server maintains (all in its telemetry registry).
REQUESTS_METRIC = "repro_service_requests_total"
QUEUE_DEPTH_METRIC = "repro_service_queue_depth"
SINGLEFLIGHT_METRIC = "repro_service_singleflight_total"
EXECUTIONS_METRIC = "repro_service_executions_total"

#: Upper bound on request bodies; service requests are a few hundred
#: bytes, so anything near this is a client bug, not a workload.
MAX_BODY_BYTES = 1 << 20

#: Seconds a 429'd client is told to wait before retrying.
RETRY_AFTER_SECONDS = 1

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

_DECODERS = {
    "directory": resultcache.decode_message_stats,
    "bus": resultcache.decode_bus_stats,
}


@dataclass(frozen=True, slots=True)
class ServiceConfig:
    """Knobs for one server instance.

    Attributes:
        host: bind address.
        port: bind port (0 = ephemeral; read the bound port back from
            :attr:`CoherenceService.port`).
        max_queue: admitted-request bound; the N+1st concurrent request
            is answered 429.
        jobs: replay workers (resolved like ``--jobs`` everywhere else:
            ``None`` = ``REPRO_JOBS`` or 1, 0 = all CPUs).  1 executes
            on a thread; >1 dispatches onto the session process pool.
        telemetry_dir: when set, the telemetry session dumps
            ``metrics.prom`` (and streams events) there on drain.
    """

    host: str = "127.0.0.1"
    port: int = 8077
    max_queue: int = 64
    jobs: int | None = None
    telemetry_dir: str | Path | None = None


class CoherenceService:
    """The serving state machine (see module docstring)."""

    def __init__(self, config: ServiceConfig,
                 session: telemetry.TelemetrySession | None = None):
        self.config = config
        # A huge item count: the clamp logic should only consider CPUs.
        self.workers = effective_workers(config.jobs, 1 << 30)
        self._session = session
        self._owns_session = session is None
        self._previous_session: telemetry.TelemetrySession | None = None
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._started_at = 0.0
        self._admitted = 0
        self._served = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._inflight: dict[str, asyncio.Future] = {}
        self._trace_locks: dict[tuple, asyncio.Lock] = {}
        self._traces: dict[tuple, tuple[str, shm.TraceHandle | None]] = {}
        self._connections: set[asyncio.StreamWriter] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def registry(self):
        """The server's metrics registry (the /metrics source)."""
        return self._session.registry

    @property
    def served(self) -> int:
        """Requests answered 200 so far."""
        return self._served

    async def start(self) -> None:
        """Start every pool worker, bind the listening socket and install
        the telemetry session."""
        if self.workers > 1:
            # A new pool starts every worker: do it before accepting.
            await asyncio.get_running_loop().run_in_executor(
                None, get_pool, self.workers
            )
        if self._session is None:
            # instrument_machines=False: the server wants request-level
            # observability, not per-step machine events — and an
            # instrumenting session would disable the result cache.
            self._session = telemetry.TelemetrySession(
                self.config.telemetry_dir, instrument_machines=False
            )
        self._previous_session = telemetry.configure(self._session)
        self._started_at = time.time()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    async def serve_until(self, stop: asyncio.Event) -> None:
        """Serve until ``stop`` is set, then drain gracefully."""
        if self._server is None:
            await self.start()
        await stop.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, finish every admitted request, close down.

        Idempotent.  The drain order is the graceful-shutdown contract:
        the listening socket closes first (new connections are refused),
        admitted requests run to completion and get their responses,
        then idle keep-alive connections are closed and the telemetry
        session is flushed.
        """
        if self._draining:
            await self._idle.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        if self.workers > 1:
            # Graceful pool teardown *after* the last admitted request:
            # a job still executing in a worker (a straggler the loop
            # is no longer awaiting, or work submitted moments before
            # SIGTERM) finishes rather than being cancelled by the
            # atexit hook's non-waiting shutdown, and the worker
            # processes are reaped before the server exits — no
            # orphans outlive it.  Runs on a thread:
            # Executor.shutdown(wait=True) blocks on worker exit and
            # must not stall the event loop mid-drain.
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: shutdown_pool(wait=True)
            )
        for writer in list(self._connections):
            writer.close()
        self._connections.clear()
        telemetry.configure(self._previous_session)
        if self._owns_session and self._session is not None:
            self._session.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except ServiceError as exc:
                    body = json.dumps(
                        protocol.error_response(str(exc))
                    ).encode()
                    await _write_response(writer, 400, body,
                                          "application/json",
                                          keep_alive=False)
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive or self._draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: tuple, writer) -> bool:
        """Route one parsed request; returns whether to keep the
        connection alive."""
        method, path, headers, body = request
        keep_alive = headers.get("connection", "").lower() != "close"
        if path == "/healthz":
            if method != "GET":
                return await self._respond_error(writer, path, 405,
                                                 "use GET", keep_alive)
            await self._respond_json(writer, path, 200, self._health(),
                                     keep_alive and not self._draining)
            return keep_alive and not self._draining
        if path == "/metrics":
            if method != "GET":
                return await self._respond_error(writer, path, 405,
                                                 "use GET", keep_alive)
            text = self.registry.render_prometheus()
            await _write_response(writer, 200, text.encode(),
                                  "text/plain; version=0.0.4",
                                  keep_alive=keep_alive)
            self._count_request(path, 200)
            return keep_alive
        if path in ("/v1/replay", "/v1/compare", "/v1/experiment",
                    "/v1/verify"):
            if method != "POST":
                return await self._respond_error(writer, path, 405,
                                                 "use POST", keep_alive)
            return await self._serve_query(path, body, writer, keep_alive)
        return await self._respond_error(writer, path, 404,
                                         f"no such endpoint: {path}",
                                         keep_alive)

    async def _serve_query(self, path: str, body: bytes, writer,
                           keep_alive: bool) -> bool:
        if self._draining:
            return await self._respond_error(
                writer, path, 503, "server is draining", keep_alive=False
            )
        if self._admitted >= self.config.max_queue:
            # Backpressure: shed at admission rather than queueing
            # without bound.  The client is told when to come back.
            return await self._respond_error(
                writer, path, 429,
                f"admission queue full ({self.config.max_queue} in "
                "flight); retry later",
                keep_alive,
                extra_headers=(f"Retry-After: {RETRY_AFTER_SECONDS}",),
            )
        self._admitted += 1
        self._idle.clear()
        self._gauge_depth()
        try:
            payload = _parse_json(body)
            with telemetry.span("service.request", endpoint=path):
                response = await self._answer(path, payload)
        except ServiceError as exc:
            return await self._respond_error(writer, path, 400, str(exc),
                                             keep_alive)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return await self._respond_error(
                writer, path, 500, "internal error (see server log)",
                keep_alive,
            )
        else:
            await self._respond_json(writer, path, 200, response,
                                     keep_alive)
            self._served += 1
            return keep_alive
        finally:
            self._admitted -= 1
            self._gauge_depth()
            if self._admitted == 0:
                self._idle.set()

    async def _answer(self, path: str, payload: dict) -> dict:
        if path == "/v1/replay":
            return await self._serve_replay(
                protocol.parse_replay_request(payload)
            )
        if path == "/v1/compare":
            return await self._serve_compare(
                CompareRequest.from_payload(payload)
            )
        if path == "/v1/verify":
            return await self._serve_verify(
                VerifyRequest.from_payload(payload)
            )
        return await self._serve_experiment(
            ExperimentRequest.from_payload(payload)
        )

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------

    async def _serve_replay(self, spec: ReplaySpec) -> dict:
        started = perf_counter()
        payload, cached, coalesced = await self._replay_payload(spec)
        return protocol.replay_response(
            spec, payload, cached, coalesced,
            (perf_counter() - started) * 1000.0,
        )

    async def _replay_payload(self, spec: ReplaySpec) -> tuple[dict, bool, bool]:
        digest, handle = await self._trace_for(spec)
        kind, parts = worker.replay_cache_parts(spec, digest)
        key = resultcache.result_key(kind, parts)
        decoder = _DECODERS[kind]

        def decodable(candidate) -> bool:
            try:
                decoder(candidate)
            except Exception:
                return False
            return True

        span_meta = {"kind": kind, "app": spec.app, "policy": spec.policy}
        return await self._cached_execute(
            kind, key, worker.run_replay, (spec.to_payload(), handle),
            decodable, span_meta,
        )

    async def _serve_compare(self, request: CompareRequest) -> dict:
        started = perf_counter()
        specs = request.replay_specs()
        outcomes = await asyncio.gather(
            *(self._replay_payload(spec) for spec in specs)
        )
        results = {spec.policy: payload
                   for spec, (payload, _, _) in zip(specs, outcomes)}
        totals = {
            name: _result_total(request.spec.engine, payload)
            for name, payload in results.items()
        }
        return protocol.compare_response(
            request, results, totals, (perf_counter() - started) * 1000.0
        )

    async def _serve_experiment(self, request: ExperimentRequest) -> dict:
        started = perf_counter()
        kind = "service-experiment"
        key = resultcache.result_key(
            kind, (request.name, request.scale, request.seed, *request.apps)
        )

        def decodable(candidate) -> bool:
            return (isinstance(candidate, dict)
                    and isinstance(candidate.get("rendered"), str))

        payload, cached, coalesced = await self._cached_execute(
            kind, key, worker.run_experiment, (request.to_payload(),),
            decodable, {"experiment": request.name},
        )
        return protocol.experiment_response(
            request, payload["rendered"], cached, coalesced,
            (perf_counter() - started) * 1000.0,
        )

    async def _serve_verify(self, request: VerifyRequest) -> dict:
        started = perf_counter()
        kind = "service-verify"
        key = resultcache.result_key(kind, request.cache_parts())

        def decodable(candidate) -> bool:
            return (isinstance(candidate, dict)
                    and candidate.get("kind") == "repro-verify-certificate"
                    and isinstance(candidate.get("combos"), list))

        payload, cached, coalesced = await self._cached_execute(
            kind, key, worker.run_verify, (request.to_payload(),),
            decodable, {"engine": request.engine},
        )
        return protocol.verify_response(
            request, payload, cached, coalesced,
            (perf_counter() - started) * 1000.0,
        )

    async def _cached_execute(self, kind: str, key: str, fn, args: tuple,
                              decodable, span_meta: dict
                              ) -> tuple[dict, bool, bool]:
        """Cache lookup -> single-flight -> pool execution -> store.

        Returns ``(payload, cached, coalesced)``.  Exactly one of the
        coalesced group executes ``fn(*args)`` (a module-level worker
        body with picklable arguments — it may cross into a pool
        process); pure cache hits never register as leaders.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self._count_singleflight("follower")
            return await existing, False, True

        use_cache = resultcache.enabled()
        if use_cache:
            payload = resultcache.fetch(key)
            if payload is not None and decodable(payload):
                resultcache.record_lookup(kind, "hit")
                return payload, True, False
            resultcache.record_lookup(kind, "miss")

        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self._count_singleflight("leader")
        try:
            with telemetry.span("service.execute", **span_meta):
                payload = await self._execute(fn, *args)
            self.registry.counter(
                EXECUTIONS_METRIC, "replays/experiments actually executed"
            ).inc(kind=kind)
            if use_cache:
                resultcache.store(key, payload)
                resultcache.record_store()
        except BaseException as exc:
            future.set_exception(exc)
            future.exception()  # mark retrieved; followers still read it
            raise
        else:
            future.set_result(payload)
            return payload, False, False
        finally:
            self._inflight.pop(key, None)

    async def _execute(self, fn, *args):
        """Run ``fn(*args)`` off the event loop: on the session process
        pool for a multi-worker server, on a thread otherwise."""
        loop = asyncio.get_running_loop()
        if self.workers > 1:
            pool = get_pool(self.workers)
            try:
                return await loop.run_in_executor(pool, fn, *args)
            except BrokenProcessPool:
                # A worker died hard; dispose of the executor so the
                # next request starts from a clean pool.
                shutdown_pool()
                raise ServiceError(
                    "worker pool broken during execution; retry"
                ) from None
        return await loop.run_in_executor(None, fn, *args)

    async def _trace_for(self, spec: ReplaySpec
                         ) -> tuple[str, shm.TraceHandle | None]:
        """Build (once) and publish (pool mode) the spec's trace.

        Returns the trace digest — the cache-key component — and the
        shared-memory handle pool workers attach to (``None`` on the
        thread path or when publication fell back).
        """
        key = spec.trace_key
        ready = self._traces.get(key)
        if ready is not None:
            return ready
        lock = self._trace_locks.setdefault(key, asyncio.Lock())
        async with lock:
            ready = self._traces.get(key)
            if ready is not None:
                return ready
            loop = asyncio.get_running_loop()
            with telemetry.span("service.trace", app=spec.app):
                trace = await loop.run_in_executor(
                    None, common.get_trace, spec.app, spec.num_procs,
                    spec.seed, spec.scale,
                )
                digest = await loop.run_in_executor(
                    None, lambda: trace.pack().digest()
                )
            handle = None
            if self.workers > 1:
                # Publish once; every pool worker attaches zero-copy.
                # None (no shared memory on this platform) is fine —
                # workers fall back to their own trace caches.
                handle = shm.default_arena().publish(key, trace.pack())
            ready = (digest, handle)
            self._traces[key] = ready
            return ready

    # ------------------------------------------------------------------
    # Introspection and metrics plumbing
    # ------------------------------------------------------------------

    def _health(self) -> dict:
        from repro.common.version import package_version

        return {
            "status": "draining" if self._draining else "ok",
            "version": package_version(),
            "protocol_version": protocol.PROTOCOL_VERSION,
            "queue_depth": self._admitted,
            "max_queue": self.config.max_queue,
            "workers": self.workers,
            "served": self._served,
            "uptime_s": round(time.time() - self._started_at, 3),
        }

    def _count_request(self, endpoint: str, status: int) -> None:
        self.registry.counter(
            REQUESTS_METRIC, "service requests by endpoint and status"
        ).inc(endpoint=endpoint, status=status)

    def _count_singleflight(self, role: str) -> None:
        self.registry.counter(
            SINGLEFLIGHT_METRIC,
            "request coalescing (leaders execute, followers wait)",
        ).inc(role=role)

    def _gauge_depth(self) -> None:
        self.registry.gauge(
            QUEUE_DEPTH_METRIC, "requests currently admitted"
        ).set(self._admitted)

    async def _respond_json(self, writer, endpoint: str, status: int,
                            payload: dict, keep_alive: bool) -> None:
        body = json.dumps(payload, separators=(",", ":")).encode()
        await _write_response(writer, status, body, "application/json",
                              keep_alive=keep_alive)
        self._count_request(endpoint, status)

    async def _respond_error(self, writer, endpoint: str, status: int,
                             message: str, keep_alive: bool,
                             extra_headers: tuple[str, ...] = ()) -> bool:
        body = json.dumps(protocol.error_response(message)).encode()
        keep = keep_alive and status not in (503,)
        await _write_response(writer, status, body, "application/json",
                              keep_alive=keep,
                              extra_headers=extra_headers)
        self._count_request(endpoint, status)
        return keep


# ----------------------------------------------------------------------
# Minimal HTTP/1.1 framing (stdlib-only; the service speaks exactly the
# subset its clients emit: one request, headers, optional JSON body)
# ----------------------------------------------------------------------

async def _read_request(reader: asyncio.StreamReader
                        ) -> tuple[str, str, dict, bytes] | None:
    """Read one request; None on a cleanly closed connection."""
    try:
        request_line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not request_line or request_line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, _version = request_line.decode("latin1").split()
    except ValueError:
        raise ServiceError("malformed request line") from None
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0) or 0)
    if length > MAX_BODY_BYTES:
        raise ServiceError(f"request body over {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    path = target.split("?", 1)[0]
    return method.upper(), path, headers, body


async def _write_response(writer: asyncio.StreamWriter, status: int,
                          body: bytes, content_type: str,
                          keep_alive: bool = True,
                          extra_headers: tuple[str, ...] = ()) -> None:
    head = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
        *extra_headers,
    ]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin1") + body)
    try:
        await writer.drain()
    except (ConnectionError, OSError):
        pass  # client disconnected before the response landed


def _parse_json(body: bytes) -> dict:
    if not body:
        raise ServiceError("empty request body (expected JSON)")
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise ServiceError(f"invalid JSON body: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServiceError("request body must be a JSON object")
    return payload


def _result_total(engine: str, payload: dict) -> int:
    """The scalar cost a compare request ranks policies by."""
    if engine == "directory":
        stats = resultcache.decode_message_stats(payload)
        return stats.total
    return model1_cost(resultcache.decode_bus_stats(payload))


async def serve(config: ServiceConfig, *, ready=None,
                stop: asyncio.Event | None = None) -> CoherenceService:
    """Start a service, optionally report readiness, serve until
    ``stop`` (required), drain, and return the drained service."""
    service = CoherenceService(config)
    await service.start()
    if ready is not None:
        ready(service)
    assert stop is not None, "serve() needs a stop event"
    await service.serve_until(stop)
    return service
