"""Client retry discipline under 429 bursts and mid-drain 503s.

Two rigs:

* A **scripted** stdlib HTTP server (thread-based, so the sync client
  can block against it) that answers a fixed status sequence — this
  pins down the exact retry contract: the server-provided
  ``Retry-After`` is honoured, attempts are bounded, 503 is terminal
  unless ``retry_draining`` is set, and the attempt count equals the
  request count (a shed or refused attempt is never silently doubled).
* A **real** in-process :class:`CoherenceService`, which proves the
  end-to-end property the scripted rig cannot: a 429'd attempt
  executes nothing, so retry-until-success costs exactly one pool
  execution.
"""

import asyncio
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.service import worker
from repro.service.client import (
    AsyncServiceClient,
    Backpressure,
    Draining,
    ServiceClient,
    metric_value,
)
from repro.service.server import CoherenceService, ServiceConfig

SCALE = 0.02

SPEC = {"engine": "directory", "app": "water", "policy": "basic",
        "cache_size": 64 * 1024, "scale": SCALE}

OK_PAYLOAD = {"type": "replay", "cached": False, "coalesced": False,
              "result": {"short": 1, "data": 1}}


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers ``server.script`` steps in order; the last step repeats."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        script = self.server.script
        step = script.pop(0) if len(script) > 1 else script[0]
        status, retry_after, payload = step
        self.server.requests.append(status)
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # quiet
        pass


@pytest.fixture
def scripted():
    """A scripted server factory; yields ``start(script) -> server``."""
    servers = []

    def start(script):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
        server.script = list(script)
        server.requests = []
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


SHED = (429, "0.05", {"type": "error", "error": "queue full"})
DRAIN = (503, None, {"type": "error", "error": "draining"})
OK = (200, None, OK_PAYLOAD)


class TestScriptedSync:
    def test_429_retries_until_success(self, scripted):
        server = scripted([SHED, SHED, OK])
        client = ServiceClient("127.0.0.1", server.server_address[1])
        response = client.replay_with_retry(**SPEC)
        assert response["result"] == OK_PAYLOAD["result"]
        assert server.requests == [429, 429, 200]

    def test_429_honours_server_retry_after(self, scripted, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        server = scripted([(429, "0.25", SHED[2]), OK])
        client = ServiceClient("127.0.0.1", server.server_address[1])
        client.replay_with_retry(**SPEC)
        assert slept == [0.25]

    def test_429_attempts_are_bounded(self, scripted, monkeypatch):
        monkeypatch.setattr(time, "sleep", lambda _s: None)
        server = scripted([SHED])
        client = ServiceClient("127.0.0.1", server.server_address[1])
        with pytest.raises(Backpressure) as excinfo:
            client.replay_with_retry(attempts=3, **SPEC)
        assert excinfo.value.retry_after == 0.05
        # Exactly ``attempts`` requests hit the wire — no hidden extras.
        assert server.requests == [429, 429, 429]

    def test_503_is_terminal_by_default(self, scripted):
        server = scripted([DRAIN, OK])
        client = ServiceClient("127.0.0.1", server.server_address[1])
        with pytest.raises(Draining):
            client.replay_with_retry(**SPEC)
        assert server.requests == [503]  # one attempt, no retry

    def test_503_retried_when_opted_in(self, scripted):
        server = scripted([DRAIN, DRAIN, OK])
        client = ServiceClient("127.0.0.1", server.server_address[1])
        response = client.replay_with_retry(
            retry_draining=True, drain_backoff=0.01, **SPEC
        )
        assert response["result"] == OK_PAYLOAD["result"]
        assert server.requests == [503, 503, 200]

    def test_503_retries_are_bounded(self, scripted):
        server = scripted([DRAIN])
        client = ServiceClient("127.0.0.1", server.server_address[1])
        with pytest.raises(Draining):
            client.replay_with_retry(attempts=3, retry_draining=True,
                                     drain_backoff=0.01, **SPEC)
        assert server.requests == [503, 503, 503]


class TestScriptedAsync:
    def _run(self, server, **retry_kwargs):
        async def main():
            client = AsyncServiceClient("127.0.0.1",
                                        server.server_address[1])
            return await client.replay_with_retry(**retry_kwargs, **SPEC)

        return asyncio.run(main())

    def test_429_retries_until_success(self, scripted):
        server = scripted([SHED, OK])
        response = self._run(server)
        assert response["result"] == OK_PAYLOAD["result"]
        assert server.requests == [429, 200]

    def test_429_waits_at_least_retry_after(self, scripted):
        server = scripted([(429, "0.2", SHED[2]), OK])
        started = time.perf_counter()
        self._run(server)
        assert time.perf_counter() - started >= 0.2

    def test_429_attempts_are_bounded(self, scripted):
        server = scripted([SHED])
        with pytest.raises(Backpressure):
            self._run(server, attempts=2)
        assert server.requests == [429, 429]

    def test_503_terminal_by_default_retried_on_opt_in(self, scripted):
        server = scripted([DRAIN, OK])
        with pytest.raises(Draining):
            self._run(server)
        assert server.requests == [503]
        server.script = [DRAIN, OK]
        server.requests.clear()
        response = self._run(server, retry_draining=True,
                             drain_backoff=0.01)
        assert response["result"] == OK_PAYLOAD["result"]
        assert server.requests == [503, 200]


class TestRealServer:
    """The property the scripted rig cannot prove: shed attempts never
    execute, so a retried request costs exactly one execution."""

    @pytest.fixture(autouse=True)
    def _private_cache(self, tmp_path, monkeypatch):
        from repro.experiments import resultcache

        monkeypatch.setenv("REPRO_RESULT_CACHE",
                           str(tmp_path / "results"))
        resultcache.clear_memory()
        yield
        resultcache.clear_memory()

    def test_retry_after_429_executes_once(self, monkeypatch):
        def slow_replay(spec_payload, handle):
            time.sleep(0.4)
            return {"short": 1, "data": 1, "by_cause_short": {},
                    "by_cause_data": {}}

        monkeypatch.setattr(worker, "run_replay", slow_replay)

        async def main():
            service = CoherenceService(ServiceConfig(port=0, jobs=1,
                                                     max_queue=1))
            await service.start()
            client = AsyncServiceClient("127.0.0.1", service.port)
            try:
                # Fill the only admission slot, then retry into it.
                blocker = asyncio.ensure_future(client.replay(**SPEC))
                await asyncio.sleep(0.1)
                retried = await client.replay_with_retry(
                    **{**SPEC, "policy": "aggressive"}
                )
                await blocker
                samples = await client.metrics()
                shed = metric_value(samples,
                                    "repro_service_requests_total",
                                    endpoint="/v1/replay", status="429")
                executions = metric_value(
                    samples, "repro_service_executions_total",
                    kind="directory",
                )
                return retried, shed, executions
            finally:
                await service.drain()

        retried, shed, executions = asyncio.run(main())
        assert retried["result"]["short"] == 1
        assert shed >= 1            # the first attempt really was shed
        assert executions == 2      # blocker + one retried execution
