"""Sync and async clients for the serving layer.

:class:`ServiceClient` is the blocking client (``http.client``, one
keep-alive connection) for scripts and notebooks; :class:`
AsyncServiceClient` issues each request over a fresh asyncio connection
and is what the load generator and the server tests drive concurrency
with.  Both speak the versioned JSON protocol of
:mod:`repro.service.protocol` and normalise the server's backpressure
answer into :class:`Backpressure` (carrying ``retry_after``) so callers
can implement retry loops without parsing headers.

The module is also a tiny CLI (``python -m repro.service.client``) used
by the CI smoke: ``wait`` polls ``/healthz`` until the server is up,
``replay``/``compare``/``experiment``/``verify`` issue one request and
print the JSON response, ``metrics`` dumps the Prometheus text.
"""

from __future__ import annotations

import argparse
import asyncio
import http.client
import json
import sys
import time

from repro.common.errors import ReproError
from repro.service.protocol import PROTOCOL_VERSION

#: Default client-side timeout (seconds) for one request.
DEFAULT_TIMEOUT = 60.0


class ServiceError(ReproError):
    """The server answered with an error status."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class Backpressure(ServiceError):
    """The server shed this request (429); retry after ``retry_after``."""

    def __init__(self, message: str, retry_after: float):
        super().__init__(429, message)
        self.retry_after = retry_after


class Draining(ServiceError):
    """The server is draining (503) and will not take new work."""

    def __init__(self, message: str):
        super().__init__(503, message)


def _raise_for_status(status: int, headers: dict, payload) -> None:
    if status == 200:
        return
    message = (payload or {}).get("error", "") if isinstance(payload, dict) \
        else str(payload)
    if status == 429:
        raise Backpressure(message,
                           float(headers.get("retry-after", 1) or 1))
    if status == 503:
        raise Draining(message)
    raise ServiceError(status, message)


# Each endpoint's request as ``(method, path, body)``, shared by both
# transports.

def _healthz() -> tuple:
    return "GET", "/healthz", None


def _metrics() -> tuple:
    return "GET", "/metrics", None


def _replay(spec: dict) -> tuple:
    return "POST", "/v1/replay", {"v": PROTOCOL_VERSION, "spec": spec}


def _compare(policies, spec: dict) -> tuple:
    return "POST", "/v1/compare", {"v": PROTOCOL_VERSION, "spec": spec,
                                   "policies": list(policies)}


def _experiment(name: str, kwargs: dict) -> tuple:
    return "POST", "/v1/experiment", {"v": PROTOCOL_VERSION, "name": name,
                                      **kwargs}


def _verify(request: dict) -> tuple:
    return "POST", "/v1/verify", {"v": PROTOCOL_VERSION, **request}


def _retry_delay(exc: ServiceError, last: bool, retry_draining: bool,
                 drain_backoff: float) -> float | None:
    """Seconds to wait before retrying after ``exc``; ``None`` re-raises.

    A 429 (:class:`Backpressure`) waits the server-provided
    ``Retry-After``; a 503 (:class:`Draining`) waits ``drain_backoff``
    only when ``retry_draining`` is set, since a server that answers 503
    is draining and usually going away.  The last attempt's error
    propagates either way, so retries are bounded.
    """
    if last:
        return None
    if isinstance(exc, Backpressure):
        return exc.retry_after
    return drain_backoff if retry_draining else None


def parse_metrics_text(text: str) -> dict[tuple, float]:
    """Parse Prometheus text into ``{(name, ((label, value), ...)): v}``.

    Just enough of the exposition format for the load generator and the
    CI smoke to assert on counters the server renders.
    """
    samples: dict[tuple, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        name, labels = name_part, ()
        if "{" in name_part:
            name, _, label_body = name_part.partition("{")
            label_body = label_body.rstrip("}")
            pairs = []
            for item in label_body.split(","):
                if not item:
                    continue
                label, _, raw = item.partition("=")
                pairs.append((label, raw.strip('"')))
            labels = tuple(sorted(pairs))
        try:
            samples[(name, labels)] = float(value_part)
        except ValueError:
            continue
    return samples


def metric_value(samples: dict[tuple, float], name: str,
                 **labels) -> float:
    """Sum every sample of ``name`` whose labels include ``labels``."""
    want = set((k, str(v)) for k, v in labels.items())
    return sum(value for (sample_name, sample_labels), value
               in samples.items()
               if sample_name == name and want <= set(sample_labels))


class ServiceClient:
    """Blocking client over one keep-alive connection."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8077,
                 timeout: float = DEFAULT_TIMEOUT):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, method: str, path: str, payload: dict | None = None
                ) -> tuple[int, dict, object]:
        """One request; returns ``(status, headers, decoded body)``."""
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        try:
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (ConnectionError, http.client.HTTPException, OSError):
            # A dropped keep-alive connection (server restarted, drain
            # closed it) gets one reconnect attempt.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        response_headers = {k.lower(): v for k, v in response.getheaders()}
        if response_headers.get("connection", "").lower() == "close":
            self.close()
        content_type = response_headers.get("content-type", "")
        decoded: object = raw.decode("utf-8", "replace")
        if content_type.startswith("application/json"):
            decoded = json.loads(raw) if raw else {}
        return response.status, response_headers, decoded

    # ------------------------------------------------------------------

    def _call(self, method: str, path: str, body: dict | None):
        status, headers, payload = self.request(method, path, body)
        _raise_for_status(status, headers, payload)
        return payload

    def healthz(self) -> dict:
        return self._call(*_healthz())

    def metrics_text(self) -> str:
        return self._call(*_metrics())

    def metrics(self) -> dict[tuple, float]:
        return parse_metrics_text(self.metrics_text())

    def replay(self, **spec) -> dict:
        return self._call(*_replay(spec))

    def compare(self, policies=(), **spec) -> dict:
        return self._call(*_compare(policies, spec))

    def experiment(self, name: str, **kwargs) -> dict:
        return self._call(*_experiment(name, kwargs))

    def verify(self, **request) -> dict:
        return self._call(*_verify(request))

    def replay_with_retry(self, attempts: int = 5,
                          retry_draining: bool = False,
                          drain_backoff: float = 0.1, **spec) -> dict:
        """Replay with bounded retries on 429 (and, opted in, 503)."""
        for attempt in range(attempts):
            try:
                return self.replay(**spec)
            except (Backpressure, Draining) as exc:
                delay = _retry_delay(exc, attempt == attempts - 1,
                                     retry_draining, drain_backoff)
                if delay is None:
                    raise
                time.sleep(delay)
        raise AssertionError("unreachable")

    def wait_ready(self, timeout: float = 30.0,
                   interval: float = 0.1) -> dict:
        """Poll ``/healthz`` until the server answers (or raise)."""
        deadline = time.monotonic() + timeout
        last_error: Exception | None = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except (OSError, http.client.HTTPException,
                    ServiceError) as exc:
                last_error = exc
                self.close()
                time.sleep(interval)
        raise TimeoutError(
            f"server at {self.host}:{self.port} not ready after "
            f"{timeout}s: {last_error}"
        )


class AsyncServiceClient:
    """Async client; one fresh connection per request.

    Per-request connections keep concurrent fan-out trivially safe (no
    connection pool to serialise on), which is exactly what the
    single-flight and backpressure phases of the load generator need.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8077,
                 timeout: float = DEFAULT_TIMEOUT):
        self.host = host
        self.port = port
        self.timeout = timeout

    async def request(self, method: str, path: str,
                      payload: dict | None = None
                      ) -> tuple[int, dict, object]:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode()
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            "Connection: close",
            f"Content-Length: {len(body)}",
        ]
        if payload is not None:
            head.append("Content-Type: application/json")
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
            await writer.drain()
            raw = await asyncio.wait_for(reader.read(), self.timeout)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        header_blob, _, rest = raw.partition(b"\r\n\r\n")
        lines = header_blob.decode("latin1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        decoded: object = rest.decode("utf-8", "replace")
        if headers.get("content-type", "").startswith("application/json"):
            decoded = json.loads(rest) if rest else {}
        return status, headers, decoded

    async def _call(self, method: str, path: str, body: dict | None):
        status, headers, payload = await self.request(method, path, body)
        _raise_for_status(status, headers, payload)
        return payload

    async def healthz(self) -> dict:
        return await self._call(*_healthz())

    async def metrics(self) -> dict[tuple, float]:
        return parse_metrics_text(await self._call(*_metrics()))

    async def replay(self, **spec) -> dict:
        return await self._call(*_replay(spec))

    async def replay_raw(self, **spec) -> tuple[int, dict, object]:
        """Replay without raising — backpressure phases inspect 429s."""
        return await self.request(*_replay(spec))

    async def compare(self, policies=(), **spec) -> dict:
        return await self._call(*_compare(policies, spec))

    async def experiment(self, name: str, **kwargs) -> dict:
        return await self._call(*_experiment(name, kwargs))

    async def verify(self, **request) -> dict:
        return await self._call(*_verify(request))

    async def replay_with_retry(self, attempts: int = 5,
                                retry_draining: bool = False,
                                drain_backoff: float = 0.1, **spec
                                ) -> dict:
        """Async twin of :meth:`ServiceClient.replay_with_retry`."""
        for attempt in range(attempts):
            try:
                return await self.replay(**spec)
            except (Backpressure, Draining) as exc:
                delay = _retry_delay(exc, attempt == attempts - 1,
                                     retry_draining, drain_backoff)
                if delay is None:
                    raise
                await asyncio.sleep(delay)
        raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# Module CLI (CI smoke plumbing)
# ----------------------------------------------------------------------

def _spec_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--engine", default="directory",
                        choices=("directory", "bus"))
    parser.add_argument("--app", default="water")
    parser.add_argument("--policy", default="basic")
    parser.add_argument("--cache-size", type=int, default=64 * 1024)
    parser.add_argument("--block-size", type=int, default=16)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)


def _spec_from(args) -> dict:
    return {
        "engine": args.engine, "app": args.app, "policy": args.policy,
        "cache_size": args.cache_size, "block_size": args.block_size,
        "scale": args.scale, "seed": args.seed,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    from repro.common.version import add_version_argument

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="Issue one request against a running repro-serve.",
    )
    add_version_argument(parser)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8077)
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT)
    sub = parser.add_subparsers(dest="command", required=True)

    p_wait = sub.add_parser("wait", help="poll /healthz until ready")
    p_wait.set_defaults(command="wait")

    p_replay = sub.add_parser("replay", help="one replay request")
    _spec_arguments(p_replay)

    p_compare = sub.add_parser("compare", help="one compare request")
    _spec_arguments(p_compare)

    p_experiment = sub.add_parser("experiment",
                                  help="one experiment request")
    p_experiment.add_argument("name", choices=("table2", "table3", "bus"))
    p_experiment.add_argument("--scale", type=float, default=1.0)
    p_experiment.add_argument("--seed", type=int, default=0)
    p_experiment.add_argument("--apps", nargs="+", default=None)

    p_verify = sub.add_parser("verify", help="one model-checking request")
    p_verify.add_argument("--engine", default="all",
                          choices=("bus", "directory", "all"))
    p_verify.add_argument("--protocol", default=None)
    p_verify.add_argument("--procs", type=int, default=2)
    p_verify.add_argument("--blocks", type=int, default=1)
    p_verify.add_argument("--no-evictions", action="store_true")

    sub.add_parser("healthz", help="print the health document")
    sub.add_parser("metrics", help="print the Prometheus text")

    args = parser.parse_args(argv)
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.command == "wait":
            payload = client.wait_ready(timeout=args.timeout)
        elif args.command == "healthz":
            payload = client.healthz()
        elif args.command == "metrics":
            print(client.metrics_text(), end="")
            return 0
        elif args.command == "replay":
            spec = _spec_from(args)
            payload = client.replay(**spec)
        elif args.command == "compare":
            spec = _spec_from(args)
            spec.pop("policy")
            payload = client.compare(**spec)
        elif args.command == "verify":
            payload = client.verify(
                engine=args.engine, protocol=args.protocol,
                num_procs=args.procs, num_blocks=args.blocks,
                evictions=not args.no_evictions,
            )
        else:
            kwargs = {"scale": args.scale, "seed": args.seed}
            if args.apps:
                kwargs["apps"] = args.apps
            payload = client.experiment(args.name, **kwargs)
    except (ServiceError, TimeoutError, OSError) as exc:
        print(f"service client: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
