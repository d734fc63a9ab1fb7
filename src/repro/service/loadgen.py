"""Load generator for the serving layer.

Drives a ``repro-serve`` instance with open-loop (fixed arrival rate)
or closed-loop (fixed concurrency, back-to-back) traffic whose request
mix follows a zipf distribution over the application traces — a few
hot traces take most of the traffic, the tail stays cold, which is the
regime the result cache and single-flight coalescing are built for.
Reports throughput and p50/p99 latency; ``--output`` writes the
machine-readable summary to ``BENCH_service.json``.

Two modes::

    python -m repro.service.loadgen --mode bench    [--output F] ...
    python -m repro.service.loadgen --mode ci-smoke [--output F]

``bench`` spawns a fresh server against an empty result cache, runs a
cold pass and an identical warm pass, and records both.  ``--loop
open`` switches from closed-loop concurrency to a fixed arrival rate
(``--rate``/``--duration``), and ``--slo-p99-ms`` turns the warm pass
into a pass/fail SLO gate: a warm p99 above the bound exits nonzero.
``ci-smoke`` is the single-server acceptance harness: it additionally
proves, from the outside, that

* N concurrent identical replay requests coalesce into **exactly one**
  pool execution (one result-cache miss on the ``/metrics``
  ``repro_result_cache_requests_total`` counter, N-1 single-flight
  followers),
* a full admission queue answers **429** with ``Retry-After``, and
* SIGTERM drains gracefully: every admitted request completes with a
  200 and the server exits 0.

Both modes spawn their own server subprocess on an ephemeral port with
a private result-cache directory, so runs are reproducible and never
touch the user's cache.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service.client import (
    AsyncServiceClient,
    ServiceClient,
    metric_value,
)
from repro.workloads.profiles import APP_ORDER

#: Default zipf skew: rank-1 gets ~an order of magnitude more traffic
#: than rank-5, which is the textbook "few hot keys" service profile.
DEFAULT_ZIPF_S = 1.2

#: Scale used for generated replay specs: small enough that one replay
#: is interactive, large enough to exercise the real machines.
SMOKE_SCALE = 0.05


def zipf_weights(n: int, s: float = DEFAULT_ZIPF_S) -> list[float]:
    """Normalised zipf weights for ranks 1..n."""
    raw = [1.0 / (rank ** s) for rank in range(1, n + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, math.ceil(fraction * len(sorted_values)) - 1)
    return sorted_values[rank]


@dataclass
class RunStats:
    """Latency/throughput summary of one load-generation pass."""

    requests: int = 0
    errors: int = 0
    shed: int = 0
    seconds: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)

    def record(self, latency_ms: float) -> None:
        self.requests += 1
        self.latencies_ms.append(latency_ms)

    def summary(self) -> dict:
        ordered = sorted(self.latencies_ms)
        throughput = self.requests / self.seconds if self.seconds else 0.0
        return {
            "requests": self.requests,
            "errors": self.errors,
            "shed_429": self.shed,
            "seconds": round(self.seconds, 4),
            "throughput_rps": round(throughput, 2),
            "p50_ms": round(percentile(ordered, 0.50), 3),
            "p99_ms": round(percentile(ordered, 0.99), 3),
        }


class SpecMix:
    """The zipf-over-traces request profile.

    Deterministic for a fixed seed: the loadgen's request sequence (and
    therefore its cache-hit structure) is reproducible run to run.
    """

    def __init__(self, seed: int = 0, zipf_s: float = DEFAULT_ZIPF_S,
                 scale: float = SMOKE_SCALE):
        self._rng = random.Random(seed)
        self._apps = APP_ORDER
        self._weights = zipf_weights(len(self._apps), zipf_s)
        self._scale = scale
        self._policies = ("conventional", "basic", "aggressive")

    def next_spec(self) -> dict:
        (app,) = self._rng.choices(self._apps, weights=self._weights)
        policy = self._rng.choice(self._policies)
        return {
            "engine": "directory", "app": app, "policy": policy,
            "cache_size": 64 * 1024, "scale": self._scale,
        }


async def closed_loop(client: AsyncServiceClient, mix: SpecMix,
                      total_requests: int, concurrency: int) -> RunStats:
    """``concurrency`` workers issue back-to-back requests until
    ``total_requests`` have been sent."""
    stats = RunStats()
    remaining = iter(range(total_requests))

    async def one_worker() -> None:
        for _ in remaining:
            spec = mix.next_spec()
            started = time.perf_counter()
            try:
                status, _headers, _payload = await client.replay_raw(**spec)
            except (OSError, asyncio.TimeoutError):
                stats.errors += 1
                continue
            latency = (time.perf_counter() - started) * 1000.0
            if status == 200:
                stats.record(latency)
            elif status == 429:
                stats.shed += 1
            else:
                stats.errors += 1

    begun = time.perf_counter()
    await asyncio.gather(*(one_worker() for _ in range(concurrency)))
    stats.seconds = time.perf_counter() - begun
    return stats


async def open_loop(client: AsyncServiceClient, mix: SpecMix,
                    rate_rps: float, duration_s: float) -> RunStats:
    """Fire requests at a fixed arrival rate regardless of completions
    (the backpressure-revealing discipline: offered load does not slow
    down when the server does)."""
    stats = RunStats()
    tasks: list[asyncio.Task] = []

    async def one_request() -> None:
        spec = mix.next_spec()
        started = time.perf_counter()
        try:
            status, _headers, _payload = await client.replay_raw(**spec)
        except (OSError, asyncio.TimeoutError):
            stats.errors += 1
            return
        latency = (time.perf_counter() - started) * 1000.0
        if status == 200:
            stats.record(latency)
        elif status == 429:
            stats.shed += 1
        else:
            stats.errors += 1

    interval = 1.0 / rate_rps
    begun = time.perf_counter()
    while time.perf_counter() - begun < duration_s:
        tasks.append(asyncio.ensure_future(one_request()))
        await asyncio.sleep(interval)
    await asyncio.gather(*tasks)
    stats.seconds = time.perf_counter() - begun
    return stats


# ----------------------------------------------------------------------
# Server supervision
# ----------------------------------------------------------------------

class ManagedServer:
    """A ``repro-serve`` subprocess on an ephemeral port.

    The result cache points at a private directory so cold passes are
    genuinely cold and metric assertions (misses == executions) hold.
    """

    def __init__(self, max_queue: int = 64, jobs: int | None = 1,
                 cache_dir: str | None = None,
                 extra_args: tuple[str, ...] = ()):
        self.max_queue = max_queue
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.extra_args = extra_args
        self.process: subprocess.Popen | None = None
        self.port: int | None = None

    def start(self, timeout: float = 60.0) -> None:
        command = [
            sys.executable, "-m", "repro.service.cli",
            "--port", "0", "--max-queue", str(self.max_queue),
            *self.extra_args,
        ]
        if self.jobs is not None:
            command += ["--jobs", str(self.jobs)]
        env = dict(os.environ)
        if self.cache_dir is not None:
            env["REPRO_RESULT_CACHE"] = self.cache_dir
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, env=env,
        )
        # The ready line carries the bound ephemeral port.
        deadline = time.monotonic() + timeout
        line = ""
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if "listening on" in line:
                break
            if self.process.poll() is not None:
                raise RuntimeError("repro-serve exited before ready")
        else:
            raise TimeoutError("repro-serve never printed its ready line")
        self.port = int(line.rsplit(":", 1)[1].split()[0].strip("/"))
        ServiceClient("127.0.0.1", self.port).wait_ready(timeout=timeout)

    def sigterm(self) -> None:
        assert self.process is not None
        self.process.send_signal(signal.SIGTERM)

    def wait(self, timeout: float = 60.0) -> int:
        assert self.process is not None
        try:
            return self.process.wait(timeout=timeout)
        finally:
            if self.process.stdout is not None:
                self.process.stdout.close()

    def stop(self) -> int:
        """SIGTERM + wait (the graceful path); kill on timeout."""
        if self.process is None:
            return 0
        if self.process.poll() is None:
            self.sigterm()
        try:
            return self.wait()
        except subprocess.TimeoutExpired:  # pragma: no cover - hang guard
            self.process.kill()
            return self.process.wait()

    def __enter__(self) -> "ManagedServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# The smoke checks (the acceptance criteria, verified from outside)
# ----------------------------------------------------------------------

class SmokeFailure(AssertionError):
    """One of the ci-smoke properties did not hold."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise SmokeFailure(message)


async def check_single_flight(port: int, fanout: int = 8) -> dict:
    """N identical concurrent replays -> exactly one execution."""
    client = AsyncServiceClient("127.0.0.1", port)
    spec = {"engine": "directory", "app": "water", "policy": "basic",
            "cache_size": 64 * 1024, "scale": SMOKE_SCALE}
    responses = await asyncio.gather(
        *(client.replay(**spec) for _ in range(fanout))
    )
    results = [r["result"] for r in responses]
    _check(all(r == results[0] for r in results),
           "coalesced responses disagree")
    samples = await client.metrics()
    misses = metric_value(samples, "repro_result_cache_requests_total",
                          kind="directory", status="miss")
    hits = metric_value(samples, "repro_result_cache_requests_total",
                        kind="directory", status="hit")
    executions = metric_value(samples, "repro_service_executions_total",
                              kind="directory")
    followers = metric_value(samples, "repro_service_singleflight_total",
                             role="follower")
    _check(executions == 1,
           f"expected exactly 1 execution for {fanout} identical "
           f"requests, metrics report {executions}")
    _check(misses == 1,
           f"expected exactly 1 result-cache miss, metrics report "
           f"{misses}")
    # A request that straggles in after the leader resolved is a cache
    # hit rather than a follower — either way it did not execute.
    _check(followers + hits == fanout - 1,
           f"expected {fanout - 1} coalesced/cached requests, metrics "
           f"report followers={followers} hits={hits}")
    # The repeat is a pure cache hit: no new execution.
    repeat = await client.replay(**spec)
    _check(repeat["cached"] is True, "repeat request was not a cache hit")
    _check(repeat["result"] == results[0],
           "cache hit returned different stats")
    samples = await client.metrics()
    hits = metric_value(samples, "repro_result_cache_requests_total",
                        kind="directory", status="hit")
    executions_after = metric_value(
        samples, "repro_service_executions_total", kind="directory"
    )
    _check(hits >= 1, "repeat request did not count a cache hit")
    _check(executions_after == executions,
           "repeat request triggered a new execution")
    return {"fanout": fanout, "executions": int(executions),
            "misses": int(misses), "followers": int(followers),
            "repeat_cached": True}


async def check_backpressure(port: int, burst: int = 12) -> dict:
    """Distinct slow-ish requests against a tiny queue -> some 429s,
    each carrying Retry-After, and every admitted request succeeds."""
    client = AsyncServiceClient("127.0.0.1", port)
    outcomes = await asyncio.gather(*(
        client.replay_raw(
            engine="directory", app=APP_ORDER[i % len(APP_ORDER)],
            policy="basic", cache_size=(4 + i) * 1024, scale=SMOKE_SCALE,
        )
        for i in range(burst)
    ))
    statuses = [status for status, _, _ in outcomes]
    shed = [(status, headers) for status, headers, _ in outcomes
            if status == 429]
    _check(shed, f"no 429 out of {burst} bursts against a full queue "
           f"(statuses: {statuses})")
    _check(all(headers.get("retry-after") for _, headers in shed),
           "429 responses missing Retry-After")
    _check(all(status in (200, 429) for status in statuses),
           f"unexpected statuses in backpressure burst: {statuses}")
    _check(statuses.count(200) >= 1, "every request was shed")
    return {"burst": burst, "accepted": statuses.count(200),
            "shed": len(shed)}


async def check_drain(server: ManagedServer, inflight: int = 4) -> dict:
    """SIGTERM mid-flight: every admitted request still completes."""
    client = AsyncServiceClient("127.0.0.1", server.port)
    # Distinct uncached specs so each needs a real (serialised, with
    # --jobs 1) execution: the drain has actual work to wait for.
    tasks = [
        asyncio.ensure_future(client.replay(
            engine="directory", app="water", policy="conservative",
            cache_size=(32 + i) * 1024, scale=SMOKE_SCALE,
        ))
        for i in range(inflight)
    ]
    # Give the burst time to be admitted, then pull the plug.
    await asyncio.sleep(0.3)
    server.sigterm()
    responses = await asyncio.gather(*tasks)
    _check(all(r["type"] == "replay" for r in responses),
           "an admitted request did not complete during drain")
    exit_code = server.wait()
    _check(exit_code == 0,
           f"server exited {exit_code} after graceful drain")
    return {"inflight": inflight, "completed": len(responses),
            "exit_code": exit_code}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------

def _bench_passes(port: int, requests: int, concurrency: int,
                  zipf_s: float) -> tuple[dict, dict]:
    """One cold and one identical warm closed-loop pass."""
    client = AsyncServiceClient("127.0.0.1", port)
    cold = asyncio.run(closed_loop(
        client, SpecMix(seed=1, zipf_s=zipf_s), requests, concurrency
    ))
    warm = asyncio.run(closed_loop(
        client, SpecMix(seed=1, zipf_s=zipf_s), requests, concurrency
    ))
    return cold.summary(), warm.summary()


def _bench_passes_open(port: int, rate_rps: float, duration_s: float,
                       zipf_s: float) -> tuple[dict, dict]:
    """One cold and one identical warm open-loop pass."""
    client = AsyncServiceClient("127.0.0.1", port)
    cold = asyncio.run(open_loop(
        client, SpecMix(seed=1, zipf_s=zipf_s), rate_rps, duration_s
    ))
    warm = asyncio.run(open_loop(
        client, SpecMix(seed=1, zipf_s=zipf_s), rate_rps, duration_s
    ))
    return cold.summary(), warm.summary()


def run_bench(args) -> dict:
    """The ``bench`` mode body; returns the report dict."""
    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as cache_dir:
        with ManagedServer(max_queue=args.max_queue, jobs=args.jobs,
                           cache_dir=cache_dir) as target:
            if args.loop == "open":
                cold, warm = _bench_passes_open(
                    target.port, args.rate, args.duration, args.zipf_s
                )
            else:
                cold, warm = _bench_passes(
                    target.port, args.requests, args.concurrency,
                    args.zipf_s
                )
    report = {
        "benchmark": "repro.service load generator",
        "mode": "bench",
        "config": {
            "requests": args.requests, "concurrency": args.concurrency,
            "zipf_s": args.zipf_s, "max_queue": args.max_queue,
            "jobs": args.jobs, "scale": SMOKE_SCALE,
            "loop": args.loop,
        },
        "cold": cold,
        "warm": warm,
    }
    if args.loop == "open":
        report["config"]["rate_rps"] = args.rate
        report["config"]["duration_s"] = args.duration
    if args.slo_p99_ms is not None:
        met = warm["p99_ms"] <= args.slo_p99_ms and warm["errors"] == 0
        report["slo"] = {"p99_ms_bound": args.slo_p99_ms,
                         "warm_p99_ms": warm["p99_ms"],
                         "warm_errors": warm["errors"], "met": met}
        if not met:
            raise SmokeFailure(
                f"warm p99 {warm['p99_ms']}ms (errors={warm['errors']}) "
                f"violates the --slo-p99-ms {args.slo_p99_ms}ms bound"
            )
    return report


def run_ci_smoke(args) -> dict:
    """The ``ci-smoke`` mode body; raises SmokeFailure on any miss."""
    checks: dict = {}
    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as cache_dir:
        # Phase 1+2+4 server: generous queue, fresh cache, one worker
        # (executions serialise, giving the drain real work to finish).
        server = ManagedServer(max_queue=32, jobs=1, cache_dir=cache_dir)
        server.start()
        try:
            checks["single_flight"] = asyncio.run(
                check_single_flight(server.port)
            )
            cold, warm = _bench_passes(
                server.port, args.requests, args.concurrency, args.zipf_s
            )
            checks["drain"] = asyncio.run(check_drain(server))
        finally:
            server.stop()

        # Phase 3 server: a queue of 1 makes shedding deterministic
        # under any burst of 2+ concurrent distinct requests.
        with ManagedServer(max_queue=1, jobs=1,
                           cache_dir=cache_dir) as tiny:
            checks["backpressure"] = asyncio.run(
                check_backpressure(tiny.port)
            )

    return {
        "benchmark": "repro.service load generator",
        "mode": "ci-smoke",
        "config": {
            "requests": args.requests, "concurrency": args.concurrency,
            "zipf_s": args.zipf_s, "jobs": 1, "scale": SMOKE_SCALE,
            "loop": "closed",
        },
        "cold": cold,
        "warm": warm,
        "checks": checks,
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    from repro.common.version import add_version_argument

    parser = argparse.ArgumentParser(
        prog="python -m repro.service.loadgen",
        description="Drive repro-serve with zipf-over-traces load; "
        "verify serving properties and record BENCH_service.json.",
    )
    add_version_argument(parser)
    parser.add_argument("--mode",
                        choices=("bench", "ci-smoke"),
                        default="bench")
    parser.add_argument("--requests", type=int, default=60,
                        help="requests per pass (default 60)")
    parser.add_argument("--concurrency", type=int, default=8,
                        help="closed-loop workers (default 8)")
    parser.add_argument("--loop", choices=("closed", "open"),
                        default="closed",
                        help="bench discipline: closed (fixed "
                        "concurrency) or open (fixed arrival rate)")
    parser.add_argument("--rate", type=float, default=20.0,
                        help="open-loop arrival rate in rps "
                        "(default 20)")
    parser.add_argument("--duration", type=float, default=5.0,
                        help="open-loop pass duration in seconds "
                        "(default 5)")
    parser.add_argument("--slo-p99-ms", type=float, default=None,
                        help="bench gate: exit nonzero if the warm "
                        "pass p99 exceeds this bound or saw errors")
    parser.add_argument("--zipf-s", type=float, default=DEFAULT_ZIPF_S,
                        help=f"zipf skew over traces "
                        f"(default {DEFAULT_ZIPF_S})")
    parser.add_argument("--max-queue", type=int, default=64,
                        help="server admission bound for bench mode "
                        "(default 64)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="server replay workers (default 1)")
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON report here "
                        "(e.g. BENCH_service.json)")
    args = parser.parse_args(argv)

    runners = {"bench": run_bench, "ci-smoke": run_ci_smoke}
    try:
        report = runners[args.mode](args)
    except SmokeFailure as exc:
        print(f"loadgen: FAIL: {exc}", file=sys.stderr)
        return 1

    if args.output is not None:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"[wrote {args.output}]", file=sys.stderr)
    print(json.dumps(report, indent=2))
    if args.mode == "ci-smoke":
        print("loadgen: ci-smoke PASS (single-flight dedup, 429 "
              "backpressure, graceful drain)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
