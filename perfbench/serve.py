"""``serve``: a closed loop of replay and compare requests.

The benchmark starts ``repro-serve --jobs 1`` (through
``serve_launcher.py``) on an empty result cache, and one client process
drives it over two keep-alive connections.  Each connection sends its
next request only when the previous reply has arrived: callers that
wait for a reply make a closed loop.  The timed section is ``ROUNDS``
such loops in turn, each against its own server with its own empty
result cache, so the section grows with ``--seconds`` while each round
keeps about 1.9% first touches.

Requests are drawn Zipf-wise from 5 apps x 3 cache sizes (16K, 64K,
infinite) x 5 policies (``conventional``, ``basic`` and ``aggressive``
directory policies; ``mesi`` and ``adaptive`` bus protocols), traces at
scale 0.1 from the workload seed.  Every one of the 75 keys is asked
for at least once per round, in a random place, so every round executes
the same 75 replays.  About one request in ten is a ``compare`` of
every policy of one engine.  The first touch of each key
executes a replay; every later one is a result-cache hit, so the median
latency measures the serving path on hits and the 99th percentile the
misses.  The (app, cache size) pairs are split between the connections,
so no two requests for one key are ever in flight together and every
work count repeats exactly.

Set-up writes the five traces into a fresh trace cache (the servers
load them from there on first touch) and starts every round's server up
to its ready line.

Checks, one operation per request: the response is a 200; each distinct
key's result equals an in-process ``common.run_directory`` or
``run_bus`` result; and every hit is identical to the miss that stored
it on the same server.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

from harness import Workload, peak_rss_mb, reset_peak_rss

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SIZES = (16 * 1024, 64 * 1024, None)
DIRECTORY = ("conventional", "basic", "aggressive")
BUS = ("mesi", "adaptive")
CONNECTIONS = 2

#: Closed-loop rounds in the timed section, one server each.
ROUNDS = 2

#: Requests per second of ``--seconds``, from the measured throughput
#: on a 2-CPU host: 15 s gives two rounds of 3,974, which take 11-18 s
#: there (median 12 s after the host-speed adjustment).
REQUESTS_PER_SECOND = 530
COMPARE_SHARE = 0.1
ZIPF_EXPONENT = 1.0

_READY = re.compile(r"listening on http://([\d.]+):(\d+)")


def _engine(policy: str) -> str:
    return "directory" if policy in DIRECTORY else "bus"


def key_space() -> list[tuple]:
    """Every ``(app, cache_size, policy)`` the mix can ask for."""
    from repro.workloads.profiles import APP_ORDER

    return [(app, size, policy) for app in APP_ORDER for size in SIZES
            for policy in DIRECTORY + BUS]


def plan(seed: int, total: int, round_: int) -> list[list[tuple]]:
    """Per connection, the requests it sends in one round, in order.

    Each request is ``(path, payload, keys)`` where ``keys`` are the
    ``(app, cache_size, policy)`` results the reply carries.
    """
    rng = random.Random(f"serve/{seed}/{round_}")
    keys = key_space()
    rng.shuffle(keys)
    weight = {key: 1.0 / (rank + 1) ** ZIPF_EXPONENT
              for rank, key in enumerate(keys)}
    groups = sorted({(app, size) for app, size, _ in keys},
                    key=lambda g: (g[0], -1 if g[1] is None else g[1]))
    rng.shuffle(groups)
    owner = {group: i % CONNECTIONS for i, group in enumerate(groups)}
    plans = []
    for conn in range(CONNECTIONS):
        mine = [key for key in keys if owner[key[:2]] == conn]
        weights = [weight[key] for key in mine]
        # Every key is asked for at least once, so each round executes
        # every replay once whatever the seed; the rest are Zipf draws.
        drawn = mine + rng.choices(
            mine, weights, k=max(0, total // CONNECTIONS - len(mine)))
        rng.shuffle(drawn)
        requests = []
        for app, size, policy in drawn:
            spec = {"app": app, "cache_size": size,
                    "engine": _engine(policy), "seed": seed}
            if rng.random() < COMPARE_SHARE:
                names = DIRECTORY if policy in DIRECTORY else BUS
                requests.append(("/v1/compare",
                                 {"v": 1, "spec": spec,
                                  "policies": list(names)},
                                 [(app, size, name) for name in names]))
            else:
                requests.append(("/v1/replay",
                                 {"v": 1, "spec": {**spec, "policy": policy}},
                                 [(app, size, policy)]))
        plans.append(requests)
    return plans


def _reply_results(path: str, reply: dict, keys: list) -> dict:
    if path == "/v1/replay":
        return {keys[0]: reply["result"]}
    return {key: reply["results"][key[2]] for key in keys}


class _Server:
    """One ``repro-serve --jobs 1`` with its own empty result cache."""

    def __init__(self, run_dir: Path, traces: Path, traced: bool):
        run_dir.mkdir()
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
                   REPRO_TRACE_CACHE=str(traces),
                   REPRO_RESULT_CACHE=str(run_dir / "results"),
                   REPRO_JOBS="1")
        self.spans_path = run_dir / "spans.jsonl"
        self.counts_path = run_dir / "counts.json"
        self.metrics = ""
        self.counts: dict = {}
        command = [sys.executable, str(HERE / "serve_launcher.py"),
                   "--counts-out", str(self.counts_path)]
        if traced:
            command += ["--spans-out", str(self.spans_path)]
        command += ["--port", "0", "--jobs", "1"]
        self._log = open(run_dir / "server.log", "w")
        self.proc = subprocess.Popen(command, env=env, cwd=ROOT,
                                     stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        line = self.proc.stdout.readline()
        match = _READY.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"repro-serve did not start: {line!r}")
        self.port = int(match.group(2))

    def get(self, path: str) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode()
        finally:
            conn.close()

    def stop(self) -> None:
        """Stop the server and wait for it; idempotent."""
        if self.proc is None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        if self.counts_path.exists():
            self.counts = json.loads(self.counts_path.read_text())
        self.proc = None


class Serve(Workload):
    def __init__(self, options, workdir: Path, traced: bool):
        super().__init__(options, workdir, traced)
        self.workdir = workdir
        per_round = REQUESTS_PER_SECOND * options.seconds // ROUNDS
        #: Per round, per connection, the requests it sends.
        self.plans = [
            [[(path, self._scaled(payload), keys)
              for path, payload, keys in conn]
             for conn in plan(options.seed, per_round, round_)]
            for round_ in range(ROUNDS)
        ]
        self.total = sum(len(conn) for plans in self.plans for conn in plans)
        self.servers: list[_Server] = []
        #: Per round, per connection: ``(latency_s, status, body)``.
        self.replies = [[[] for _ in range(CONNECTIONS)]
                        for _ in range(ROUNDS)]
        self.traced = traced

    def _scaled(self, payload: dict) -> dict:
        spec = dict(payload["spec"], scale=self.options.scale)
        return {**payload, "spec": spec}

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        from repro.experiments import common
        from repro.workloads.profiles import APP_ORDER

        self.close()
        self.servers = []
        run_dir = Path(tempfile.mkdtemp(prefix="serve-", dir=self.workdir))
        traces = run_dir / "traces"
        os.environ["REPRO_TRACE_CACHE"] = str(traces)
        common.clear_caches()
        for app in APP_ORDER:
            common.get_trace(app, seed=self.options.seed,
                             scale=self.options.scale)
        for round_ in range(ROUNDS):
            self.servers.append(
                _Server(run_dir / f"server-{round_}", traces, self.traced))

    # -- timed section ---------------------------------------------------

    def _drive(self, round_: int, conn_index: int) -> None:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.servers[round_].port, timeout=120)
        out = self.replies[round_][conn_index]
        try:
            for path, payload, keys in self.plans[round_][conn_index]:
                body = json.dumps(payload).encode()
                started = perf_counter()
                conn.request("POST", path, body,
                             {"Content-Type": "application/json"})
                response = conn.getresponse()
                data = response.read()
                out.append((perf_counter() - started, response.status,
                            data))
        finally:
            conn.close()

    def run(self) -> None:
        for round_ in range(ROUNDS):
            threads = [threading.Thread(target=self._drive,
                                        args=(round_, i))
                       for i in range(CONNECTIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

    def reset_peak_rss(self) -> None:
        for server in self.servers:
            reset_peak_rss(server.proc.pid)

    def peak_rss_mb(self) -> float:
        """The largest server's peak; also reads each one's ``/metrics``."""
        rss = max(peak_rss_mb(server.proc.pid) for server in self.servers)
        for server in self.servers:
            server.metrics = server.get("/metrics")
        return rss

    # -- results ---------------------------------------------------------

    def outcomes(self) -> list[tuple]:
        """Per request, by round and then per-connection order:
        ``(round, path, keys, latency_s, status, reply or None,
        outcome)``."""
        out = []
        for round_, plans in enumerate(self.plans):
            for conn, requests in enumerate(plans):
                seen = set()
                for (path, _, keys), (latency, status, data) in zip(
                        requests, self.replies[round_][conn]):
                    reply = json.loads(data) if status == 200 else None
                    if status == 429:
                        outcome = "shed"
                    elif reply is not None and reply.get("coalesced"):
                        outcome = "coalesced"
                    elif all(key in seen for key in keys):
                        outcome = "hit"
                    else:
                        outcome = "miss"
                    seen.update(keys)
                    out.append((round_, path, keys, latency, status, reply,
                                outcome))
        return out

    def work(self) -> int:
        return sum(len(replies) for plans in self.replies
                   for replies in plans)

    def check(self) -> tuple[int, int]:
        from repro.experiments import common, resultcache
        from repro.service.protocol import (
            DIRECTORY_POLICIES,
            make_snooping_protocol,
        )

        os.environ["REPRO_RESULT_CACHE"] = "off"
        reference: dict = {}
        stored: dict = {}
        failed = 0
        for round_, path, keys, _, status, reply, _ in self.outcomes():
            if status != 200:
                failed += 1
                continue
            results = _reply_results(path, reply, keys)
            ok = True
            for key, result in results.items():
                if key not in reference:
                    app, size, policy = key
                    trace = common.get_trace(app, seed=self.options.seed,
                                             scale=self.options.scale)
                    if policy in DIRECTORY:
                        reference[key] = resultcache.encode_message_stats(
                            common.run_directory(
                                trace, DIRECTORY_POLICIES[policy], size))
                    else:
                        reference[key] = resultcache.encode_bus_stats(
                            common.run_bus(
                                trace, make_snooping_protocol(policy), size))
                canonical = json.dumps(result, sort_keys=True)
                first = stored.setdefault((round_, key), canonical)
                ok = ok and result == reference[key] and canonical == first
            failed += not ok
        missing = self.total - self.work()
        return self.total, failed + missing

    def counts(self) -> dict:
        by_outcome = {"hit": 0, "miss": 0, "coalesced": 0, "shed": 0}
        for *_, outcome in self.outcomes():
            by_outcome[outcome] += 1
        server = {"executions": 0, "coalesced": 0, "shed": 0}
        for each in self.servers:
            server["executions"] += _metric(
                each.metrics, "repro_service_executions_total")
            server["coalesced"] += _metric(
                each.metrics, "repro_service_singleflight_total",
                'role="follower"')
            server["shed"] += _metric(
                each.metrics, "repro_service_requests_total",
                'status="429"')
        return {"rounds": len(self.plans),
                "requests": by_outcome,
                "distinct_keys": len({key for outcome in self.outcomes()
                                      for key in outcome[2]}),
                "server": server,
                **_summed(each.counts for each in self.servers)}

    def extra(self) -> dict:
        latencies = sorted(o[3] for o in self.outcomes())
        p50 = statistics.median(latencies)
        p99 = statistics.quantiles(latencies, n=100)[98]
        return {
            "request_p50_ms": p50 * 1000,
            "request_p99_ms": p99 * 1000,
            "samples": len(latencies),
            "beyond_p99": sum(1 for x in latencies if x > p99),
        }

    def spans(self, tracer) -> list:
        """Every server's span log, one after another."""
        if not self.traced:
            return []
        out: list = []
        requests = 0
        for server in self.servers:
            offset = len(out)
            with open(server.spans_path) as lines:
                spans = [json.loads(line) for line in lines]
            for span in spans:
                # Parents and request ids count within one server's log.
                if span[3] >= 0:
                    span[3] += offset
                span[4] += requests
            requests = max([requests, *(span[4] for span in spans)])
            out.extend(spans)
        return out

    def close(self) -> None:
        for server in self.servers:
            server.stop()


def _summed(dicts) -> dict:
    """Nested dicts of counts, added key by key."""
    total: dict = {}
    for each in dicts:
        for key, value in each.items():
            if isinstance(value, dict):
                total[key] = _summed([total.get(key, {}), value])
            else:
                total[key] = total.get(key, 0) + value
    return total


def _metric(text: str, family: str, label: str = "") -> int:
    """Sum of one Prometheus counter family's samples (with ``label``)."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(family) and label in line:
            total += float(line.rsplit(" ", 1)[1])
    return int(total)
