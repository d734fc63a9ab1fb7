"""In-process tests of the asyncio serving layer.

Each test spins a real :class:`CoherenceService` on an ephemeral port
inside ``asyncio.run`` (the suite has no async test runner) with one
worker — thread execution, no spawn cost — and a test-private result
cache so cold/warm expectations are deterministic.  Workload scale is
tiny: these are protocol and coalescing tests, not performance runs.
"""

import asyncio
import time

import pytest

from repro.service import worker
from repro.service.client import (
    AsyncServiceClient,
    Backpressure,
    ServiceError,
    metric_value,
    parse_metrics_text,
)
from repro.service.server import CoherenceService, ServiceConfig

#: Small enough for interactive tests, real enough to exercise the
#: machines end to end.
SCALE = 0.02

SPEC = {"engine": "directory", "app": "water", "policy": "basic",
        "cache_size": 64 * 1024, "scale": SCALE}


@pytest.fixture(autouse=True)
def _private_cache(tmp_path, monkeypatch):
    """Fresh result cache per test: every first replay is a true miss.

    Both layers matter: the on-disk directory (env var) and the
    in-process memo dict, which outlives the env override.
    """
    from repro.experiments import resultcache

    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "results"))
    resultcache.clear_memory()
    yield
    resultcache.clear_memory()


def run_with_server(body, **config_kwargs):
    """Start a server, run ``await body(service, client)``, drain."""
    config_kwargs.setdefault("port", 0)
    config_kwargs.setdefault("jobs", 1)

    async def main():
        service = CoherenceService(ServiceConfig(**config_kwargs))
        await service.start()
        client = AsyncServiceClient("127.0.0.1", service.port)
        try:
            return await body(service, client)
        finally:
            await service.drain()

    return asyncio.run(main())


class TestEndpoints:
    def test_healthz(self):
        async def body(service, client):
            health = await client.healthz()
            assert health["status"] == "ok"
            assert health["protocol_version"] == 1
            assert health["workers"] == 1
            assert health["queue_depth"] == 0

        run_with_server(body)

    def test_replay_roundtrip_and_cache_hit(self):
        async def body(service, client):
            first = await client.replay(**SPEC)
            assert first["type"] == "replay"
            assert first["cached"] is False
            assert first["result"]["short"] > 0
            second = await client.replay(**SPEC)
            assert second["cached"] is True
            assert second["result"] == first["result"]
            samples = await client.metrics()
            assert metric_value(
                samples, "repro_result_cache_requests_total",
                kind="directory", status="hit") == 1
            assert metric_value(
                samples, "repro_service_executions_total",
                kind="directory") == 1
            # Only admitted queries count as served work; the /metrics
            # GET above does not.
            assert service.served == 2

        run_with_server(body)

    def test_bus_replay(self):
        async def body(service, client):
            response = await client.replay(
                engine="bus", app="water", policy="mesi", scale=SCALE
            )
            assert response["cached"] is False
            assert set(response["result"]) >= {"read_miss", "write_miss"}

        run_with_server(body)

    def test_compare_ranks_policies(self):
        async def body(service, client):
            response = await client.compare(
                policies=["conventional", "basic"], app="water",
                cache_size=64 * 1024, scale=SCALE,
            )
            assert response["type"] == "compare"
            assert set(response["totals"]) == {"conventional", "basic"}
            assert response["cheapest"] in response["totals"]
            # The adaptive protocol never loses to conventional on the
            # migratory-heavy water analogue (the paper's headline).
            assert (response["totals"]["basic"]
                    <= response["totals"]["conventional"])

        run_with_server(body)

    def test_compare_adaptive_families_on_shared_trace(self):
        # The registry question the family subsystem exists to answer:
        # migratory-adaptive vs write-run hybrid vs self-invalidation,
        # priced on one shared trace, one total per family.
        matchup = ["adaptive", "hybrid-update-invalidate",
                   "self-invalidation"]

        async def body(service, client):
            response = await client.compare(
                policies=matchup, engine="bus", app="mp3d", scale=SCALE,
            )
            assert response["type"] == "compare"
            assert set(response["totals"]) == set(matchup)
            assert all(total > 0 for total in response["totals"].values())
            assert response["cheapest"] in matchup
            # mp3d is the migratory-heavy analogue: the paper's
            # adaptive protocol wins its home ground.
            assert response["cheapest"] == "adaptive"

        run_with_server(body)

    def test_compare_family_directory_machines(self):
        async def body(service, client):
            response = await client.compare(
                policies=["basic", "self-invalidation"], app="water",
                cache_size=64 * 1024, scale=SCALE,
            )
            assert set(response["totals"]) == {"basic", "self-invalidation"}
            assert all(total > 0 for total in response["totals"].values())

        run_with_server(body)

    def test_experiment_renders_and_caches(self):
        async def body(service, client):
            first = await client.experiment(
                "table2", scale=SCALE, apps=["water"]
            )
            assert first["type"] == "experiment"
            assert "water" in first["rendered"]
            second = await client.experiment(
                "table2", scale=SCALE, apps=["water"]
            )
            assert second["cached"] is True
            assert second["rendered"] == first["rendered"]

        run_with_server(body)

    def test_verify_returns_certificate_and_caches(self):
        async def body(service, client):
            first = await client.verify(engine="bus", protocol="mesi")
            assert first["type"] == "verify"
            assert first["ok"] is True
            assert first["cached"] is False
            certificate = first["certificate"]
            assert certificate["kind"] == "repro-verify-certificate"
            assert certificate["totals"]["violations"] == 0
            assert certificate["totals"]["combos"] == 1
            combo = certificate["combos"][0]
            assert combo["label"] == "bus/mesi"
            assert combo["table_digest"]
            second = await client.verify(engine="bus", protocol="mesi")
            assert second["cached"] is True
            assert second["certificate"] == certificate

        run_with_server(body)

    def test_verify_rejects_bad_requests(self):
        async def body(service, client):
            with pytest.raises(ServiceError) as excinfo:
                await client.verify(engine="bus", protocol="nonesuch")
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                await client.verify(num_procs=9)
            assert excinfo.value.status == 400

        run_with_server(body)

    def test_metrics_prometheus_shape(self):
        async def body(service, client):
            await client.replay(**SPEC)
            status, headers, text = await client.request("GET", "/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            samples = parse_metrics_text(text)
            assert metric_value(
                samples, "repro_service_requests_total",
                endpoint="/v1/replay", status="200") == 1

        run_with_server(body)


class TestMetricValue:
    TEXT = ("# HELP repro_x total x\n# TYPE repro_x counter\n"
            'repro_x{instance="a",kind="directory"} 3\n'
            'repro_x{instance="b",kind="directory"} 4\n'
            'repro_x{instance="b",kind="bus"} 5\n')

    def test_sums_every_series_whose_labels_include_the_query(self):
        samples = parse_metrics_text(self.TEXT)
        assert metric_value(samples, "repro_x", kind="directory") == 7
        assert metric_value(samples, "repro_x", instance="b") == 9
        assert metric_value(samples, "repro_x") == 12
        assert metric_value(samples, "repro_x", kind="none") == 0


class TestErrors:
    def test_unknown_path_404(self):
        async def body(service, client):
            status, _, payload = await client.request("GET", "/v2/replay")
            assert status == 404
            assert payload["type"] == "error"

        run_with_server(body)

    def test_wrong_method_405(self):
        async def body(service, client):
            status, _, _ = await client.request("GET", "/v1/replay")
            assert status == 405
            status, _, _ = await client.request("POST", "/healthz", {})
            assert status == 405

        run_with_server(body)

    def test_bad_spec_400(self):
        async def body(service, client):
            with pytest.raises(ServiceError) as excinfo:
                await client.replay(app="doom")
            assert excinfo.value.status == 400
            assert "doom" in excinfo.value.message

        run_with_server(body)

    def test_bad_json_400(self):
        async def body(service, client):
            status, _, payload = await client.request(
                "POST", "/v1/replay", payload=None
            )
            assert status == 400  # empty body
        run_with_server(body)

    def test_wrong_version_400(self):
        async def body(service, client):
            status, _, payload = await client.request(
                "POST", "/v1/replay", {"v": 999, "spec": {}}
            )
            assert status == 400
            assert "protocol version" in payload["error"]

        run_with_server(body)

    def test_malformed_request_line_400(self):
        async def body(service, client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            writer.write(b"NONSENSE\r\n\r\n")
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b"400" in raw.split(b"\r\n", 1)[0]

        run_with_server(body)


class TestSingleFlight:
    def test_identical_requests_coalesce(self, monkeypatch):
        fanout = 6

        def slow_replay(spec_payload, handle):
            # Slow enough that every request in the burst is parked on
            # the leader's future before it resolves: the coalesced
            # flags and counters below become deterministic.
            time.sleep(0.5)
            return {"short": 5, "data": 2, "by_cause_short": {},
                    "by_cause_data": {}}

        monkeypatch.setattr(worker, "run_replay", slow_replay)

        async def body(service, client):
            responses = await asyncio.gather(
                *(client.replay(**SPEC) for _ in range(fanout))
            )
            results = [r["result"] for r in responses]
            assert all(r == results[0] for r in results)
            # Exactly one leader executed; everyone else coalesced.
            assert sorted(r["coalesced"] for r in responses) == \
                [False] + [True] * (fanout - 1)
            samples = await client.metrics()
            assert metric_value(
                samples, "repro_service_executions_total",
                kind="directory") == 1
            assert metric_value(
                samples, "repro_result_cache_requests_total",
                kind="directory", status="miss") == 1
            assert metric_value(
                samples, "repro_service_singleflight_total",
                role="leader") == 1
            assert metric_value(
                samples, "repro_service_singleflight_total",
                role="follower") == fanout - 1

        run_with_server(body)

    def test_distinct_requests_do_not_coalesce(self):
        async def body(service, client):
            a, b = await asyncio.gather(
                client.replay(**SPEC),
                client.replay(**{**SPEC, "policy": "aggressive"}),
            )
            assert a["coalesced"] is False
            assert b["coalesced"] is False
            samples = await client.metrics()
            assert metric_value(
                samples, "repro_service_executions_total",
                kind="directory") == 2

        run_with_server(body)

    def test_leader_failure_propagates_to_followers(self, monkeypatch):
        def boom(spec_payload, handle):
            time.sleep(0.2)
            raise RuntimeError("replay exploded")

        monkeypatch.setattr(worker, "run_replay", boom)

        async def body(service, client):
            outcomes = await asyncio.gather(
                *(client.replay_raw(**SPEC) for _ in range(3))
            )
            assert [status for status, _, _ in outcomes] == [500] * 3

        run_with_server(body)


class TestBackpressure:
    def test_full_queue_sheds_with_retry_after(self, monkeypatch):
        def slow_replay(spec_payload, handle):
            time.sleep(0.5)
            return {"short": 1, "data": 1, "by_cause_short": {},
                    "by_cause_data": {}}

        monkeypatch.setattr(worker, "run_replay", slow_replay)

        async def body(service, client):
            # Distinct specs (different cache sizes) so nothing
            # coalesces: each occupies an admission slot.
            outcomes = await asyncio.gather(*(
                client.replay_raw(**{**SPEC, "cache_size": (8 + i) * 1024})
                for i in range(4)
            ))
            statuses = sorted(status for status, _, _ in outcomes)
            assert statuses.count(429) >= 2
            assert statuses.count(200) >= 1
            for status, headers, payload in outcomes:
                if status == 429:
                    assert headers["retry-after"] == "1"
                    assert "queue full" in payload["error"]

        run_with_server(body, max_queue=1)

    def test_backpressure_exception_carries_retry_after(self, monkeypatch):
        def slow_replay(spec_payload, handle):
            time.sleep(0.5)
            return {"short": 1, "data": 1, "by_cause_short": {},
                    "by_cause_data": {}}

        monkeypatch.setattr(worker, "run_replay", slow_replay)

        async def body(service, client):
            tasks = [
                asyncio.ensure_future(client.replay(
                    **{**SPEC, "cache_size": (8 + i) * 1024}
                ))
                for i in range(4)
            ]
            done = await asyncio.gather(*tasks, return_exceptions=True)
            shed = [r for r in done if isinstance(r, Backpressure)]
            assert shed
            assert all(r.retry_after == 1.0 for r in shed)

        run_with_server(body, max_queue=1)

    def test_healthz_not_admission_controlled(self, monkeypatch):
        def slow_replay(spec_payload, handle):
            time.sleep(0.5)
            return {"short": 1, "data": 1, "by_cause_short": {},
                    "by_cause_data": {}}

        monkeypatch.setattr(worker, "run_replay", slow_replay)

        async def body(service, client):
            blocker = asyncio.ensure_future(client.replay(**SPEC))
            await asyncio.sleep(0.1)
            health = await client.healthz()  # not shed while queue full
            assert health["queue_depth"] == 1
            await blocker

        run_with_server(body, max_queue=1)


class TestDrain:
    def test_drain_completes_admitted_requests(self, monkeypatch):
        def slow_replay(spec_payload, handle):
            time.sleep(0.4)
            return {"short": 7, "data": 3, "by_cause_short": {},
                    "by_cause_data": {}}

        monkeypatch.setattr(worker, "run_replay", slow_replay)

        async def main():
            service = CoherenceService(ServiceConfig(port=0, jobs=1))
            await service.start()
            client = AsyncServiceClient("127.0.0.1", service.port)
            task = asyncio.ensure_future(client.replay(**SPEC))
            await asyncio.sleep(0.1)
            await service.drain()
            response = await task
            assert response["result"]["short"] == 7
            assert service.served == 1
            # Idempotent: a second drain is a no-op.
            await service.drain()

        asyncio.run(main())

    def test_draining_server_rejects_new_queries(self, monkeypatch):
        def slow_replay(spec_payload, handle):
            time.sleep(0.6)
            return {"short": 1, "data": 1, "by_cause_short": {},
                    "by_cause_data": {}}

        monkeypatch.setattr(worker, "run_replay", slow_replay)

        async def main():
            service = CoherenceService(ServiceConfig(port=0, jobs=1))
            await service.start()
            client = AsyncServiceClient("127.0.0.1", service.port)
            # Park a connection while the listener still accepts, and
            # hold the drain open with a slow in-flight replay.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            blocker = asyncio.ensure_future(client.replay(**SPEC))
            await asyncio.sleep(0.1)
            draining = asyncio.ensure_future(service.drain())
            await asyncio.sleep(0.1)
            # New queries during the drain window are refused, not
            # queued behind work that will never be admitted.
            body = b'{"v": 1, "spec": {}}'
            writer.write(
                b"POST /v1/replay HTTP/1.1\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            await writer.drain()
            raw = await reader.read()
            writer.close()
            assert b"503" in raw.split(b"\r\n", 1)[0]
            # The admitted request still completes.
            response = await blocker
            assert response["result"]["short"] == 1
            await draining

        asyncio.run(main())
