"""RcaGateway end-to-end over real sockets: the /v1 API contract,
overload semantics, and HTTP plumbing (keep-alive, ephemeral ports)."""

import http.client
import json
import threading

import pytest

from repro.core.engine import Diagnosis
from repro.core.serialize import instance_to_dict
from repro.service import RcaService
from repro.service.http import RcaGateway, ShardRouter
from repro.service.policy import ServiceHealth

from .conftest import RUN_JOB, SHARD0_ROUTER, SHARD1_ROUTER, JsonClient


def submit_diagnose(client, symptoms, **extra):
    body = {
        "kind": "diagnose",
        "app": "mini",
        "symptoms": [instance_to_dict(s) for s in symptoms],
    }
    body.update(extra)
    return client.post("/v1/jobs", body)


class TestDiscovery:
    def test_apps(self, client):
        status, _, doc = client.get("/v1/apps")
        assert status == 200
        assert doc == {"apps": ["mini"]}

    def test_health_ok_is_200(self, client):
        status, _, doc = client.get("/v1/health")
        assert status == 200
        assert doc["status"] == "ok"
        assert len(doc["shards"]) == 2

    def test_metrics_shape(self, client):
        status, _, doc = client.get("/v1/metrics")
        assert status == 200
        assert len(doc["shards"]) == 2
        assert "aggregate" in doc and "jobs" in doc["aggregate"]

    def test_ephemeral_port_bound(self, gateway):
        assert gateway.port > 0
        assert gateway.url.startswith("http://127.0.0.1:")


class TestJobLifecycle:
    def test_submit_poll_wait_done(self, client, mini_app, seeded_symptoms):
        symptoms = seeded_symptoms[SHARD1_ROUTER]
        status, _, doc = submit_diagnose(client, symptoms)
        assert status == 202
        assert doc["shard"] == 1
        job_id = doc["job_id"]
        assert job_id.startswith("1.")
        done = client.wait_done(job_id)
        assert done["state"] == "done"
        assert done["app"] == "mini"
        # diagnoses over the wire decode to exactly the direct answers
        direct = mini_app.engine.diagnose_all(symptoms)
        decoded = [Diagnosis.from_json(d) for d in done["diagnoses"]]
        assert decoded == direct

    def test_distinct_keyspaces_reach_distinct_shards(
        self, client, seeded_symptoms
    ):
        shards = set()
        for symptoms in seeded_symptoms.values():
            status, _, doc = submit_diagnose(client, symptoms)
            assert status == 202
            shards.add(doc["shard"])
            client.wait_done(doc["job_id"])
        assert shards == {0, 1}

    def test_run_job(self, client, mini_app, seed_scene):
        times = seed_scene(mini_app.store, n=3)
        lo, hi = times[0] - 50.0, times[-1] + 50.0
        status, _, doc = client.post(
            "/v1/jobs", {"kind": "run", "app": "mini", "start": lo, "end": hi}
        )
        assert status == 202
        done = client.wait_done(doc["job_id"])
        assert len(done["diagnoses"]) == 3

    def test_poll_without_wait_returns_current_state(
        self, client, seeded_symptoms
    ):
        status, _, doc = submit_diagnose(
            client, seeded_symptoms[SHARD0_ROUTER]
        )
        status, _, doc = client.get(f"/v1/jobs/{doc['job_id']}")
        assert status == 200
        assert doc["state"] in ("pending", "running", "done")
        assert "diagnoses" not in doc or doc["state"] == "done"

    def test_cancel_terminal_job_reports_not_requested(
        self, client, seeded_symptoms
    ):
        _, _, doc = submit_diagnose(client, seeded_symptoms[SHARD0_ROUTER])
        client.wait_done(doc["job_id"])
        status, _, cancelled = client.delete(f"/v1/jobs/{doc['job_id']}")
        assert status == 202
        assert cancelled["cancel_requested"] is False
        assert cancelled["state"] == "done"  # terminal state untouched


class TestErrorMapping:
    def test_unknown_app_is_404(self, client):
        status, _, doc = client.post(
            "/v1/jobs", {"kind": "run", "app": "ghost", "start": 0, "end": 1}
        )
        assert status == 404
        assert "ghost" in doc["error"]

    def test_unknown_job_is_404(self, client):
        for job_id in ("0.999", "9.1", "junk"):
            assert client.get(f"/v1/jobs/{job_id}")[0] == 404
            assert client.delete(f"/v1/jobs/{job_id}")[0] == 404

    def test_missing_body_is_400(self, client):
        assert client.post("/v1/jobs", None)[0] == 400

    def test_invalid_json_is_400(self, gateway):
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        try:
            conn.request("POST", "/v1/jobs", body="{not json",
                         headers={"Content-Type": "application/json"})
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_bad_fields_are_400(self, client):
        bad_bodies = [
            {"kind": "diagnose", "app": "mini"},               # no symptoms
            {"kind": "diagnose", "app": "mini", "symptoms": []},
            {"kind": "diagnose", "app": "mini", "symptoms": [{"x": 1}]},
            {"kind": "run", "app": "mini"},                    # no window
            {"kind": "run", "app": "mini", "start": "a", "end": 1},
            {"kind": "wat", "app": "mini"},
            {"kind": "run", "app": 7, "start": 0, "end": 1},
            {"kind": "run", "app": "mini", "start": 0, "end": 1, "key": 3},
        ]
        for body in bad_bodies:
            assert client.post("/v1/jobs", body)[0] == 400, body

    def test_a_non_finite_symptom_interval_is_400(self, client, seeded_symptoms):
        # float() reads "nan" / "inf": such a symptom would file an
        # unbounded cover in the shard engine that diagnosed it
        good = instance_to_dict(seeded_symptoms[SHARD0_ROUTER][0])
        for start, end in (
            ("nan", good["end"]), ("-inf", good["end"]),
            (good["start"], "inf"), (good["start"], "nan"),
        ):
            body = {
                "kind": "diagnose", "app": "mini",
                "symptoms": [dict(good, start=start, end=end)],
            }
            status, _, doc = client.post("/v1/jobs", body)
            assert status == 400, (start, end, doc)
            assert "finite" in doc["error"]

    def test_a_non_finite_deadline_or_window_is_400(self, client, seeded_symptoms):
        # json.loads reads NaN / Infinity: a NaN deadline never expires
        # (every comparison with it is false), so such a job could
        # neither time out nor be detached as hung
        symptoms = [instance_to_dict(s) for s in seeded_symptoms[SHARD0_ROUTER]]
        for value in (float("nan"), float("inf"), float("-inf"), 10 ** 400):
            bodies = [
                {"kind": "diagnose", "app": "mini", "symptoms": symptoms,
                 "deadline": value},
                dict(RUN_JOB, deadline=value),
                dict(RUN_JOB, start=value),
                dict(RUN_JOB, end=value),
            ]
            for body in bodies:
                status, _, doc = client.post("/v1/jobs", body)
                assert status == 400, (body, doc)
                assert "finite" in doc["error"]

    def test_invalid_wait_is_400(self, client, seeded_symptoms):
        _, _, doc = submit_diagnose(client, seeded_symptoms[SHARD0_ROUTER])
        assert client.get(f"/v1/jobs/{doc['job_id']}?wait=soon")[0] == 400

    def test_unknown_resource_is_404(self, client):
        assert client.get("/v1/nope")[0] == 404
        assert client.get("/v2/jobs")[0] == 404
        assert client.get("/")[0] == 404

    def test_wrong_method_is_405(self, client):
        assert client.delete("/v1/apps")[0] == 405
        assert client.request("POST", "/v1/health", {})[0] == 405
        assert client.get("/v1/jobs")[0] == 405

    def test_unimplemented_verb_is_json_405_not_501(self, client):
        """PUT/PATCH have no route at all; clients still get the one
        JSON error shape, not the stdlib's bare 501 page."""
        for method in ("PUT", "PATCH"):
            status, _, doc = client.request(method, "/v1/apps", {"x": 1})
            assert status == 405, method
            assert "unsupported" in doc["error"], doc


def leaf_paths(doc, prefix=""):
    """``{dotted path: value}`` of every leaf of a JSON document; an
    empty object is a leaf of its own (``stages`` before any traced
    job)."""
    if not isinstance(doc, dict) or not doc:
        return {prefix: doc}
    out = {}
    for key, value in doc.items():
        out.update(leaf_paths(value, f"{prefix}.{key}" if prefix else key))
    return out


_SUMMARY = ("count", "mean", "p50", "p95", "max")

#: the leaf paths every shard snapshot must serve after untraced jobs:
#: what dashboards and the serve benchmark read
SHARD_PATHS = {
    *(f"jobs.{k}" for k in ("submitted", "rejected", "completed", "failed",
                            "cancelled", "timed_out", "quarantined")),
    *(f"recovery.{k}" for k in (
        "worker_crashes", "workers_restarted", "workers_detached",
        "jobs_retried", "jobs_failed_over", "jobs_shed",
        "supervisor_sweeps", "brownout_transitions", "brownout_active")),
    "symptoms_diagnosed",
    *(f"cache.{k}" for k in ("hits", "misses", "invalidations", "hit_rate")),
    "queue_depth", "queue_depth_peak", "workers_busy", "worker_busy_seconds",
    *(f"{h}.{k}" for h in ("queue_wait", "job_latency", "diagnosis_latency")
      for k in _SUMMARY),
    "stages", "worker_utilization",
    "storage.backend", "storage.tables", "storage.records",
    *(f"spatial_cache.{k}" for k in ("hits", "misses", "invalidations",
                                     "hit_rate")),
    *(f"health.{k}" for k in ("state", "quarantined", "workers_alive",
                              "workers")),
    "apps",
}
#: further paths a shard may serve: each gauge's high-water mark
SHARD_PATHS_ADDED = {"workers_busy_peak", "recovery.brownout_active_peak"}

#: the leaf paths the aggregate must serve
AGGREGATE_PATHS = {
    "shards",
    *(p for p in SHARD_PATHS if p.split(".")[0] in ("jobs", "recovery", "cache")),
    "symptoms_diagnosed", "queue_depth", "workers_busy",
    *(f"spatial_cache.{k}" for k in ("hits", "misses", "invalidations",
                                     "hit_rate")),
}
#: further paths the aggregate may serve: ``worker_busy_seconds`` is a
#: counter, so it sums
AGGREGATE_PATHS_ADDED = {"worker_busy_seconds"}
#: aggregate leaves that are not a sum over the shards
NOT_SUMMED = {"shards", "cache.hit_rate"}


class TestMetricsContract:
    """``GET /v1/metrics`` as the serve benchmark reads it: the paths it
    reads hold numbers, the document serves every contract path and no
    unlisted one, and the aggregate is the shards' sum."""

    @pytest.fixture
    def metrics(self, client, seeded_symptoms):
        for symptoms in seeded_symptoms.values():
            for _ in range(2):  # a miss, then a cache hit, on each shard
                _, _, doc = submit_diagnose(client, symptoms)
                client.wait_done(doc["job_id"])
        status, _, doc = client.get("/v1/metrics")
        assert status == 200
        return doc

    @staticmethod
    def is_number(value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    def test_the_benchmark_paths_hold_numbers(self, metrics):
        assert len(metrics["shards"]) == 2
        for shard in metrics["shards"]:
            for key in ("queue_wait", "job_latency"):
                for stat in ("count", "mean", "p50", "p95"):
                    assert self.is_number(shard[key][stat]), (key, stat)
                assert shard[key]["count"] >= 1
            assert self.is_number(shard["worker_busy_seconds"])
            assert shard["worker_busy_seconds"] > 0
            assert shard["health"]["workers"] == 2
        aggregate = metrics["aggregate"]
        for key in ("hits", "misses", "hit_rate"):
            assert self.is_number(aggregate["cache"][key]), key
        assert aggregate["cache"]["hits"] >= 1 and aggregate["cache"]["misses"] >= 1
        assert self.is_number(aggregate["jobs"]["rejected"])
        assert self.is_number(aggregate["recovery"]["jobs_retried"])

    def test_every_contract_path_is_served(self, metrics):
        for shard in metrics["shards"]:
            paths = set(leaf_paths(shard))
            assert SHARD_PATHS <= paths, SHARD_PATHS - paths
            assert paths - SHARD_PATHS <= SHARD_PATHS_ADDED, paths - SHARD_PATHS
        paths = set(leaf_paths(metrics["aggregate"]))
        assert AGGREGATE_PATHS <= paths, AGGREGATE_PATHS - paths
        assert paths - AGGREGATE_PATHS <= AGGREGATE_PATHS_ADDED, (
            paths - AGGREGATE_PATHS)

    def test_the_aggregate_is_the_sum_over_the_shards(self, metrics):
        shards = [leaf_paths(shard) for shard in metrics["shards"]]
        aggregate = leaf_paths(metrics["aggregate"])
        assert aggregate["shards"] == 2
        summed = [p for p in aggregate
                  if p not in NOT_SUMMED and not p.startswith("spatial_cache.")]
        assert summed
        for path in summed:
            assert self.is_number(aggregate[path]), path
            assert aggregate[path] == pytest.approx(
                sum(shard[path] for shard in shards)), path
        cache = metrics["aggregate"]["cache"]
        assert cache["hit_rate"] == pytest.approx(
            cache["hits"] / (cache["hits"] + cache["misses"]))


class TestOverload:
    def test_queue_full_is_429_with_retry_after(self, full_queue_gateway):
        """Saturate a 1-worker/depth-1 shard: the worker is parked on a
        blocked job, one job fills the queue, the next submit gets 429."""
        client = JsonClient(full_queue_gateway)
        assert client.post("/v1/jobs", dict(RUN_JOB, key="k1"))[0] == 202
        assert full_queue_gateway.parked.wait(timeout=10.0)
        assert client.post("/v1/jobs", dict(RUN_JOB, key="k2"))[0] == 202
        status, headers, doc = client.post("/v1/jobs", dict(RUN_JOB, key="k3"))
        assert status == 429
        assert headers.get("Retry-After") == "1"
        assert "refused" in doc["error"]

    def test_brownout_shed_is_503_with_retry_after(
        self, client, router2, seeded_symptoms
    ):
        """A degraded shard sheds periodic-priority work with 503; the
        other shard and interactive work keep flowing."""
        router2.shards[0].brownout._transition(ServiceHealth.DEGRADED, 0.0)
        symptoms = seeded_symptoms[SHARD0_ROUTER]
        status, headers, doc = submit_diagnose(
            client, symptoms, priority=20  # periodic band: shed threshold
        )
        assert status == 503
        assert headers.get("Retry-After") == "1"
        assert "shed" in doc["error"]
        # interactive work on the same degraded shard still admitted
        assert submit_diagnose(client, symptoms)[0] == 202
        # the healthy shard is untouched even at periodic priority
        ok, _, _ = submit_diagnose(
            client, seeded_symptoms[SHARD1_ROUTER], priority=20
        )
        assert ok == 202

    def test_degraded_health_is_503(self, client, router2):
        router2.shards[0].brownout._transition(ServiceHealth.DEGRADED, 0.0)
        status, _, doc = client.get("/v1/health")
        assert status == 503
        assert doc["status"] == "degraded"
        assert doc["shards"][0]["state"] == "degraded"


class TestHttpPlumbing:
    def test_keep_alive_serves_multiple_requests(self, gateway):
        conn = http.client.HTTPConnection(gateway.host, gateway.port, timeout=30)
        try:
            for _ in range(3):  # same socket, three requests
                conn.request("GET", "/v1/apps")
                response = conn.getresponse()
                assert response.status == 200
                assert json.loads(response.read())["apps"] == ["mini"]
        finally:
            conn.close()

    def test_concurrent_longpoll_does_not_block_submits(
        self, client, seeded_symptoms
    ):
        """A long-poll on one connection must not serialize the server:
        submits on other connections complete while it waits."""
        _, _, doc = submit_diagnose(client, seeded_symptoms[SHARD1_ROUTER])
        waiter_done = threading.Event()
        results = {}

        def longpoll():
            results["doc"] = client.wait_done(doc["job_id"], seconds=20)
            waiter_done.set()

        thread = threading.Thread(target=longpoll, daemon=True)
        thread.start()
        status, _, _ = submit_diagnose(client, seeded_symptoms[SHARD0_ROUTER])
        assert status == 202
        assert waiter_done.wait(timeout=30.0)
        assert results["doc"]["state"] == "done"

    def test_context_manager_stops_cleanly(self, mini_app):
        service = RcaService(store=mini_app.store, workers=1)
        service.register_app("mini", mini_app)
        service.start()
        with RcaGateway(ShardRouter([service])) as gw:
            client_status = http.client.HTTPConnection(
                gw.host, gw.port, timeout=30
            )
            client_status.request("GET", "/v1/health")
            assert client_status.getresponse().status == 200
            client_status.close()
        # __exit__ shut the shards down too
        assert not service.available
