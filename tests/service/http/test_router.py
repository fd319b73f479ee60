"""ShardRouter: deterministic routing, qualified ids, isolation,
aggregated health and metrics."""

import zlib

import pytest

from repro.service import RcaService
from repro.service.http import ShardRouter, ShardUnavailable, build_shards
from repro.service.queue import JobState

from .conftest import SHARD0_ROUTER, SHARD1_ROUTER


class TestConstruction:
    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardRouter([])

    def test_build_shards_validates_count(self, mini_app):
        with pytest.raises(ValueError, match="at least 1"):
            build_shards(mini_app.store, shards=0)

    def test_build_shards_are_independent_services(self, mini_app):
        shards = build_shards(mini_app.store, shards=3, workers=1)
        assert len(shards) == 3
        assert all(isinstance(s, RcaService) for s in shards)
        assert len({id(s.queue) for s in shards}) == 3
        assert len({id(s.pool) for s in shards}) == 3
        assert all(s.store is mini_app.store for s in shards)
        for shard in shards:
            shard.shutdown(graceful=False, timeout=5.0)


class TestRouting:
    def test_shard_for_is_stable_crc32(self, router2):
        for key in ("alpha", "beta", "mini|s|nyc-per1"):
            expected = zlib.crc32(key.encode()) % 2
            assert router2.shard_for(key) == expected
            assert router2.shard_for(key) == expected  # deterministic

    def test_distinct_keys_reach_distinct_shards(
        self, router2, seeded_symptoms
    ):
        id1, _ = router2.submit_diagnosis("mini", seeded_symptoms[SHARD1_ROUTER])
        id0, _ = router2.submit_diagnosis("mini", seeded_symptoms[SHARD0_ROUTER])
        assert router2.resolve(id1)[0] == 1
        assert router2.resolve(id0)[0] == 0

    def test_same_key_always_same_shard(self, router2, seeded_symptoms):
        symptoms = seeded_symptoms[SHARD0_ROUTER]
        shards = {
            router2.resolve(router2.submit_diagnosis("mini", [s])[0])[0]
            for s in symptoms
        }
        assert shards == {0}  # same router location => same shard

    def test_explicit_key_overrides_default(self, router2, seeded_symptoms):
        symptoms = seeded_symptoms[SHARD0_ROUTER]
        key = "pin-me"
        pinned = router2.shard_for(key)
        job_id, _ = router2.submit_diagnosis("mini", symptoms, key=key)
        assert router2.resolve(job_id)[0] == pinned

    def test_empty_symptom_batch_rejected(self, router2):
        with pytest.raises(ValueError, match="at least one symptom"):
            router2.submit_diagnosis("mini", [])

    def test_run_key_routes_by_window(self, router2):
        key = ShardRouter.run_key("mini", 0.0, 100.0)
        job_id, job = router2.submit_run("mini", 0.0, 100.0)
        assert router2.resolve(job_id)[0] == router2.shard_for(key)
        assert job.wait(timeout=30.0)


class TestQualifiedIds:
    def test_qualify_resolve_roundtrip(self, router2, seeded_symptoms):
        job_id, job = router2.submit_diagnosis(
            "mini", seeded_symptoms[SHARD1_ROUTER]
        )
        shard, local = router2.resolve(job_id)
        assert job_id == f"{shard}.{local}"
        assert local == job.job_id
        assert router2.job(job_id) is job

    @pytest.mark.parametrize(
        "bad", ["", "7", "x.1", "1.x", "1.2.3x", "one.two"]
    )
    def test_malformed_ids_raise_keyerror(self, router2, bad):
        with pytest.raises(KeyError):
            router2.resolve(bad)

    def test_out_of_range_shard_raises_keyerror(self, router2):
        with pytest.raises(KeyError, match="names shard 5"):
            router2.resolve("5.1")

    def test_unknown_local_id_raises_keyerror(self, router2):
        with pytest.raises(KeyError, match="unknown job id"):
            router2.job("0.999")

    def test_poll_and_cancel_route_by_id(self, router2, seeded_symptoms):
        job_id, job = router2.submit_diagnosis(
            "mini", seeded_symptoms[SHARD0_ROUTER]
        )
        assert job.wait(timeout=30.0)
        assert router2.poll(job_id) is JobState.DONE
        assert router2.cancel(job_id) is False  # already terminal


class TestCorrectness:
    def test_routed_diagnoses_match_direct_engine(
        self, router2, mini_app, seeded_symptoms
    ):
        """The gateway's raison d'être: sharding changes nothing about
        the answers."""
        for symptoms in seeded_symptoms.values():
            direct = mini_app.engine.diagnose_all(symptoms)
            _, job = router2.submit_diagnosis("mini", symptoms)
            assert job.outcome(timeout=30.0) == direct


class TestIsolation:
    def test_wedged_shard_fails_only_its_keyspace(
        self, router2, seeded_symptoms
    ):
        router2.shards[0].shutdown(graceful=False, timeout=5.0)
        with pytest.raises(ShardUnavailable) as excinfo:
            router2.submit_diagnosis("mini", seeded_symptoms[SHARD0_ROUTER])
        assert excinfo.value.shard == 0
        # the other shard's keyspace is untouched
        _, job = router2.submit_diagnosis("mini", seeded_symptoms[SHARD1_ROUTER])
        assert job.outcome(timeout=30.0)

    def test_unstarted_shard_is_unavailable(self, mini_app):
        router = ShardRouter(build_shards(mini_app.store, shards=1, workers=1))
        router.register_app("mini", mini_app)
        try:
            with pytest.raises(ShardUnavailable):
                router.submit_run("mini", 0.0, 1.0)
        finally:
            router.shutdown(graceful=False, timeout=5.0)


class TestAggregation:
    def test_health_ok_when_all_shards_ok(self, router2):
        health = router2.health()
        assert health["status"] == "ok"
        assert [row["shard"] for row in health["shards"]] == [0, 1]
        assert all(row["available"] for row in health["shards"])

    def test_health_degrades_when_one_shard_down(self, router2):
        router2.shards[1].shutdown(graceful=False, timeout=5.0)
        health = router2.health()
        assert health["status"] == "degraded"
        rows = {row["shard"]: row for row in health["shards"]}
        assert rows[0]["available"] and not rows[1]["available"]

    def test_metrics_aggregate_sums_counters(self, router2, seeded_symptoms):
        for symptoms in seeded_symptoms.values():
            _, job = router2.submit_diagnosis("mini", symptoms)
            assert job.wait(timeout=30.0)
        metrics = router2.metrics()
        assert len(metrics["shards"]) == 2
        per_shard = [s["jobs"]["submitted"] for s in metrics["shards"]]
        assert per_shard == [1, 1]  # one batch per shard, by construction
        assert metrics["aggregate"]["jobs"]["submitted"] == 2
        assert metrics["aggregate"]["symptoms_diagnosed"] == 6
        assert metrics["aggregate"]["shards"] == 2

    def test_aggregate_recomputes_hit_rate(self, router2, seeded_symptoms):
        symptoms = seeded_symptoms[SHARD0_ROUTER]
        for _ in range(2):  # second submit is a pure cache hit
            _, job = router2.submit_diagnosis("mini", symptoms)
            assert job.wait(timeout=30.0)
        merged = router2.metrics()["aggregate"]["cache"]
        lookups = merged["hits"] + merged["misses"]
        assert merged["hit_rate"] == pytest.approx(merged["hits"] / lookups)

    def test_aggregate_spatial_cache_is_the_shared_resolvers_not_a_shard_sum(
        self, router2, mini_app, seeded_symptoms
    ):
        for symptoms in seeded_symptoms.values():  # work on both shards
            _, job = router2.submit_diagnosis("mini", symptoms)
            assert job.wait(timeout=30.0)
        truth = mini_app.engine.resolver.cache_stats()
        assert truth["misses"] > 0
        metrics = router2.metrics()
        merged = metrics["aggregate"]["spatial_cache"]
        assert merged["hits"] == truth["hits"]
        assert merged["misses"] == truth["misses"]
        assert merged["invalidations"] == truth["invalidations"]
        lookups = truth["hits"] + truth["misses"]
        assert merged["hit_rate"] == pytest.approx(truth["hits"] / lookups)
        # each shard reports the same shared resolver, whole
        for shard in metrics["shards"]:
            assert shard["spatial_cache"]["misses"] == truth["misses"]

    def test_apps_and_register_fan_out(self, router2):
        assert router2.apps() == ["mini"]
        assert all(s.apps() == ["mini"] for s in router2.shards)

    def test_drain_covers_all_shards(self, router2, seeded_symptoms):
        for symptoms in seeded_symptoms.values():
            router2.submit_diagnosis("mini", symptoms)
        assert router2.drain(timeout=30.0)
        for shard in router2.shards:
            assert len(shard.queue) == 0
