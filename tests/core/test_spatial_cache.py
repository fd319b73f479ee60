"""Tests for the routing-epoch resolution cache and batch spatial joins."""

import threading

import pytest

from repro.core.locations import Location, LocationType
from repro.core.spatial import JoinLevel, LocationResolver, SpatialJoinRule
from repro.obs import Tracer
from repro.routing.ospf import WeightChange

from ..oracles.resolver import ReferenceResolver

T = 1000.0


def make_resolver(path_service, **kwargs):
    return LocationResolver(path_service, **kwargs)


class TestCacheHitsAndMisses:
    def test_repeat_expansion_hits(self, path_service):
        resolver = make_resolver(path_service)
        loc = Location.router("nyc-per1")
        resolver.expand(loc, JoinLevel.INTERFACE, T)
        resolver.expand(loc, JoinLevel.INTERFACE, T)
        stats = resolver.cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_same_epoch_different_timestamp_hits(self, path_service):
        resolver = make_resolver(path_service)
        pair = Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "chi-per1")
        first = resolver.expand(pair, JoinLevel.ROUTER, T)
        # no routing change between the instants: same epoch, cache hit
        second = resolver.expand(pair, JoinLevel.ROUTER, T + 5.0)
        assert first == second
        assert resolver.cache_stats()["hits"] == 1

    def test_distinct_levels_are_distinct_entries(self, path_service):
        resolver = make_resolver(path_service)
        loc = Location.router("nyc-per1")
        resolver.expand(loc, JoinLevel.ROUTER, T)
        resolver.expand(loc, JoinLevel.INTERFACE, T)
        assert resolver.cache_stats()["misses"] == 2

    def test_cache_must_hold_at_least_one_entry(self, path_service):
        with pytest.raises(ValueError):
            make_resolver(path_service, cache_size=0)

    def test_clear_cache_forces_recompute(self, path_service):
        resolver = make_resolver(path_service)
        loc = Location.router("nyc-per1")
        resolver.expand(loc, JoinLevel.ROUTER, T)
        resolver.clear_cache()
        resolver.expand(loc, JoinLevel.ROUTER, T)
        stats = resolver.cache_stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 0


class TestInvalidation:
    def test_ospf_change_invalidates_path_expansion(self, path_service):
        resolver = make_resolver(path_service)
        pair = Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "chi-per1")
        resolver.expand(pair, JoinLevel.ROUTER, T)
        link = sorted(path_service.network.logical_links)[0]
        path_service.ospf.history.record(WeightChange(T - 10.0, link, 99))
        resolver.expand(pair, JoinLevel.ROUTER, T)
        stats = resolver.cache_stats()
        assert stats["misses"] == 2
        assert stats["invalidations"] == 1

    def test_bgp_announce_leaves_ospf_only_entries_alone(
        self, path_service, bgp_log
    ):
        resolver = make_resolver(path_service)
        pair = Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "chi-per1")
        resolver.expand(pair, JoinLevel.ROUTER, T)
        bgp_log.announce(T - 10.0, "198.51.100.0/24", "chi-per1")
        resolver.expand(pair, JoinLevel.ROUTER, T)
        stats = resolver.cache_stats()
        assert stats["hits"] == 1
        assert stats["invalidations"] == 0

    def test_bgp_announce_invalidates_destination_pair(
        self, path_service, bgp_log
    ):
        resolver = make_resolver(path_service)
        bgp_log.announce(0.0, "198.51.100.0/24", "chi-per1")
        pair = Location.pair(
            LocationType.INGRESS_DESTINATION, "nyc-per1", "198.51.100.9"
        )
        before = resolver.expand(pair, JoinLevel.ROUTER, T)
        assert "chi-per1" in before
        bgp_log.withdraw(T - 10.0, "198.51.100.0/24", "chi-per1")
        bgp_log.announce(T - 10.0, "198.51.100.0/24", "dfw-per1")
        after = resolver.expand(pair, JoinLevel.ROUTER, T)
        assert "dfw-per1" in after
        assert resolver.cache_stats()["invalidations"] == 1

    def test_unrelated_prefix_update_keeps_prefix_entry(
        self, path_service, bgp_log
    ):
        resolver = make_resolver(path_service)
        bgp_log.announce(0.0, "198.51.100.0/24", "chi-per1")
        loc = Location.prefix("198.51.100.0/24")
        resolver.expand(loc, JoinLevel.ROUTER, T)
        bgp_log.announce(500.0, "203.0.113.0/24", "dfw-per1")
        resolver.expand(loc, JoinLevel.ROUTER, T)
        assert resolver.cache_stats()["hits"] == 1


class TestEviction:
    def test_lru_bound_is_respected(self, path_service):
        resolver = make_resolver(path_service, cache_size=4)
        routers = sorted(path_service.network.routers)[:6]
        for name in routers:
            resolver.expand(Location.router(name), JoinLevel.ROUTER, T)
        stats = resolver.cache_stats()
        assert stats["size"] <= 4
        assert stats["evictions"] == 2

    def test_recently_used_entry_survives(self, path_service):
        resolver = make_resolver(path_service, cache_size=2)
        a, b, c = [
            Location.router(name)
            for name in sorted(path_service.network.routers)[:3]
        ]
        resolver.expand(a, JoinLevel.ROUTER, T)
        resolver.expand(b, JoinLevel.ROUTER, T)
        resolver.expand(a, JoinLevel.ROUTER, T)  # refresh a
        resolver.expand(c, JoinLevel.ROUTER, T)  # evicts b
        resolver.expand(a, JoinLevel.ROUTER, T)
        stats = resolver.cache_stats()
        assert stats["hits"] == 2


class TestTraceCounters:
    def test_cache_counters_land_on_open_span(self, path_service):
        resolver = make_resolver(path_service)
        loc = Location.router("nyc-per1")
        tracer = Tracer()
        with tracer.span("spatial-join", label="test") as span:
            resolver.expand(loc, JoinLevel.ROUTER, T, trace=tracer)
            resolver.expand(loc, JoinLevel.ROUTER, T, trace=tracer)
        assert span.meta["spatial_cache_misses"] == 1
        assert span.meta["spatial_cache_hits"] == 1


class TestBatchJoin:
    def test_batch_matches_one_shot_joins(self, path_service, small_topology):
        resolver = make_resolver(path_service)
        rule = SpatialJoinRule(
            LocationType.INGRESS_EGRESS, LocationType.ROUTER, JoinLevel.ROUTER
        )
        symptom = Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "chi-per1")
        candidates = [
            Location.router(name) for name in sorted(small_topology.network.routers)
        ]
        oracle = ReferenceResolver(path_service)
        batch = rule.batch(resolver, symptom, T)
        for candidate in candidates:
            assert batch.joined(candidate) == rule.joined(
                oracle, symptom, candidate, T
            )

    def test_symptom_expanded_lazily_and_once(self, path_service, small_topology):
        resolver = make_resolver(path_service)
        rule = SpatialJoinRule(
            LocationType.INGRESS_EGRESS, LocationType.ROUTER, JoinLevel.ROUTER
        )
        symptom = Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "chi-per1")
        batch = rule.batch(resolver, symptom, T)
        assert resolver.cache_stats()["misses"] == 0  # nothing yet
        for name in sorted(small_topology.network.routers)[:4]:
            batch.joined(Location.router(name))
        # one pair expansion + one per candidate; no re-expansion of the pair
        assert resolver.cache_stats()["misses"] == 5

    def test_batch_rejects_wrong_types(self, path_service):
        import pytest

        rule = SpatialJoinRule(
            LocationType.INGRESS_EGRESS, LocationType.ROUTER, JoinLevel.ROUTER
        )
        resolver = make_resolver(path_service)
        with pytest.raises(ValueError):
            rule.batch(resolver, Location.router("nyc-per1"), T)
        batch = rule.batch(
            resolver,
            Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "chi-per1"),
            T,
        )
        with pytest.raises(ValueError):
            batch.joined(Location.interface("nyc-per1:se0/0"))


class TestThreadSafety:
    def test_concurrent_expansions_are_consistent(self, path_service):
        resolver = make_resolver(path_service, cache_size=8)
        pair = Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "chi-per1")
        expected = resolver.expand(pair, JoinLevel.ROUTER, T)
        errors = []

        def worker():
            for _ in range(50):
                if resolver.expand(pair, JoinLevel.ROUTER, T) != expected:
                    errors.append("mismatch")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        stats = resolver.cache_stats()
        assert stats["hits"] + stats["misses"] == 201
