"""Tests for the watermark-keyed result cache and its invalidation."""

from dataclasses import dataclass, field
from typing import Tuple

import pytest

from repro.collector import store as store_module
from repro.collector.store import DataStore, Record
from repro.core.events import EventInstance
from repro.core.locations import Location
from repro.service.cache import CacheKey, ResultCache, cache_key
from repro.service.metrics import ServiceMetrics


@dataclass
class FakeDiagnosis:
    """Stands in for a Diagnosis: the cache only needs ``footprint``."""

    label: str
    footprint: Tuple = field(default_factory=tuple)


def landed(store, table, *timestamps):
    """One batch of late records landing in ``table``."""
    store.table(table).insert_many([Record.make(t) for t in timestamps])


def symptom(start=1000.0, router="nyc-per1", name="s"):
    return EventInstance.make(name, start, start + 5.0, Location.router(router))


class TestCacheKey:
    def test_same_symptom_same_key(self):
        assert cache_key("app", symptom(), "fp") == cache_key("app", symptom(), "fp")

    def test_key_varies_by_app_fingerprint_and_symptom(self):
        base = cache_key("app", symptom(), "fp")
        assert cache_key("other", symptom(), "fp") != base
        assert cache_key("app", symptom(), "fp2") != base
        assert cache_key("app", symptom(start=2000.0), "fp") != base
        assert cache_key("app", symptom(router="chi-per1"), "fp") != base

    def test_sub_tenth_second_jitter_collapses(self):
        # identity rounds start to 0.1 s, matching the streaming dedupe
        assert cache_key("app", symptom(1000.01), "fp") == cache_key(
            "app", symptom(1000.04), "fp"
        )


class TestLookupAndStore:
    def test_miss_then_hit(self):
        metrics = ServiceMetrics()
        cache = ResultCache(DataStore(), metrics=metrics)
        key = cache_key("app", symptom(), "fp")
        assert cache.lookup(key) is None
        diagnosis = FakeDiagnosis("d", (("ta", 970.0, 1030.0),))
        assert cache.store(key, diagnosis, store_revision=0)
        assert cache.lookup(key) is diagnosis
        assert metrics.cache_misses.value == 1
        assert metrics.cache_hits.value == 1

    def test_restore_replaces_entry_without_duplicating_index(self):
        cache = ResultCache(DataStore())
        key = cache_key("app", symptom(), "fp")
        cache.store(key, FakeDiagnosis("v1", (("ta", 0.0, 10.0),)), 0)
        cache.store(key, FakeDiagnosis("v2", (("ta", 0.0, 10.0),)), 0)
        assert len(cache) == 1
        assert cache.lookup(key).label == "v2"
        assert list(cache._footprints._by_table["ta"]) == [key]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultCache(DataStore(), capacity=0)


class TestLru:
    def test_oldest_entry_evicted_at_capacity(self):
        cache = ResultCache(DataStore(), capacity=2)
        keys = [cache_key("app", symptom(1000.0 + 100 * i), "fp") for i in range(3)]
        for i, key in enumerate(keys):
            cache.store(key, FakeDiagnosis(str(i)), 0)
        assert cache.lookup(keys[0]) is None
        assert cache.lookup(keys[1]) is not None
        assert cache.lookup(keys[2]) is not None

    def test_lookup_refreshes_recency(self):
        cache = ResultCache(DataStore(), capacity=2)
        keys = [cache_key("app", symptom(1000.0 + 100 * i), "fp") for i in range(3)]
        cache.store(keys[0], FakeDiagnosis("0"), 0)
        cache.store(keys[1], FakeDiagnosis("1"), 0)
        cache.lookup(keys[0])  # 0 becomes most recent
        cache.store(keys[2], FakeDiagnosis("2"), 0)
        assert cache.lookup(keys[0]) is not None
        assert cache.lookup(keys[1]) is None

    def test_eviction_also_unindexes(self):
        cache = ResultCache(DataStore(), capacity=1)
        first = cache_key("app", symptom(1000.0), "fp")
        second = cache_key("app", symptom(2000.0), "fp")
        cache.store(first, FakeDiagnosis("0", (("ta", 0.0, 10.0),)), 0)
        cache.store(second, FakeDiagnosis("1", (("ta", 20.0, 30.0),)), 0)
        assert first not in cache._footprints._by_table["ta"]

    def test_churn_of_two_window_footprints_leaks_no_index_key(self):
        # two disjoint windows on one table index the key once, not
        # twice: nothing is left behind when the entry goes
        cache = ResultCache(DataStore(), capacity=2)
        footprint = (("ta", 0.0, 10.0), ("ta", 100.0, 110.0))
        for i in range(50):
            key = cache_key("app", symptom(1000.0 + 100 * i), "fp")
            assert cache.store(key, FakeDiagnosis(str(i), footprint), 0)
        assert len(cache) == 2
        assert sorted(cache._footprints._by_table["ta"]) == sorted(cache.keys())
        assert sum(len(keys) for keys in cache._footprints._by_table.values()) <= cache.capacity


class TestInvalidation:
    def test_record_inside_footprint_evicts_exactly_that_entry(self):
        metrics = ServiceMetrics()
        store = DataStore()
        cache = ResultCache(store, metrics=metrics)
        early = cache_key("app", symptom(1000.0), "fp")
        late = cache_key("app", symptom(5000.0), "fp")
        cache.store(early, FakeDiagnosis("e", (("ta", 970.0, 1030.0),)), 0)
        cache.store(late, FakeDiagnosis("l", (("ta", 4970.0, 5030.0),)), 0)

        landed(store, "ta", 1010.0)  # inside early's window
        assert cache.lookup(early) is None
        assert cache.lookup(late) is not None
        assert metrics.cache_invalidations.value == 1

    def test_batch_evicts_every_entry_any_of_its_records_lands_in(self):
        metrics = ServiceMetrics()
        store = DataStore()
        cache = ResultCache(store, metrics=metrics)
        keys = [cache_key("app", symptom(1000.0 * i), "fp") for i in (1, 5, 9)]
        for i, key in zip((1, 5, 9), keys):
            window = (("ta", 1000.0 * i - 30.0, 1000.0 * i + 30.0),)
            cache.store(key, FakeDiagnosis(str(i), window), 0)
        # one batch, arrival order: hits the 5000 and 1000 windows only
        landed(store, "ta", 5010.0, 7000.0, 990.0)
        assert [cache.lookup(key) is None for key in keys] == [True, True, False]
        assert metrics.cache_invalidations.value == 2
        # every row of the batch is logged under its own revision
        assert store.changes_since(1) == (3, {"ta": [990.0, 7000.0]})

    def test_entry_reading_two_landed_tables_is_evicted_once(self):
        metrics = ServiceMetrics()
        store = DataStore()
        cache = ResultCache(store, metrics=metrics)
        key = cache_key("app", symptom(), "fp")
        footprint = (("ta", 970.0, 1030.0), ("tb", 970.0, 1030.0))
        cache.store(key, FakeDiagnosis("d", footprint), 0)
        landed(store, "ta", 1000.0)
        landed(store, "tb", 1001.0)
        assert cache.lookup(key) is None
        assert metrics.cache_invalidations.value == 1

    def test_record_in_other_table_evicts_nothing(self):
        store = DataStore()
        cache = ResultCache(store)
        key = cache_key("app", symptom(), "fp")
        cache.store(key, FakeDiagnosis("d", (("ta", 970.0, 1030.0),)), 0)
        landed(store, "tb", 1000.0)
        landed(store, "ta", 2000.0)  # outside the window
        assert cache.lookup(key) is not None

    def test_invalidate_all(self):
        cache = ResultCache(DataStore())
        for i in range(3):
            cache.store(
                cache_key("app", symptom(1000.0 + i * 100), "fp"),
                FakeDiagnosis(str(i)),
                0,
            )
        assert cache.invalidate_all() == 3
        assert len(cache) == 0

    def test_log_that_cannot_say_evicts_everything(self, monkeypatch):
        monkeypatch.setattr(store_module, "CHANGE_LOG_ROWS", 2)
        metrics = ServiceMetrics()
        store = DataStore()
        cache = ResultCache(store, metrics=metrics)
        key = cache_key("app", symptom(), "fp")
        cache.store(key, FakeDiagnosis("d", (("ta", 970.0, 1030.0),)), 0)
        for i in range(4):  # all far from the window; the log keeps two
            landed(store, "ta", 9000.0 + i)
        assert cache.lookup(key) is None
        assert metrics.cache_invalidations.value == 1
        # caught up again: entries stored now survive irrelevant rows
        assert cache.store(key, FakeDiagnosis("d", (("ta", 970.0, 1030.0),)), 4)
        landed(store, "ta", 9100.0)
        assert cache.lookup(key) is not None

    def test_attached_store_drives_eviction(self):
        store = DataStore()
        cache = ResultCache(store)
        key = cache_key("app", symptom(), "fp")
        cache.store(key, FakeDiagnosis("d", (("ta", 970.0, 1030.0),)), 0)
        store.insert("ta", 1000.0, router="nyc-per1")  # late record lands
        assert len(cache) == 0 and cache.keys() == []  # no read needed to see it
        assert cache.lookup(key) is None
        # nothing was registered with the store: ingest ran no cache code
        cache.store(key, FakeDiagnosis("d", (("ta", 970.0, 1030.0),)), store.revision)
        store.insert("ta", 2000.0, router="nyc-per1")
        assert cache.lookup(key) is not None


class TestWriteRaceSafety:
    def test_result_raced_by_relevant_insert_is_refused(self):
        store = DataStore()
        cache = ResultCache(store)
        key = cache_key("app", symptom(), "fp")
        landed(store, "tz", 1.0, 2.0, 3.0, 4.0)
        # computation started at revision 4; a record landed (revision 5)
        # inside the footprint before the result was published
        landed(store, "ta", 1000.0)
        stale = FakeDiagnosis("stale", (("ta", 970.0, 1030.0),))
        assert not cache.store(key, stale, store_revision=4)
        assert cache.lookup(key) is None

    def test_irrelevant_insert_does_not_block_publication(self):
        store = DataStore()
        cache = ResultCache(store)
        key = cache_key("app", symptom(), "fp")
        landed(store, "tz", 1.0, 2.0, 3.0, 4.0)
        landed(store, "tb", 1000.0)  # different table
        landed(store, "ta", 9000.0)  # outside the window
        diagnosis = FakeDiagnosis("ok", (("ta", 970.0, 1030.0),))
        assert cache.store(key, diagnosis, store_revision=4)

    def test_insert_seen_before_computation_is_ignored(self):
        store = DataStore()
        cache = ResultCache(store)
        key = cache_key("app", symptom(), "fp")
        landed(store, "tz", 1.0, 2.0, 3.0, 4.0)
        landed(store, "ta", 1000.0)
        diagnosis = FakeDiagnosis("ok", (("ta", 970.0, 1030.0),))
        # revision 5 was already visible when the diagnosis started
        assert cache.store(key, diagnosis, store_revision=5)

    def test_truncated_log_refuses_unprovable_results(self, monkeypatch):
        monkeypatch.setattr(store_module, "CHANGE_LOG_ROWS", 2)
        store = DataStore()
        cache = ResultCache(store)
        for revision in range(1, 14):  # the log now holds only 12, 13
            landed(store, "tz", 0.0)
        key = cache_key("app", symptom(), "fp")
        diagnosis = FakeDiagnosis("d", (("ta", 970.0, 1030.0),))
        # computation started at revision 3: the log cannot prove no
        # relevant insert happened in (3, 12) — must refuse
        assert not cache.store(key, diagnosis, store_revision=3)
        # a current computation is still provable and cacheable
        assert cache.store(key, diagnosis, store_revision=13)


class TestMutationsSince:
    """What the cache reads: the store's ``changes_since``."""

    def test_returns_newer_mutations(self):
        store = DataStore()
        for revision in range(1, 5):
            landed(store, "ta", float(revision))
        assert store.changes_since(2) == (4, {"ta": [3.0, 4.0]})
        assert store.changes_since(4) == (4, {})

    def test_groups_by_table_with_sorted_timestamps(self):
        store = DataStore()
        for table, timestamp in [("ta", 9.0), ("tb", 2.0), ("ta", 1.0)]:
            landed(store, table, timestamp)
        assert store.changes_since(0) == (3, {"ta": [1.0, 9.0], "tb": [2.0]})

    def test_log_behind_the_store_head_returns_none(self):
        store = DataStore()
        landed(store, "ta", 1.0)
        # a reader that says it saw revision 2 of a store at revision 1
        # looked at some other store: this log cannot vouch for it
        assert store.changes_since(2) == (1, None)
        assert store.changes_since(-1) == (1, None)

    def test_gap_in_log_returns_none(self, monkeypatch):
        monkeypatch.setattr(store_module, "CHANGE_LOG_ROWS", 2)
        store = DataStore()
        for revision in range(1, 6):  # the log holds only 4, 5
            landed(store, "ta", float(revision))
        assert store.changes_since(1) == (5, None)
        assert store.changes_since(3) == (5, {"ta": [4.0, 5.0]})
