"""Tests for event definitions, instances and the library."""

import copy
import pickle
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.collector.store import DataStore
from repro.core.events import (
    EMPTY,
    CandidateSet,
    EventDefinition,
    EventInstance,
    EventLibrary,
    RetrievalContext,
    retrieve_events,
)
from repro.core.locations import Location, LocationType


NAN, INF = float("nan"), float("inf")


def make_context(**params):
    return RetrievalContext(store=DataStore(), start=0.0, end=100.0, params=params)


def constant_retrieval(rows):
    return lambda context: list(rows)


class TestEventInstance:
    def test_make_and_accessors(self):
        instance = EventInstance.make(
            "link-congestion", 10.0, 20.0, Location.interface("r1:se0/0"), util=97.0
        )
        assert instance.interval == (10.0, 20.0)
        assert instance.duration == 10.0
        assert instance.get("util") == 97.0
        assert instance.get("missing", -1) == -1

    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            EventInstance.make("x", 20.0, 10.0, Location.router("r1"))

    @pytest.mark.parametrize(
        "start, end", [(NAN, 10.0), (-INF, 10.0), (10.0, INF), (10.0, NAN), (NAN, NAN)]
    )
    def test_non_finite_interval_rejected(self, start, end):
        with pytest.raises(ValueError, match="finite start <= end"):
            EventInstance.make("x", start, end, Location.router("r1"))

    def test_point_event_allowed(self):
        instance = EventInstance.make("x", 10.0, 10.0, Location.router("r1"))
        assert instance.duration == 0.0

    def test_str(self):
        instance = EventInstance.make("x", 10.0, 20.0, Location.router("r1"))
        assert "x@router[r1]" in str(instance)


    def test_cached_hash_lives_in_a_slot(self):
        # the hash is kept in a declared field: hashing must not cost a
        # per-instance __dict__, and the copy protocols must not carry a
        # stale value into a different instance
        location = Location.pair(LocationType.INGRESS_EGRESS, "a", "b")
        instance = EventInstance.make("x", 10.0, 20.0, location, util=97.0)
        for obj in (instance, location):
            value = hash(obj)
            assert not hasattr(obj, "__dict__")
            assert hash(obj) == value == hash(copy.copy(obj))
            clone = pickle.loads(pickle.dumps(obj))
            assert clone == obj and hash(clone) == value
            assert "_hash" not in repr(obj)
            with pytest.raises(FrozenInstanceError):
                obj._hash = 1
        moved = replace(instance, start=11.0)
        assert moved != instance and hash(moved) != hash(instance)
        assert hash(moved) == hash(EventInstance.make("x", 11.0, 20.0, location, util=97.0))
        assert replace(location, parts=("a", "c")) == Location.pair(
            LocationType.INGRESS_EGRESS, "a", "c"
        )
        with pytest.raises(TypeError):
            EventInstance("x", 10.0, 20.0, location, (), 5)  # not an init argument


class TestEventDefinition:
    def test_retrieve_sorts_rows_and_stamps_the_name(self):
        loc = Location.router("r1")
        rows = [(20.0, 21.0, loc, ()), (10.0, 11.0, loc, (("util", 97.0),))]
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval(rows))
        retrieved = definition.retrieve(make_context())
        assert isinstance(retrieved, CandidateSet)
        assert list(retrieved) == [
            EventInstance.make("e", 10.0, 11.0, loc, util=97.0),
            EventInstance.make("e", 20.0, 21.0, loc),
        ]

    def test_equal_intervals_keep_retrieval_order(self):
        # the sort key is (start, end) only: whole rows are never compared
        rows = [
            (5.0, 6.0, Location.router(name), (("k", k),))
            for k, name in enumerate(["r3", "r1", "r2", "r1"])
        ]
        rows.insert(1, (1.0, 9.0, Location.router("r9"), ()))
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval(rows))
        retrieved = definition.retrieve(make_context())
        assert list(retrieved.rows()) == [rows[1], rows[0], *rows[2:]]

    def test_retrieve_rejects_an_instance(self):
        bad = [EventInstance.make("e", 0.0, 1.0, Location.router("r1"))]
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval(bad))
        with pytest.raises(ValueError, match="'e'.*row"):
            definition.retrieve(make_context())

    @pytest.mark.parametrize("bad", [(0.0, 1.0, Location.router("r1")), 7, None])
    def test_retrieve_rejects_what_is_not_a_row(self, bad):
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval([bad]))
        with pytest.raises(ValueError, match="'e'"):
            definition.retrieve(make_context())

    def test_retrieve_rejects_wrong_location_type(self):
        bad = [(0.0, 1.0, Location.interface("r1:se0/0"), ())]
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval(bad))
        with pytest.raises(ValueError, match="location type"):
            definition.retrieve(make_context())

    @pytest.mark.parametrize(
        "start, end",
        [(2.0, 1.0), (NAN, 1.0), (-INF, 1.0), (0.0, INF), (0.0, NAN), (INF, INF)],
    )
    def test_retrieve_rejects_a_bad_interval(self, start, end):
        bad = [(start, end, Location.router("r1"), ())]
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval(bad))
        with pytest.raises(ValueError, match="finite start <= end"):
            definition.retrieve(make_context())

    def test_nothing_found_is_the_shared_empty_set(self):
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval([]))
        assert definition.retrieve(make_context()) is EMPTY
        assert len(EMPTY) == 0 and list(EMPTY) == []

    def test_redefined_keeps_identity(self):
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval([]))
        new = definition.redefined(
            constant_retrieval([(0.0, 1.0, Location.router("r"), ())]),
            description="stricter",
        )
        assert new.name == "e"
        assert new.description == "stricter"
        assert len(new.retrieve(make_context())) == 1


class TestCandidateSet:
    def candidates(self):
        rows = [
            (float(k), float(k) + 1.0, Location.router(f"r{k % 2}"), (("k", k),))
            for k in range(4)
        ]
        return EventDefinition(
            "e", LocationType.ROUTER, constant_retrieval(rows)
        ).retrieve(make_context())

    def test_a_row_becomes_an_instance_once_and_only_when_read(self):
        candidates = self.candidates()
        assert not candidates._instances
        second = candidates[1]
        assert second == EventInstance("e", 1.0, 2.0, Location.router("r1"), (("k", 1),))
        assert candidates[1] is second
        assert list(candidates._instances) == [1]
        assert [i.get("k") for i in candidates] == [0, 1, 2, 3]
        assert list(candidates)[1] is second

    def test_join_columns_are_the_retrieved_columns(self):
        candidates = self.candidates()
        columns = candidates.columns
        assert columns.starts is candidates.starts and columns.ends is candidates.ends
        assert candidates.columns is columns
        assert {parts: rows for parts, (_, rows) in candidates.location_index.items()} == {
            ("r0",): [0, 2], ("r1",): [1, 3],
        }
        assert not candidates._instances  # no row was read


class TestRetrievalContext:
    def test_params_and_services(self):
        context = RetrievalContext(
            store=DataStore(), start=0, end=1, params={"threshold": 90},
            services={"ospf": "handle"},
        )
        assert context.param("threshold") == 90
        assert context.param("missing", 5) == 5
        assert context.service("ospf") == "handle"

    def test_missing_service_raises_with_inventory(self):
        context = RetrievalContext(store=DataStore(), start=0, end=1)
        with pytest.raises(KeyError, match="available"):
            context.service("ospf")


class TestEventLibrary:
    def test_register_and_get(self):
        library = EventLibrary()
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval([]))
        library.register(definition)
        assert library.get("e") is definition
        assert "e" in library

    def test_duplicate_register_rejected(self):
        library = EventLibrary()
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval([]))
        library.register(definition)
        with pytest.raises(ValueError):
            library.register(definition)

    def test_override_replaces(self):
        library = EventLibrary()
        library.register(EventDefinition("e", LocationType.ROUTER, constant_retrieval([])))
        replacement = EventDefinition("e", LocationType.ROUTER, constant_retrieval([]))
        library.override(replacement)
        assert library.get("e") is replacement

    def test_scoped_library_sees_base_but_overrides_locally(self):
        base = EventLibrary()
        shared = EventDefinition("e", LocationType.ROUTER, constant_retrieval([]))
        base.register(shared)
        app = base.scoped()
        assert app.get("e") is shared
        local = EventDefinition("e", LocationType.ROUTER, constant_retrieval([]))
        app.override(local)
        assert app.get("e") is local
        assert base.get("e") is shared  # base untouched

    def test_names_union(self):
        base = EventLibrary()
        base.register(EventDefinition("a", LocationType.ROUTER, constant_retrieval([])))
        app = base.scoped()
        app.register(EventDefinition("b", LocationType.ROUTER, constant_retrieval([])))
        assert app.names() == ["a", "b"]

    def test_missing_event_raises(self):
        with pytest.raises(KeyError):
            EventLibrary().get("ghost")

    def test_retrieve_events_helper(self):
        library = EventLibrary()
        loc = Location.router("r1")
        library.register(
            EventDefinition(
                "e",
                LocationType.ROUTER,
                constant_retrieval([(0.0, 1.0, loc, ())]),
            )
        )
        result = retrieve_events(library, ["e"], make_context())
        assert len(result["e"]) == 1
