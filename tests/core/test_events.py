"""Tests for event definitions, instances and the library."""

import copy
import pickle
from dataclasses import FrozenInstanceError, replace

import pytest

from repro.collector.store import DataStore
from repro.core.events import (
    EventDefinition,
    EventInstance,
    EventLibrary,
    RetrievalContext,
    retrieve_events,
)
from repro.core.locations import Location, LocationType


def make_context(**params):
    return RetrievalContext(store=DataStore(), start=0.0, end=100.0, params=params)


def constant_retrieval(instances):
    return lambda context: list(instances)


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
    def test_retrieve_sorts_instances(self):
        loc = Location.router("r1")
        instances = [
            EventInstance.make("e", 20.0, 21.0, loc),
            EventInstance.make("e", 10.0, 11.0, loc),
        ]
        definition = EventDefinition(
            "e", LocationType.ROUTER, constant_retrieval(instances)
        )
        retrieved = definition.retrieve(make_context())
        assert [i.start for i in retrieved] == [10.0, 20.0]

    def test_retrieve_rejects_wrong_name(self):
        bad = [EventInstance.make("other", 0.0, 1.0, Location.router("r1"))]
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval(bad))
        with pytest.raises(ValueError):
            definition.retrieve(make_context())

    def test_retrieve_rejects_wrong_location_type(self):
        bad = [EventInstance.make("e", 0.0, 1.0, Location.interface("r1:se0/0"))]
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval(bad))
        with pytest.raises(ValueError):
            definition.retrieve(make_context())

    def test_redefined_keeps_identity(self):
        definition = EventDefinition("e", LocationType.ROUTER, constant_retrieval([]))
        new = definition.redefined(
            constant_retrieval([EventInstance.make("e", 0.0, 1.0, Location.router("r"))]),
            description="stricter",
        )
        assert new.name == "e"
        assert new.description == "stricter"
        assert len(new.retrieve(make_context())) == 1


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
                constant_retrieval([EventInstance.make("e", 0.0, 1.0, loc)]),
            )
        )
        result = retrieve_events(library, ["e"], make_context())
        assert len(result["e"]) == 1
