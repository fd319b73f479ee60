"""Tests for refined (derived) event signatures — the cyclic-causality
workaround of Sections IV-B / VI."""

import pytest

from repro.collector.store import DataStore
from repro.core.events import EventDefinition, RetrievalContext
from repro.core.knowledge.derived import exclude_preceded_by, require_preceded_by
from repro.core.locations import Location, LocationType


def table_backed(name, table):
    def retrieve(context):
        columns = context.store.table(table).query_columns(context.start, context.end)
        for timestamp, router in zip(columns.timestamps, columns.column("router")):
            yield timestamp, timestamp, Location.router(router), ()

    return EventDefinition(name, LocationType.ROUTER, retrieve)


@pytest.fixture
def setup():
    store = DataStore()
    cpu = table_backed("cpu-high", "cpu")
    flap = table_backed("bgp-flap-burst", "flaps")
    exogenous = exclude_preceded_by(
        "cpu-high-exogenous", cpu, flap, window=120.0
    )
    induced = require_preceded_by(
        "cpu-high-flap-induced", cpu, flap, window=120.0
    )
    return store, exogenous, induced


def ctx(store, start=0.0, end=10000.0):
    return RetrievalContext(store=store, start=start, end=end)


class TestExcludePrecededBy:
    def test_cycle_case_suppressed(self, setup):
        """CPU high right after a flap burst = flap-induced; excluded."""
        store, exogenous, induced = setup
        store.insert("flaps", 1000.0, router="r1")
        store.insert("cpu", 1030.0, router="r1")
        assert list(exogenous.retrieve(ctx(store))) == []
        assert len(induced.retrieve(ctx(store))) == 1

    def test_exogenous_case_kept(self, setup):
        store, exogenous, induced = setup
        store.insert("cpu", 1030.0, router="r1")  # no preceding flap
        kept = exogenous.retrieve(ctx(store))
        assert len(kept) == 1
        assert kept[0].name == "cpu-high-exogenous"
        assert list(induced.retrieve(ctx(store))) == []

    def test_suppressor_outside_window_ignored(self, setup):
        store, exogenous, _induced = setup
        store.insert("flaps", 100.0, router="r1")
        store.insert("cpu", 1030.0, router="r1")  # 930 s later: unrelated
        assert len(exogenous.retrieve(ctx(store))) == 1

    def test_suppressor_on_other_router_ignored(self, setup):
        store, exogenous, _induced = setup
        store.insert("flaps", 1000.0, router="r2")
        store.insert("cpu", 1030.0, router="r1")
        assert len(exogenous.retrieve(ctx(store))) == 1

    def test_suppressor_after_base_ignored(self, setup):
        """A flap AFTER the CPU event does not explain it (beyond slack)."""
        store, exogenous, _induced = setup
        store.insert("cpu", 1000.0, router="r1")
        store.insert("flaps", 1060.0, router="r1")
        assert len(exogenous.retrieve(ctx(store))) == 1

    def test_suppressor_just_before_window_edge(self, setup):
        store, exogenous, _induced = setup
        store.insert("flaps", 1000.0, router="r1")
        store.insert("cpu", 1120.0, router="r1")  # exactly window edge
        assert list(exogenous.retrieve(ctx(store))) == []

    def test_suppressor_straddling_context_start_found(self, setup):
        """The suppressor lookup widens beyond the retrieval window."""
        store, exogenous, _induced = setup
        store.insert("flaps", 980.0, router="r1")
        store.insert("cpu", 1030.0, router="r1")
        # retrieval window starts after the flap
        assert list(exogenous.retrieve(ctx(store, start=1000.0))) == []

    def test_derived_definition_metadata(self, setup):
        _store, exogenous, induced = setup
        assert exogenous.location_type is LocationType.ROUTER
        assert "not preceded by" in exogenous.description
        assert "preceded by" in induced.description
