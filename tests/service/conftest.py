"""Fixtures for the service-layer tests: a tiny deterministic RCA app.

The app diagnoses symptom ``s`` (rows of table ``ts``) against causes
``a`` (table ``ta``, feed ``syslog``) and ``b`` (table ``tb``, feed
``snmp``) with the graph ``s -> a -> b``.  Small enough that tests can
reason about every footprint window and cache entry exactly.
"""

import pytest

from repro.collector.health import HealthRegistry
from repro.collector.store import DataStore
from repro.core.engine import EngineConfig, RcaEngine
from repro.core.events import (
    EventDefinition,
    EventLibrary,
    RetrievalContext,
)
from repro.core.graph import DiagnosisGraph, DiagnosisRule
from repro.core.locations import Location, LocationType
from repro.core.spatial import JoinLevel, SpatialJoinRule
from repro.core.temporal import ExpandOption, TemporalExpansion, TemporalJoinRule

ROUTER_JOIN = SpatialJoinRule(
    LocationType.ROUTER, LocationType.ROUTER, JoinLevel.ROUTER
)


def _table_event(name, table, data_source=""):
    def retrieve(context: RetrievalContext):
        columns = context.store.table(table).query_columns(context.start, context.end)
        for timestamp, router in zip(columns.timestamps, columns.column("router")):
            yield timestamp, timestamp, Location.router(router), ()

    return EventDefinition(
        name, LocationType.ROUTER, retrieve, data_source=data_source
    )


def _temporal(left=30.0, right=30.0):
    expansion = TemporalExpansion(ExpandOption.START_END, left, right)
    return TemporalJoinRule(expansion, expansion)


class MiniApp:
    """Smallest object satisfying the service's app protocol."""

    def __init__(self, engine: RcaEngine, library: EventLibrary, store: DataStore):
        self.engine = engine
        self.library = library
        self.store = store

    def find_symptoms(self, start, end, tracer=None):
        return self.engine.find_symptoms(start, end, tracer)


@pytest.fixture
def health_registry():
    return HealthRegistry()


@pytest.fixture
def mini_app(resolver, health_registry):
    store = DataStore()
    library = EventLibrary()
    library.register(_table_event("s", "ts", data_source="syslog"))
    library.register(_table_event("a", "ta", data_source="syslog"))
    library.register(_table_event("b", "tb", data_source="snmp"))
    graph = DiagnosisGraph(symptom_event="s", name="mini")
    graph.add_rule(DiagnosisRule("s", "a", _temporal(), ROUTER_JOIN, priority=10))
    graph.add_rule(DiagnosisRule("a", "b", _temporal(), ROUTER_JOIN, priority=20))
    engine = RcaEngine(
        graph, library, resolver, store, config=EngineConfig(health=health_registry)
    )
    return MiniApp(engine, library, store)


@pytest.fixture
def seed_scene():
    """Seeder: n symptoms, causes cycling a / b / unexplained."""

    def _seed(store: DataStore, n: int = 6, spacing: float = 500.0,
              start: float = 1000.0, router: str = "nyc-per1"):
        times = []
        for i in range(n):
            t = start + i * spacing
            store.insert("ts", t, router=router)
            if i % 3 == 0:
                store.insert("ta", t - 10.0, router=router)
            elif i % 3 == 1:
                store.insert("ta", t - 5.0, router=router)
                store.insert("tb", t - 15.0, router=router)
            times.append(t)
        return times

    return _seed
