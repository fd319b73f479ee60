"""The footprint is the whole truth: a diagnosis is reproducible from
the rows it says it read.

Every cache over the store trusts a diagnosis's ``footprint`` — the
``(table, lo, hi)`` windows the engine read for it — to say which rows
could change it: ``FootprintIndex.catch_up`` re-opens or evicts an
answer only when a landed row falls inside one of those windows.  That
is sound only if nothing outside the windows mattered.  So, for every
``simulation.SCENARIOS`` workload at a small size, each diagnosis of a
forward batch run is diagnosed again by a fresh engine over a
``DataStore`` that holds *only* the rows inside its footprint windows:

* the document (``diagnosis_to_dict``) without ``footprint`` is equal;
* each window the cold run read lies inside a window of the original
  footprint — it asked for nothing the original did not.

No scenario's retrieval makes a ``distinct`` read, so a hand-built
world whose evidence is kept only for routers on a roster table's
``distinct`` list holds that read kind to the same check.  Routing
state (``GrcaPlatform.refresh_routing``) is shared with the original
engine: what the footprint says about the store is checked here, not
what it does not record.  Mutations that fail here: a
``FootprintObserver`` that records no ``distinct`` read (the roster
world), or that skips the first read of each retrieval (every
scenario).
"""

import dataclasses

import pytest

from repro.collector.store import DataStore
from repro.core.engine import RcaEngine
from repro.core.events import EventDefinition, EventInstance, EventLibrary
from repro.core.graph import DiagnosisGraph, DiagnosisRule
from repro.core.knowledge.cost_changes import CostChangeIndex
from repro.core.locations import Location, LocationType
from repro.core.serialize import diagnosis_to_dict
from repro.core.spatial import JoinLevel, LocationResolver, SpatialJoinRule
from repro.core.temporal import ExpandOption, TemporalExpansion, TemporalJoinRule
from repro.routing.ospf import OspfSimulator
from repro.routing.paths import IngressMap, PathService
from repro.simulation import SCENARIOS

SEED = 3
#: symptoms injected per scenario: 147 diagnoses in all at seed 3
SIZES = {
    "backbone-month": 10,
    "bgp-month": 40,
    "bgp-storm": 40,
    "cdn-month": 20,
    "pim-fortnight": 20,
}


def test_every_scenario_is_checked():
    assert set(SIZES) == set(SCENARIOS)


def footprint_rows(store, footprint):
    """A fresh store holding the rows of ``store`` inside ``footprint``."""
    cold = DataStore()
    for table, lo, hi in footprint:
        rows = store.table(table).query(lo, hi)
        if rows:
            cold.table(table).insert_many(rows)
    return cold


def cold_twin(engine, store):
    """An engine like ``engine`` over ``store``, with nothing cached —
    the cost-change index included, which remembers rows by position."""
    services = dict(engine.config.services, cost_changes=CostChangeIndex())
    return RcaEngine(
        engine.graph, engine.library, engine.resolver, store,
        dataclasses.replace(engine.config, services=services),
    )


def without_footprint(diagnosis):
    return {
        key: value
        for key, value in diagnosis_to_dict(diagnosis).items()
        if key != "footprint"
    }


def inside(window, footprint):
    table, lo, hi = window
    return any(
        table == other and other_lo <= lo and hi <= other_hi
        for other, other_lo, other_hi in footprint
    )


def assert_reproducible(engine, diagnoses):
    for diagnosis in diagnoses:
        assert diagnosis.footprint
        store = footprint_rows(engine.store, diagnosis.footprint)
        cold = cold_twin(engine, store).diagnose(diagnosis.symptom)
        assert without_footprint(cold) == without_footprint(diagnosis), (
            diagnosis.symptom
        )
        wider = [
            window for window in cold.footprint
            if not inside(window, diagnosis.footprint)
        ]
        assert wider == [], diagnosis.symptom


@pytest.mark.parametrize("scenario", sorted(SIZES))
def test_footprint_rows_alone_reproduce_the_diagnosis(scenario):
    workload = SCENARIOS[scenario]
    result = workload.build(SIZES[scenario], seed=SEED)
    engine = workload.app.build(result.platform()).engine
    diagnoses = engine.diagnose_all(engine.find_symptoms(result.start, result.end))
    assert len(diagnoses) >= 10
    assert_reproducible(engine, diagnoses)


def rostered_event(name, table):
    """Rows of ``table`` in the window whose router is on the roster."""

    def retrieve(context):
        roster = set(context.store.table("roster").distinct("router"))
        columns = context.store.table(table).query_columns(context.start, context.end)
        for timestamp, router in zip(columns.timestamps, columns.column("router")):
            if router in roster:
                yield timestamp, timestamp, Location.router(router), ()

    return EventDefinition(name, LocationType.ROUTER, retrieve)


def test_a_distinct_read_is_part_of_the_footprint(small_topology):
    network = small_topology.network
    resolver = LocationResolver(
        PathService(network=network, ospf=OspfSimulator(network), ingress_map=IngressMap())
    )
    library = EventLibrary()
    library.register(EventDefinition("s", LocationType.ROUTER, lambda context: ()))
    library.register(rostered_event("a", "ta"))
    window = TemporalExpansion(ExpandOption.START_END, 30.0, 30.0)
    join = SpatialJoinRule(LocationType.ROUTER, LocationType.ROUTER, JoinLevel.ROUTER)
    graph = DiagnosisGraph(symptom_event="s", name="roster")
    graph.add_rule(DiagnosisRule("s", "a", TemporalJoinRule(window, window), join, 10))
    store = DataStore()
    store.insert("roster", 0.0, router="nyc-per1")
    for router in ("nyc-per1", "chi-per1"):
        store.insert("ta", 1005.0, router=router)
    engine = RcaEngine(graph, library, resolver, store)
    diagnoses = engine.diagnose_all(
        EventInstance.make("s", 1000.0, 1010.0, Location.router(router))
        for router in ("nyc-per1", "chi-per1")
    )
    assert [d.primary_cause for d in diagnoses] == ["a", "Unknown"]
    assert_reproducible(engine, diagnoses)
