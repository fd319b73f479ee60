"""A change-log catch-up and a quiet advance do not grow with what is held.

Scale sweeps counted, not timed (``tests/budget.py``): one store holds
×1 / ×2 / ×4 symptoms, each diagnosed once, so the engine's retrieval
cache, the ``StreamingRca`` re-open set and a ``ResultCache`` each hold
one entry per symptom that read table ``wide``.  Only the first
``FEW`` symptoms have evidence that leads on to table ``few``, so a
handful of entries read it, at every scale.  All three owners keep
what they hold in a ``FootprintIndex``.

* **A late row into ``few``** lands behind how far that table's reads
  reach, between two of their windows: the catch-up looks at the
  entries that read ``few`` and no other (slope ≤ 0.15), through
  ``RcaEngine.sync``, ``ResultCache.lookup`` and ``StreamingRca.advance``.
  Before the one index, the engine and the stream swept every entry
  once a landed row was inside any table's reach.
* **An in-order row into ``wide``** lands past everything any read of
  that table reaches: the catch-up sweeps nothing (slope ≤ 0.15).
  Before, the result cache swept every entry that read the table.
* **A quiet advance** — nothing landed, nothing newly settled — costs
  the same however many symptoms are settled and covers cached: both
  horizon passes return on their oldest-end bound.

Mutations that fail here: sweeping every held key instead of the landed
table's (the late row), dropping the reach check (the in-order row), a
``forget_before`` without its oldest-end exit (the quiet advance).
"""

import pytest

from repro.collector.store import DataStore
from repro.core.engine import RcaEngine
from repro.core.events import EventDefinition, EventLibrary, RetrievalContext
from repro.core.graph import DiagnosisGraph, DiagnosisRule
from repro.core.locations import Location, LocationType
from repro.core.spatial import JoinLevel, LocationResolver, SpatialJoinRule
from repro.core.streaming import StreamingConfig, StreamingRca
from repro.core.temporal import ExpandOption, TemporalExpansion, TemporalJoinRule
from repro.routing.ospf import OspfSimulator
from repro.routing.paths import IngressMap, PathService
from repro.service.cache import ResultCache, cache_key

from ..budget import loglog_slope, profile_events

SCALES = (1, 2, 4)
#: symptoms held at ×1
SYMPTOMS = 30
#: symptoms whose diagnosis reads table ``few``, at every scale
FEW = 3
T0 = 1_000_020.0
#: seconds between symptoms: their bucketed windows never touch
STEP = 600.0
ROUTER = "nyc-per1"
#: "per-entry constant": the log-log slope of a cost over the scale
CONSTANT = 0.15
#: nothing ages out while the test runs
KEEP = StreamingConfig(dedupe_horizon=1e9, reopen_horizon=1e9)


def table_event(name, table):
    def retrieve(context: RetrievalContext):
        columns = context.store.table(table).query_columns(context.start, context.end)
        for timestamp, router in zip(columns.timestamps, columns.column("router")):
            yield timestamp, timestamp, Location.router(router), ()

    return EventDefinition(name, LocationType.ROUTER, retrieve)


def world(topology, symptoms):
    """An engine over ``s -> x -> y``, which read tables ``ts`` /
    ``wide`` / ``few``, with ``symptoms`` symptom rows and the ``x``
    evidence of the first ``FEW`` landed; and when the symptoms end."""
    network = topology.network
    resolver = LocationResolver(
        PathService(network=network, ospf=OspfSimulator(network), ingress_map=IngressMap())
    )
    library = EventLibrary()
    for name, table in (("s", "ts"), ("x", "wide"), ("y", "few")):
        library.register(table_event(name, table))
    window = TemporalExpansion(ExpandOption.START_END, 30.0, 30.0)
    join = SpatialJoinRule(LocationType.ROUTER, LocationType.ROUTER, JoinLevel.ROUTER)
    graph = DiagnosisGraph(symptom_event="s", name="catch-up")
    graph.add_rule(DiagnosisRule("s", "x", TemporalJoinRule(window, window), join, 10))
    graph.add_rule(DiagnosisRule("x", "y", TemporalJoinRule(window, window), join, 20))
    store = DataStore()
    starts = [T0 + STEP * k for k in range(symptoms)]
    for start in starts:
        store.insert("ts", start, router=ROUTER)
    for start in starts[:FEW]:
        store.insert("wide", start + 5.0, router=ROUTER)
    return RcaEngine(graph, library, resolver, store), starts[-1]


def late_into_few(store):
    # behind the reach of ``few``'s reads, between the first two windows
    # (a row inside a cover is ``test_stream_path.py``'s case)
    store.insert("few", T0 + STEP / 2, router=ROUTER)


def in_order_into_wide(store, last):
    store.insert("wide", last + 10 * STEP, router=ROUTER)


def through_engine(topology, symptoms, land):
    engine, last = world(topology, symptoms)
    engine.diagnose_all(engine.find_symptoms(T0 - STEP, last))
    assert len(engine._retrieval_cache) == symptoms + FEW
    land(engine.store, last)
    with profile_events() as events:
        assert engine.sync() == 0
    return events.total


def through_result_cache(topology, symptoms, land):
    engine, last = world(topology, symptoms)
    revision = engine.store.revision
    cache = ResultCache(engine.store)
    keys = []
    for diagnosis in engine.diagnose_all(engine.find_symptoms(T0 - STEP, last)):
        keys.append(cache_key("catch-up", diagnosis.symptom, "fp"))
        assert cache.store(keys[-1], diagnosis, revision)
    land(engine.store, last)
    with profile_events() as events:
        assert cache.lookup(keys[0]) is not None
    assert len(cache) == symptoms
    return events.total


def settled_stream(topology, symptoms):
    engine, last = world(topology, symptoms)
    stream = StreamingRca(engine, KEEP, start=T0 - STEP)
    now = last + 10 * STEP
    assert len(stream.advance(now)) == symptoms
    assert stream.advance(now) == []
    assert len(stream._settled) == symptoms
    assert len(engine._retrieval_cache) == symptoms + FEW
    return stream, now, last


def through_stream(topology, symptoms, land):
    stream, now, last = settled_stream(topology, symptoms)
    try:
        land(stream.engine.store, last)
        with profile_events() as events:
            assert stream.advance(now) == []
        assert stream.invalidated_count == stream.reopened_count == 0
        return events.total
    finally:
        stream.close()


def quiet_advance(topology, symptoms):
    stream, now, _last = settled_stream(topology, symptoms)
    try:
        with profile_events() as events:
            assert stream.advance(now) == []
        return events.total
    finally:
        stream.close()


CONSUMERS = {
    "engine.sync": through_engine,
    "cache.lookup": through_result_cache,
    "stream.advance": through_stream,
}
ROWS = {
    "late into few": lambda store, _last: late_into_few(store),
    "in order into wide": in_order_into_wide,
}


@pytest.mark.parametrize("row", ROWS)
@pytest.mark.parametrize("consumer", CONSUMERS)
def test_a_catch_up_looks_only_at_what_the_row_can_hit(small_topology, consumer, row):
    costs = [
        CONSUMERS[consumer](small_topology, SYMPTOMS * scale, ROWS[row])
        for scale in SCALES
    ]
    slope = loglog_slope(SCALES, costs)
    assert slope <= CONSTANT, (consumer, row, costs, round(slope, 2))


def test_a_quiet_advance_costs_the_same_however_much_is_held(small_topology):
    costs = [quiet_advance(small_topology, SYMPTOMS * scale) for scale in SCALES]
    slope = loglog_slope(SCALES, costs)
    assert slope <= CONSTANT, (costs, round(slope, 2))
