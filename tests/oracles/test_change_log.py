"""Synced ≡ cold twin: every cache over the store reads one change log.

``DataStore`` records what landed (one ``(first_revision, table,
timestamps)`` entry per batch, bounded in rows) and answers
``changes_since(revision)``; the engine's retrieval cache, the streaming
re-open set and the service's ``ResultCache`` each pull from it when
they are next used.  Whatever the interleaving of inserts — in order,
late inside a window somebody read, late outside every window, batches
larger than the log holds, several tables — and reads:

* ``changes_since`` equals a filter over the full insert history, or
  says "cannot say" (``None``) exactly when the bounded log no longer
  reaches back — never part of an answer;
* a bare engine, a ``StreamingRca`` fed tick by tick and an
  ``RcaService`` worker job each return what an engine whose cache is
  emptied before every call returns;
* ``ResultCache`` serves exactly what a model that re-checks every
  entry against the full history would.

Every world runs with the log's bound patched down to ``BOUND`` rows so
"cannot say" is an everyday event, not a 16 384-row one.  Three
mutations must each fail here: no ``sync()`` at the top of
``diagnose_all``; "cannot say" treated as "nothing landed" (in the
engine, the stream or the result cache); the log trimmed one batch
too early.
"""

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.collector import store as store_module
from repro.collector.store import DataStore, Record
from repro.core.engine import RcaEngine
from repro.core.events import (
    EventDefinition,
    EventInstance,
    EventLibrary,
    RetrievalContext,
)
from repro.core.footprint import footprint_hit
from repro.core.graph import DiagnosisGraph, DiagnosisRule
from repro.core.locations import Location, LocationType
from repro.core.spatial import JoinLevel, LocationResolver, SpatialJoinRule
from repro.core.streaming import StreamingConfig, StreamingRca
from repro.core.temporal import ExpandOption, TemporalExpansion, TemporalJoinRule
from repro.routing.ospf import OspfSimulator
from repro.routing.paths import IngressMap, PathService
from repro.service import RcaService
from repro.service.cache import ResultCache

#: rows the log holds in these worlds
BOUND = 8
ROUTERS = ["nyc-per1", "chi-per1"]
TABLES = ["ta", "tb"]
#: a coarse grid: rows keep landing in, beside and far from read windows
TIMES = st.integers(0, 40).map(lambda k: 1000.0 + 25.0 * k)
ROWS = st.tuples(TIMES, st.sampled_from(ROUTERS))
#: one insert_many: mostly small, now and then more than the log holds
BATCHES = st.tuples(
    st.sampled_from(TABLES),
    st.one_of(
        st.lists(ROWS, min_size=1, max_size=3),
        st.lists(ROWS, min_size=BOUND + 1, max_size=BOUND + 4),
    ),
)


def small_log():
    return mock.patch.object(store_module, "CHANGE_LOG_ROWS", BOUND)


def land(store, table, rows):
    store.table(table).insert_many(
        [Record.make(timestamp, router=router) for timestamp, router in rows]
    )


# ---------------------------------------------------------------------------
# the log against the full history


def retained_from(batches):
    """First revision a log trimmed to ``BOUND`` rows still holds: the
    longest suffix of batches within the bound, the newest batch always."""
    first, rows = 1, 0  # nothing logged yet: nothing before revision 1
    for older, (batch_first, size) in enumerate(reversed(batches)):
        if older and rows + size > BOUND:
            break
        first, rows = batch_first, rows + size
    return first


@settings(max_examples=200, deadline=None)
@given(
    batches=st.lists(
        st.tuples(st.sampled_from(TABLES), st.lists(TIMES, max_size=BOUND + 4)),
        max_size=12,
    )
)
def test_changes_since_is_the_full_history_or_cannot_say(batches):
    with small_log():
        store = DataStore()
        history = []  # (revision, table, timestamp) of every row ever
        logged = []  # (first revision, size) of every non-empty batch
        for table, timestamps in batches:
            if timestamps:
                logged.append((len(history) + 1, len(timestamps)))
            for timestamp in timestamps:
                history.append((len(history) + 1, table, timestamp))
            store.table(table).insert_many([Record.make(t) for t in timestamps])
            head = len(history)
            assert store.revision == head
            for revision in range(-1, head + 2):
                naive = {}
                for row, row_table, timestamp in history:
                    if row > revision:
                        naive.setdefault(row_table, []).append(timestamp)
                for points in naive.values():
                    points.sort()
                if revision == head:
                    want = {}
                elif revision > head or revision + 1 < retained_from(logged):
                    want = None
                else:
                    want = naive
                assert store.changes_since(revision) == (head, want), revision


# ---------------------------------------------------------------------------
# the three readers against a twin that caches nothing across calls


def table_event(name, table):
    def retrieve(context: RetrievalContext):
        columns = context.store.table(table).query_columns(context.start, context.end)
        for timestamp, router in zip(columns.timestamps, columns.column("router")):
            yield timestamp, timestamp, Location.router(router), ()

    return EventDefinition(name, LocationType.ROUTER, retrieve)


class World:
    """``s -> a -> b`` over tables ``ts`` / ``ta`` / ``tb`` of one store."""

    def __init__(self, topology):
        network = topology.network
        resolver = LocationResolver(
            PathService(
                network=network, ospf=OspfSimulator(network), ingress_map=IngressMap()
            )
        )
        window = TemporalExpansion(ExpandOption.START_END, 30.0, 30.0)
        join = SpatialJoinRule(LocationType.ROUTER, LocationType.ROUTER, JoinLevel.ROUTER)
        self.store = DataStore()
        self.library = EventLibrary()
        for name in "sab":
            self.library.register(table_event(name, "t" + name))
        graph = DiagnosisGraph(symptom_event="s", name="mini")
        graph.add_rule(DiagnosisRule("s", "a", TemporalJoinRule(window, window), join, 10))
        graph.add_rule(DiagnosisRule("a", "b", TemporalJoinRule(window, window), join, 20))
        self.engine = RcaEngine(graph, self.library, resolver, self.store)

    def find_symptoms(self, start, end, tracer=None):  # the service's app protocol
        return self.engine.find_symptoms(start, end, tracer)

    def cold(self, symptoms):
        """What an engine with nothing cached concludes, right now."""
        twin = self.engine.isolated()
        return [twin.diagnose(symptom) for symptom in symptoms]


def symptom(row):
    timestamp, router = row
    return EventInstance.make("s", timestamp, timestamp + 10.0, Location.router(router))


#: between two reads: the batches that land
STEPS = st.lists(
    st.tuples(st.lists(BATCHES, max_size=3), st.lists(ROWS, min_size=1, max_size=3)),
    min_size=1, max_size=6,
)


@settings(max_examples=120, deadline=None)
@given(steps=STEPS)
def test_bare_engine_is_its_cold_twin(small_topology, steps):
    with small_log():
        world = World(small_topology)
        for batches, asked in steps:
            for table, rows in batches:
                land(world.store, table, rows)
            symptoms = [symptom(row) for row in asked]
            assert world.engine.diagnose_all(symptoms) == world.cold(symptoms)


def test_engine_past_the_log_bound_is_its_cold_twin(small_topology):
    # pinned: a row lands inside a cached window, then enough rows far
    # away that the log forgets it — "cannot say" must not mean "nothing"
    with small_log():
        world = World(small_topology)
        asked = [symptom((1000.0, "nyc-per1"))]
        assert world.engine.diagnose_all(asked)[0].primary_cause == "Unknown"
        land(world.store, "ta", [(1005.0, "nyc-per1")])
        for k in range(BOUND + 1):
            land(world.store, "tb", [(9000.0 + k, "chi-per1")])
        assert world.store.changes_since(0)[1] is None
        assert world.engine.diagnose_all(asked) == world.cold(asked)
        assert world.engine.diagnose(asked[0]).primary_cause == "a"


@settings(max_examples=25, deadline=None)
@given(steps=STEPS)
def test_service_worker_job_is_the_cold_twin(small_topology, steps):
    with small_log():
        world = World(small_topology)
        service = RcaService(world.store, workers=1, supervise=False)
        service.register_app("mini", world)
        service.start()
        try:
            for batches, asked in steps:
                for table, rows in batches:
                    land(world.store, table, rows)
                symptoms = [symptom(row) for row in asked]
                # twice: the worker's engine, then (mostly) the result cache
                for _ in range(2):
                    served = service.submit_diagnosis(
                        "mini", symptoms, block=True
                    ).outcome(timeout=30.0)
                    assert served == world.cold(symptoms)
        finally:
            service.shutdown()


#: per tick: symptoms and evidence that land before the advance
TICKS = st.lists(
    st.tuples(st.lists(ROWS, max_size=2), st.lists(BATCHES, max_size=3)),
    min_size=1, max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(ticks=TICKS)
def test_stream_fed_tick_by_tick_is_the_cold_twin(small_topology, ticks):
    # nothing bounds a re-open here, so every emitted diagnosis must end
    # up corrected: a late row either lands in a settled footprint (and
    # re-opens it) or cannot change that diagnosis
    config = StreamingConfig(
        settle_seconds=50.0, dedupe_horizon=1e9, reopen_horizon=1e9,
        max_reopen_per_advance=10**6,
    )
    with small_log():
        world = World(small_topology)
        stream = StreamingRca(world.engine, config, start=0.0)
        twin = StreamingRca(world.engine.isolated(), config, start=0.0)
        try:
            latest = {}
            now = 1000.0
            for symptoms, batches in ticks:
                now += 250.0
                land(world.store, "ts", symptoms)
                for table, rows in batches:
                    land(world.store, table, rows)
                emitted = stream.advance(now)
                twin.engine.clear_cache()
                assert emitted == twin.advance(now)
                for diagnosis in emitted:
                    latest[diagnosis.symptom] = diagnosis
            assert stream.advance(now) == []  # nothing landed: nothing to say
            assert list(latest.values()) == world.cold(latest)
        finally:
            stream.close()
            twin.close()


# ---------------------------------------------------------------------------
# the result cache against a model that re-checks the full history


class Verdict:
    """Stands in for a Diagnosis: the cache only needs ``footprint``."""

    def __init__(self, footprint, started):
        self.footprint = footprint
        self.started = started  # store revision its computation began at


WINDOWS = st.lists(
    st.tuples(st.sampled_from(TABLES), TIMES, st.sampled_from([0.0, 50.0, 300.0])).map(
        lambda w: (w[0], w[1], w[1] + w[2])
    ),
    max_size=3,
).map(tuple)
CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("land"), BATCHES),
        st.tuples(st.just("store"), st.integers(0, 3), WINDOWS, st.integers(0, 3)),
        st.tuples(st.just("lookup"), st.integers(0, 3)),
    ),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(ops=CACHE_OPS)
def test_result_cache_never_serves_what_a_landed_row_hits(ops):
    with small_log():
        store = DataStore()
        cache = ResultCache(store, capacity=3)
        history = []  # (revision, table, timestamp)
        logged = []  # (first revision, size) per batch
        model = {}  # key -> verdict, least recently used first
        looked = 0  # revision the model last looked at

        def landed_after(revision):
            deltas = {}
            for row, table, timestamp in history:
                if row > revision:
                    deltas.setdefault(table, []).append(timestamp)
            return {table: sorted(points) for table, points in deltas.items()}

        def can_say(revision):
            return revision == len(history) or revision + 1 >= retained_from(logged)

        def catch_up():
            nonlocal looked
            if not can_say(looked):
                model.clear()
            deltas = landed_after(looked)
            for key in [k for k, v in model.items() if footprint_hit(v.footprint, deltas)]:
                del model[key]
            looked = len(history)

        for op in ops:
            if op[0] == "land":
                _, (table, rows) = op
                logged.append((len(history) + 1, len(rows)))
                for timestamp, _router in rows:
                    history.append((len(history) + 1, table, timestamp))
                land(store, table, rows)
                continue  # the cache is not told: it looks when next used
            catch_up()
            if op[0] == "store":
                _, key, footprint, age = op
                started = max(0, len(history) - age)  # computed a while ago
                verdict = Verdict(footprint, started)
                publishable = can_say(started) and not footprint_hit(
                    footprint, landed_after(started)
                )
                assert cache.store(key, verdict, started) is publishable
                if publishable:
                    model.pop(key, None)
                    model[key] = verdict
                    while len(model) > cache.capacity:
                        del model[next(iter(model))]
            else:
                _, key = op
                served = cache.lookup(key)
                assert served is model.get(key)
                if served is not None:
                    model[key] = model.pop(key)  # most recently used
                    assert not footprint_hit(
                        served.footprint, landed_after(served.started)
                    )
            assert cache.keys() == list(model)
            index = {k for keys in cache._footprints._by_table.values() for k in keys}
            assert index <= set(model)
            assert set(cache._footprints.reads) == set(model)
