"""Every run path is the engine's one group.

A window run is "detect the symptoms in ``[lo, hi]``, then diagnose
them".  :meth:`RcaEngine.find_symptoms` is the only detection and
:meth:`RcaEngine.diagnose_all` the only diagnosis, so every way of
running a batch — ``RcaApp.run`` inline or forked, service jobs (cold or
warm result cache, traced or not, a symptom repeated inside a job, whole
``run`` jobs, a depth-capped brownout job), ``StreamingRca`` in one tick
or many, and the scenario harness in each of its three modes — must
answer exactly what ::

    engine.isolated().diagnose_all(engine.find_symptoms(lo, hi))

answers, field by field: evidence order and the read footprint
included (``Diagnosis.__eq__`` skips the footprint, so
:func:`~tests.oracles.test_groups.assert_same` compares it explicitly).
The one exception is a job after a pre-warmed result cache: its worker
engine diagnosed a subset first, so which cached covers serve a later
symptom — its footprint, provenance rather than conclusion — may
differ; every other field must still agree.

Mutations of ``src/`` that fail this file, and the tests that catch
them:

* a service job caches its misses under the store revision read *after*
  its group — ``test_row_landing_during_a_group_is_not_cached``;
* a job answers in miss order (cache hits first, then the group) —
  ``test_service_job_interleaving_hits_and_misses`` and
  ``test_service_chunkings``;
* the engine's detect context drops ``params`` —
  ``test_every_path_detects_with_the_engine_params``;
* a depth-capped group is cached — ``test_brownout_job_is_the_capped_group``.
"""

import dataclasses
from typing import List, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import BgpFlapApp, CdnApp, PimApp
from repro.collector.store import DataStore
from repro.core.engine import Diagnosis, RcaEngine
from repro.core.events import (
    EventDefinition,
    EventInstance,
    EventLibrary,
    instance_key,
)
from repro.core.graph import DiagnosisGraph, DiagnosisRule
from repro.core.locations import Location, LocationType
from repro.core.spatial import JoinLevel, SpatialJoinRule
from repro.core.streaming import StreamingRca
from repro.core.temporal import ExpandOption, TemporalExpansion, TemporalJoinRule
from repro.eval import Scenario, ScenarioRunner
from repro.service import RcaService
from repro.service.api import DEGRADED_MAX_DEPTH
from repro.service.policy import ServiceHealth
from repro.simulation import bgp_month, cdn_month, pim_fortnight

from .test_groups import assert_same

#: name -> (seed-5 simulation, application class, eval-harness app key,
#: size knob value)
PAPER_APPS = {
    "bgp-month": (BgpFlapApp, "bgp_flaps", lambda n: bgp_month(total_flaps=n, seed=5), 30),
    "cdn-month": (CdnApp, "cdn", lambda n: cdn_month(total_degradations=n, seed=5), 20),
    "pim-fortnight": (PimApp, "pim", lambda n: pim_fortnight(total_changes=n, seed=5), 30),
}


class Window(NamedTuple):
    app: object
    lo: float
    hi: float
    symptoms: List[EventInstance]
    #: the reference answer
    want: List[Diagnosis]


def reference(engine: RcaEngine, lo: float, hi: float):
    """The detected symptoms and the one-group answer over them."""
    symptoms = engine.find_symptoms(lo, hi)
    return symptoms, engine.isolated().diagnose_all(symptoms)


@pytest.fixture(scope="module", params=sorted(PAPER_APPS))
def window(request):
    app_cls, _key, simulate, size = PAPER_APPS[request.param]
    result = simulate(size)
    app = app_cls.build(result.platform())
    symptoms, want = reference(app.engine, result.start, result.end)
    assert len(symptoms) >= 20
    return Window(app, result.start, result.end, symptoms, want)


def fresh(app):
    """The app over a cold isolated engine: no path sees another's cache."""
    return dataclasses.replace(app, engine=app.engine.isolated())


def assert_all_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert_same(a, b)


class Served:
    """A one-worker service over a fresh copy of an app: jobs run in
    submission order on one engine, as the reference group does."""

    def __init__(self, app):
        self.service = RcaService(app.engine.store, workers=1, supervise=False)
        self.service.register_app("app", fresh(app))
        self.service.start()

    def __enter__(self):
        return self.service

    def __exit__(self, *exc):
        self.service.shutdown(timeout=30.0)


def answer(service, jobs, **options):
    """Submit every job, then collect the answers in submission order."""
    handles = [service.submit_diagnosis("app", job, **options) for job in jobs]
    return [handle.outcome(timeout=120.0) for handle in handles]


def chunked(items, sizes):
    """Consecutive chunks of the given sizes (the last size repeats)."""
    chunks, start, k = [], 0, 0
    while start < len(items):
        size = sizes[min(k, len(sizes) - 1)]
        chunks.append(items[start:start + size])
        start += size
        k += 1
    return chunks


# ---------------------------------------------------------------------------
# the application's window run


@pytest.mark.parametrize("jobs", [1, 2])
def test_app_run(window, forks, jobs):
    got = fresh(window.app).run(window.lo, window.hi, jobs=jobs).diagnoses
    assert forks == ([2] if jobs > 1 else [])
    assert_all_same(got, window.want)


# ---------------------------------------------------------------------------
# service jobs


@pytest.mark.parametrize("size", [1, 3, 10])
@pytest.mark.parametrize("traced", [False, True])
def test_service_jobs(window, size, traced):
    jobs = chunked(window.symptoms, [size])
    # a symptom repeated inside one job is answered at both positions
    jobs[0] = jobs[0] + jobs[0][:1]
    n, want = len(jobs[0]) - 1, window.want
    expected = want[:n] + want[:1] + want[n:]
    with Served(window.app) as service:
        hits = service.metrics.cache_hits
        cold = [d for job in answer(service, jobs, traced=traced) for d in job]
        assert_all_same(cold, expected)
        assert all((d.trace is not None) == traced for d in cold)
        # a job looks its symptoms up once, before its group: the repeat
        # misses with its first occurrence
        assert hits.value == 0
        # again, warm: untraced answers are all cached diagnoses, traced
        # jobs bypass the cache both ways
        warm = [d for job in answer(service, jobs, traced=traced) for d in job]
        assert_all_same(warm, expected)
        assert hits.value == (0 if traced else len(warm))


def test_service_job_interleaving_hits_and_misses(window):
    symptoms, want = window.symptoms, window.want
    with Served(window.app) as service:
        answer(service, [symptoms[1::4]])
        (got,) = answer(service, [symptoms])
        assert service.metrics.cache_hits.value == len(symptoms[1::4])
    # each answer at its own position; the worker's engine diagnosed a
    # subset first, so footprints (which covers served) may differ
    assert got == want


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_service_chunkings(window, data):
    symptoms, want = window.symptoms, window.want
    sizes = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=6))
    warmed = data.draw(
        st.lists(st.sampled_from(range(len(symptoms))), unique=True, max_size=8)
    )
    with Served(window.app) as service:
        if warmed:
            answer(service, [[symptoms[k] for k in sorted(warmed)]])
        got = [d for job in answer(service, chunked(symptoms, sizes)) for d in job]
    if warmed:
        assert got == want  # footprints: see the test above
    else:
        assert_all_same(got, want)


def test_run_job(window):
    with Served(window.app) as service:
        got = service.submit_run("app", window.lo, window.hi).outcome(timeout=120.0)
        assert service.metrics.symptoms_diagnosed.value == len(window.symptoms)
    assert_all_same(got, window.want)


class _Signals:
    """The metrics surface ``BrownoutController.evaluate`` reads."""

    class _Count:
        value = 0

    def __init__(self, p99):
        self.queue_wait = self
        self.p99 = p99
        self.jobs_timed_out = self.jobs_completed = self.jobs_failed = self._Count()

    def percentile(self, _q):
        return self.p99


def test_brownout_job_is_the_capped_group(window):
    capped = window.app.engine.isolated().diagnose_all(
        window.symptoms, max_depth=DEGRADED_MAX_DEPTH
    )
    with Served(window.app) as service:
        service.brownout.evaluate(_Signals(p99=60.0), now=1.0)
        assert service.health_state() is ServiceHealth.DEGRADED
        jobs = chunked(window.symptoms, [7])
        assert_all_same([d for job in answer(service, jobs) for d in job], capped)
        # depth-capped diagnoses are never cached: the same jobs run again
        # (on a warm engine, so footprints may differ — see above)
        assert [d for job in answer(service, jobs) for d in job] == capped
        assert len(service.cache) == 0
        assert service.metrics.cache_hits.value == 0


# ---------------------------------------------------------------------------
# a group racing the ingest path


def _table_event(name, table, hook=None):
    def retrieve(context):
        columns = context.store.table(table).query_columns(context.start, context.end)
        if hook is not None:
            hook()
        for timestamp, router in zip(columns.timestamps, columns.column("router")):
            yield timestamp, timestamp, Location.router(router), ()

    return EventDefinition(name, LocationType.ROUTER, retrieve)


class RacingApp:
    """``s -> a``; the first retrieval of ``a`` after :meth:`arm` lands
    an ``a`` row inside the window it has just read, as an ingest thread
    racing the group would."""

    def __init__(self, resolver):
        self.store = DataStore()
        self.armed = False
        library = EventLibrary()
        library.register(_table_event("s", "ts"))
        library.register(_table_event("a", "ta", hook=self._land))
        graph = DiagnosisGraph(symptom_event="s", name="race")
        window = TemporalExpansion(ExpandOption.START_END, 30.0, 30.0)
        graph.add_rule(DiagnosisRule(
            "s", "a", TemporalJoinRule(window, window),
            SpatialJoinRule(LocationType.ROUTER, LocationType.ROUTER, JoinLevel.ROUTER),
            priority=10,
        ))
        self.engine = RcaEngine(graph, library, resolver, self.store)

    def arm(self):
        self.armed = True

    def _land(self):
        if self.armed:
            self.armed = False
            self.store.insert("ta", 995.0, router="nyc-per1")

    def find_symptoms(self, start, end, tracer=None):
        return self.engine.find_symptoms(start, end, tracer)


def test_row_landing_during_a_group_is_not_cached(resolver):
    app = RacingApp(resolver)
    app.store.insert("ts", 1000.0, router="nyc-per1")
    symptoms = app.find_symptoms(0.0, 2000.0)
    service = RcaService(app.store, workers=1, supervise=False)
    service.register_app("race", app)
    service.start()
    try:
        app.arm()
        (raced,) = service.submit_diagnosis("race", symptoms).outcome(timeout=30.0)
        assert raced.primary_cause == "Unknown"  # read before the row landed
        assert len(service.cache) == 0  # stored under the pre-group revision
        (again,) = service.submit_diagnosis("race", symptoms).outcome(timeout=30.0)
    finally:
        service.shutdown(timeout=10.0)
    assert again.primary_cause == "a"
    assert_same(again, app.engine.isolated().diagnose(symptoms[0]))


# ---------------------------------------------------------------------------
# the stream


@pytest.mark.parametrize("tick", [None, 3600.0, 6 * 3600.0])
def test_stream_over_the_ingested_store(window, tick):
    # a stream ticks the feed-health registry at its clock (past the
    # data, every feed goes silent): compare registry-free engines
    engine = window.app.engine.isolated()
    engine.config = dataclasses.replace(engine.config, health=None)
    symptoms, want = reference(engine, window.lo, window.hi)
    stream = StreamingRca(engine.isolated(), start=window.lo)
    end = window.hi + stream.config.settle_seconds
    try:
        if tick is None:
            got = stream.advance(end)
        else:
            got, now = [], window.lo
            while now < end:
                now = min(now + tick, end)
                got += stream.advance(now)
    finally:
        stream.close()
    assert [d.symptom for d in got] == symptoms
    assert_all_same(got, want)


# ---------------------------------------------------------------------------
# the scenario harness


@pytest.mark.parametrize("mode", ["engine", "service", "http"])
@pytest.mark.parametrize("name", sorted(PAPER_APPS))
def test_scenario_runner_modes(name, mode):
    app_cls, key, _simulate, size = PAPER_APPS[name]
    scenario = Scenario(
        name=f"run-paths-{name}", description="run paths", app=key, seed=5,
        size=size, mode=mode, workers=1, shards=1,
    )
    runner = ScenarioRunner()
    result = runner.simulate(scenario)
    _symptoms, want = reference(
        app_cls.build(result.platform()).engine, result.start, result.end
    )
    outcome = runner.run(scenario)
    assert_all_same(outcome.diagnoses, want)
    assert len(outcome.latencies) == -(-len(want) // 10)


# ---------------------------------------------------------------------------
# one detection


#: a retrieval parameter each app's symptom detection reads, set away
#: from its default
DETECT_PARAMS = {
    "bgp-month": {"session_flap_window": 60.0},
    "cdn-month": {"cdn_rtt_factor": 3.0},
}


@pytest.mark.parametrize("name", sorted(DETECT_PARAMS))
def test_every_path_detects_with_the_engine_params(name):
    app_cls, _key, simulate, size = PAPER_APPS[name]
    result = simulate(size)
    app = app_cls.build(result.platform())
    lo, hi = result.start, result.end
    default = app.find_symptoms(lo, hi)
    app.engine.config.params.update(DETECT_PARAMS[name])
    detected = sorted(map(instance_key, app.find_symptoms(lo, hi)))
    assert 0 < len(detected) < len(default)  # the parameter bites

    def keys(diagnoses):
        return sorted(instance_key(d.symptom) for d in diagnoses)

    assert keys(app.run(lo, hi).diagnoses) == detected
    service = RcaService(app.engine.store, workers=1, supervise=False)
    service.register_app("app", app)
    service.start()
    try:
        served = service.submit_run("app", lo, hi).outcome(timeout=120.0)
    finally:
        service.shutdown(timeout=30.0)
    assert keys(served) == detected
    stream = StreamingRca(app.engine.isolated(), start=lo)
    try:
        streamed = stream.advance(hi + stream.config.settle_seconds)
    finally:
        stream.close()
    assert keys(streamed) == detected
