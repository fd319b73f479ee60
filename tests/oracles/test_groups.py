"""``diagnose_all`` against one ``diagnose`` per symptom: group ≡ singles.

``RcaEngine.diagnose_all`` shares, inside one call, everything sibling
symptoms on one interval repeat (the per ``(plan step, parent
interval)`` stage).  That must be invisible: ``A.diagnose_all(S)`` on a
fresh engine has to equal ``[B.diagnose(s) for s in S]`` on a fresh twin
field by field — evidence order, gaps, confidence, caveats and the read
*footprint* included — for any order of ``S``, any split of ``S`` into
consecutive calls, any ``max_depth``, with an impaired feed, with a
cancellation token tripping mid-way, traced or untraced.

Three layers: the paper's applications on seeded simulations, a
hand-built MVPN provisioning storm (30 sibling symptoms on two
timestamps — the shape the sharing exists for), and hypothesis worlds
that force several symptoms onto few intervals with a child event
reached along two edges.  Two pinned worlds show what the shared-state
key and its reset protect: both fail if the key drops the parent
interval, or if a newly indexed cover no longer resets the event's
stages.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import BgpFlapApp, CdnApp, PimApp
from repro.collector.health import FeedState, HealthRegistry
from repro.collector.store import DataStore
from repro.core.engine import EngineConfig, RcaEngine
from repro.core.events import (
    EventDefinition,
    EventInstance,
    EventLibrary,
    RetrievalContext,
)
from repro.core.graph import DiagnosisGraph, DiagnosisRule
from repro.core.locations import Location, LocationType
from repro.core.spatial import JoinLevel, LocationResolver, SpatialJoinRule
from repro.core.temporal import ExpandOption, TemporalExpansion, TemporalJoinRule
from repro.routing.ospf import OspfSimulator
from repro.routing.paths import IngressMap, PathService
from repro.simulation import bgp_month, cdn_month, pim_fortnight

from .storm import mvpn_storm

DAY = 86400.0


# ---------------------------------------------------------------------------
# the comparison


def assert_same(got, want):
    """Two diagnoses agree on every field, provenance included."""
    assert got.symptom == want.symptom
    assert got.evidence == want.evidence
    assert got.result == want.result
    assert got.gaps == want.gaps
    assert got.confidence == want.confidence
    assert got.caveats == want.caveats
    assert got.footprint == want.footprint


def assert_group_is_singles(engine, symptoms, cuts=(), **options):
    """``diagnose_all`` over consecutive chunks ≡ one ``diagnose`` each.

    ``engine`` is only the prototype: both sides run on fresh
    ``isolated()`` twins, so they start from equally cold caches.
    """
    group, single = engine.isolated(), engine.isolated()
    bounds = [0, *sorted(cuts), len(symptoms)]
    grouped = []
    for lo, hi in zip(bounds, bounds[1:]):
        grouped.extend(group.diagnose_all(symptoms[lo:hi], **options))
    singles = [single.diagnose(symptom, **options) for symptom in symptoms]
    assert len(grouped) == len(singles) == len(symptoms)
    for got, want in zip(grouped, singles):
        assert_same(got, want)
    # the engines end up holding the same covers, too
    assert set(group._retrieval_cache) == set(single._retrieval_cache)
    return grouped


class TrippingToken:
    """A cancellation token that raises on its ``after``-th check."""

    class Tripped(Exception):
        pass

    def __init__(self, after):
        self.left = after

    def check(self):
        self.left -= 1
        if self.left < 0:
            raise self.Tripped()


def assert_cancel_agrees(engine, symptoms, after):
    """A token tripping after ``after`` checks stops group and singles
    at the same point, and leaves both engines equally warm."""
    group, single = engine.isolated(), engine.isolated()
    token = TrippingToken(after)
    with pytest.raises(TrippingToken.Tripped):
        group.diagnose_all(symptoms, cancel=token)
    token = TrippingToken(after)
    with pytest.raises(TrippingToken.Tripped):
        for symptom in symptoms:
            single.diagnose(symptom, cancel=token)
    assert set(group._retrieval_cache) == set(single._retrieval_cache)
    for got, want in zip(
        group.diagnose_all(symptoms), [single.diagnose(s) for s in symptoms]
    ):
        assert_same(got, want)


def checks_needed(engine, symptoms):
    """How many token checks a full run of ``symptoms`` makes."""
    token = TrippingToken(10**9)
    engine.isolated().diagnose_all(symptoms, cancel=token)
    return 10**9 - token.left


def exercise(engine, symptoms, seed):
    """The whole battery over one application's symptoms."""
    rng = random.Random(seed)
    n = len(symptoms)
    assert_group_is_singles(engine, symptoms)
    assert_group_is_singles(engine, symptoms[::-1])
    for _ in range(2):
        shuffled = symptoms[:]
        rng.shuffle(shuffled)
        cuts = sorted(rng.sample(range(1, n), min(3, n - 1)))
        assert_group_is_singles(engine, shuffled, cuts)
    for max_depth in (1, 2, 3):
        assert_group_is_singles(engine, symptoms, max_depth=max_depth)
    total = checks_needed(engine, symptoms)
    for after in (0, 1, total // 3, total - 1):
        assert_cancel_agrees(engine, symptoms, after)
    # traced ≡ untraced, and the group's traces are the singles' traces
    engine.resolver.clear_cache()
    traced = engine.isolated().diagnose_all(symptoms, traced=True)
    engine.resolver.clear_cache()
    untraced = assert_group_is_singles(engine, symptoms)
    engine.resolver.clear_cache()
    single = engine.isolated()
    for got, plain, symptom in zip(traced, untraced, symptoms):
        assert_same(got, plain)
        assert plain.trace is None
        alone = single.diagnose_all([symptom], traced=True)[0]
        assert got.trace.shape() == alone.trace.shape()


# ---------------------------------------------------------------------------
# the paper's applications

PAPER_APPS = {
    "bgp-month": (lambda: bgp_month(total_flaps=60, seed=5), BgpFlapApp, "syslog"),
    "cdn-month": (lambda: cdn_month(total_degradations=40, seed=5), CdnApp, "perfmon"),
    "pim-fortnight": (lambda: pim_fortnight(total_changes=60, seed=5), PimApp, "ospfmon"),
}


@pytest.mark.parametrize("name", sorted(PAPER_APPS))
def test_paper_app_group_is_singles(name):
    simulate, app_cls, feed = PAPER_APPS[name]
    result = simulate()
    app = app_cls.build(result.platform())
    symptoms = app.find_symptoms(result.start, result.end)
    assert len(symptoms) >= 30
    exercise(app.engine, symptoms, seed=5)
    # an impaired evidence feed: one closed outage, one still open
    middle = (result.start + result.end) / 2
    app.engine.config.health.record_outage(feed, result.start, middle)
    app.engine.config.health.record_outage(
        "syslog", middle - DAY, None, FeedState.DEGRADED
    )
    grouped = assert_group_is_singles(app.engine, symptoms)
    assert any(d.gaps for d in grouped)
    assert_group_is_singles(app.engine, symptoms[::-1], cuts=(7,), max_depth=1)


# ---------------------------------------------------------------------------
# an MVPN provisioning storm


def test_mvpn_storm_group_is_singles():
    app, symptoms, action = mvpn_storm()
    assert len(symptoms) >= 30
    assert len({s.interval for s in symptoms}) == 2
    grouped = assert_group_is_singles(app.engine, symptoms)
    assert {d.primary_cause for d in grouped} == {"PIM Configuration change"}
    exercise(app.engine, symptoms, seed=11)
    app.engine.config.health.record_outage("ospfmon", action - 40.0, action + 5.0)
    app.engine.config.health.record_outage(
        "tacacs", action - 3600.0, None, FeedState.LAGGING
    )
    grouped = assert_group_is_singles(app.engine, symptoms)
    assert all(d.gaps for d in grouped)
    assert_group_is_singles(app.engine, symptoms[::-1], cuts=(1, 16))


# ---------------------------------------------------------------------------
# what the shared-state key and its reset protect

ROUTER_JOIN = SpatialJoinRule(
    LocationType.ROUTER, LocationType.ROUTER, JoinLevel.NETWORK
)


def table_event(name, source=""):
    """Point events from the store table of the same name."""

    def retrieve(context: RetrievalContext):
        columns = context.store.table(name).query_columns(context.start, context.end)
        for timestamp, router in zip(columns.timestamps, columns.column("router")):
            yield timestamp, timestamp, Location.router(router), ()

    return EventDefinition(name, LocationType.ROUTER, retrieve, "", source)


@pytest.fixture
def pinned_world(resolver):
    """s -> a over table ``a``; Start/End ±30 s on both sides."""
    store = DataStore()
    library = EventLibrary()
    library.register(table_event("s"))
    library.register(table_event("a"))
    expansion = TemporalExpansion(ExpandOption.START_END, 30.0, 30.0)
    graph = DiagnosisGraph(symptom_event="s")
    graph.add_rule(
        DiagnosisRule(
            "s", "a", TemporalJoinRule(expansion, expansion), ROUTER_JOIN, 10
        )
    )
    store.insert("a", 1005.0, router="nyc-per1")
    store.insert("a", 1150.0, router="nyc-per1")
    return RcaEngine(graph, library, resolver, store)


def symptom(start, end, router):
    return EventInstance.make("s", start, end, Location.router(router))


def test_siblings_on_other_intervals_do_not_share(pinned_world):
    # same step, same start, another end: the long symptom reaches the
    # record at 1150 the short ones cannot (a key without the parent
    # interval would hand it the short symptom's survivors)
    symptoms = [
        symptom(1000.0, 1010.0, "nyc-per1"),
        symptom(1000.0, 1200.0, "nyc-per1"),
        symptom(1000.0, 1010.0, "chi-per1"),
    ]
    grouped = assert_group_is_singles(pinned_world, symptoms)
    assert [len(d.evidence) for d in grouped] == [1, 2, 1]


def test_new_cover_resets_the_events_stages(pinned_world):
    # the first symptom fetches cover (900, 1080); the second, longer
    # one needs (840, 1260), which from then on is what the cover lookup
    # answers for the short interval too — so the third symptom, a
    # sibling of the first, must read the wide cover like it would alone
    symptoms = [
        symptom(1000.0, 1010.0, "nyc-per1"),
        symptom(940.0, 1200.0, "nyc-per1"),
        symptom(1000.0, 1010.0, "chi-per1"),
    ]
    grouped = assert_group_is_singles(pinned_world, symptoms)
    assert [d.footprint for d in grouped] == [
        (("a", 900.0, 1080.0),),
        (("a", 840.0, 1260.0),),
        (("a", 840.0, 1260.0),),
    ]


# ---------------------------------------------------------------------------
# hypothesis worlds: few intervals, many siblings, ``c`` reached twice

TIMES = st.integers(0, 400).map(float)
MARGINS = st.integers(-20, 90).map(float)
EXPANSIONS = st.builds(
    TemporalExpansion, st.sampled_from(list(ExpandOption)), MARGINS, MARGINS
)
ROUTERS = ["nyc-per1", "nyc-per2", "chi-per1", "bos-per1"]
#: symptom -> a, b; both -> c, so ``c`` instances are reached twice
EDGES = [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c")]
FEEDS = {"a": "syslog", "b": "snmp", "c": "syslog"}


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_groups_are_singles(small_topology, data):
    network = small_topology.network
    resolver = LocationResolver(
        PathService(
            network=network, ospf=OspfSimulator(network), ingress_map=IngressMap()
        )
    )
    store = DataStore()
    library = EventLibrary()
    library.register(table_event("s"))
    for name in "abc":
        library.register(table_event(name, FEEDS[name]))
        for _ in range(data.draw(st.integers(0, 10), label=f"{name} records")):
            store.insert(
                name, data.draw(TIMES), router=data.draw(st.sampled_from(ROUTERS))
            )
    graph = DiagnosisGraph(symptom_event="s")
    for priority, (parent, child) in enumerate(EDGES, start=1):
        graph.add_rule(
            DiagnosisRule(
                parent,
                child,
                TemporalJoinRule(data.draw(EXPANSIONS), data.draw(EXPANSIONS)),
                SpatialJoinRule(
                    LocationType.ROUTER,
                    LocationType.ROUTER,
                    data.draw(st.sampled_from([JoinLevel.ROUTER, JoinLevel.NETWORK])),
                ),
                priority=10 * priority,
            )
        )
    health = HealthRegistry()
    for feed in data.draw(st.sets(st.sampled_from(["syslog", "snmp"]))):
        start = data.draw(TIMES)
        end = data.draw(st.one_of(st.none(), TIMES.map(lambda t: start + t)))
        health.record_outage(feed, start, end)
    engine = RcaEngine(
        graph, library, resolver, store,
        EngineConfig(
            max_matches_per_rule=data.draw(st.integers(1, 4), label="cap"),
            health=health,
        ),
    )
    # several symptoms forced onto one or two intervals
    intervals = data.draw(
        st.lists(
            st.tuples(TIMES, st.sampled_from([0.0, 10.0, 120.0])),
            min_size=1, max_size=2,
        )
    )
    symptoms = [
        symptom(start, start + duration, data.draw(st.sampled_from(ROUTERS)))
        for start, duration in data.draw(
            st.lists(st.sampled_from(intervals), min_size=2, max_size=6)
        )
    ]
    symptoms = data.draw(st.permutations(symptoms))
    cuts = data.draw(st.sets(st.integers(1, len(symptoms) - 1), max_size=2))
    max_depth = data.draw(st.sampled_from([None, 1, 2, 3]), label="max_depth")
    assert_group_is_singles(engine, symptoms, cuts, max_depth=max_depth)
    total = checks_needed(engine, symptoms)
    assert_cancel_agrees(
        engine, symptoms, data.draw(st.integers(0, total - 1), label="trip")
    )
    resolver.clear_cache()
    traced = engine.isolated().diagnose_all(symptoms, traced=True)
    for got, want in zip(traced, engine.isolated().diagnose_all(symptoms)):
        assert_same(got, want)
        assert got.trace is not None and want.trace is None
