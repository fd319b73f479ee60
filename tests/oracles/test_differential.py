"""``RcaEngine`` against the reference engine: same evidence, same verdict.

Two layers.  The paper's three applications, each on a seeded
month-scale simulation, must reproduce the reference's evidence lists
(order included) and root causes for every symptom.  Then hypothesis
draws small worlds built to reach the corners of the production path:
every ``ExpandOption`` on both sides of a rule (negative margins
included), interval events whose survivors are not contiguous,
epoch-static and epoch-dynamic location columns behind routing changes,
a shared child reached along two edges, and match caps small enough to
bind — with several symptoms diagnosed on one engine so cached covers
are shared between them.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import BgpFlapApp, CdnApp, PimApp
from repro.collector.store import DataStore
from repro.core.engine import EngineConfig, RcaEngine
from repro.core.events import (
    EventDefinition,
    EventLibrary,
    RetrievalContext,
)
from repro.core.graph import DiagnosisGraph, DiagnosisRule
from repro.core.locations import Location, LocationType
from repro.core.spatial import JoinLevel, LocationResolver, SpatialJoinRule
from repro.core.temporal import ExpandOption, TemporalExpansion, TemporalJoinRule
from repro.obs import Tracer
from repro.routing.ospf import OspfSimulator, WeightChange
from repro.routing.paths import IngressMap, PathService
from repro.simulation import bgp_month, cdn_month, pim_fortnight

from .reference import ReferenceEngine, assert_agrees

PAPER_APPS = {
    "bgp-month": (lambda: bgp_month(total_flaps=160, seed=5), BgpFlapApp),
    "cdn-month": (lambda: cdn_month(total_degradations=120, seed=5), CdnApp),
    "pim-fortnight": (lambda: pim_fortnight(total_changes=120, seed=5), PimApp),
}


@pytest.mark.parametrize("name", sorted(PAPER_APPS))
def test_paper_app_matches_reference(name):
    simulate, app_cls = PAPER_APPS[name]
    result = simulate()
    app = app_cls.build(result.platform())
    symptoms = app.find_symptoms(result.start, result.end)
    assert len(symptoms) >= 100
    diagnoses = app.engine.diagnose_all(symptoms)
    assert sum(len(d.evidence) for d in diagnoses) >= len(symptoms) // 2
    reference = ReferenceEngine(app.engine)
    for diagnosis in diagnoses:
        assert_agrees(diagnosis, reference.diagnose(diagnosis.symptom))


# ---------------------------------------------------------------------------
# hypothesis worlds

#: longest generated event; retrievals look this far before their window
MAX_DURATION = 90.0

TIMES = st.integers(0, 600).map(float)
DURATIONS = st.sampled_from([0.0, 0.0, 5.0, 30.0, MAX_DURATION])
MARGINS = st.integers(-40, 120).map(float)
EXPANSIONS = st.builds(
    TemporalExpansion, st.sampled_from(list(ExpandOption)), MARGINS, MARGINS
)
LOCATION_TYPES = [
    LocationType.ROUTER,  # epoch-static
    LocationType.LOGICAL_LINK,  # epoch-static
    LocationType.INGRESS_EGRESS,  # routed path: epoch-dynamic
]
LEVELS = [
    JoinLevel.ROUTER,
    JoinLevel.ROUTER_PATH,
    JoinLevel.LOGICAL_LINK,
    JoinLevel.NETWORK,
]
#: symptom -> a, b; both -> c, so ``c`` instances are reached twice
EDGES = [("s", "a"), ("s", "b"), ("a", "c"), ("b", "c")]


def interval_event(name, location_type, locations):
    """Events ``[timestamp, timestamp + duration]`` from table ``name``.

    Returns every instance *intersecting* the requested window, which
    is what the engine's search window assumes of a retrieval.
    """

    def retrieve(context: RetrievalContext):
        columns = context.store.table(name).query_columns(
            context.start - MAX_DURATION, context.end
        )
        for start, duration, at in zip(
            columns.timestamps, columns.column("duration"), columns.column("location")
        ):
            if start + duration >= context.start:
                yield start, start + duration, locations[at], ()

    return EventDefinition(name, location_type, retrieve)


def draw_world(topology, data):
    """``(engine, symptoms)``: a generated world, up to four symptoms."""
    network = topology.network
    routers = sorted(network.routers)
    links = sorted(network.logical_links)

    def draw_location(location_type):
        if location_type is LocationType.ROUTER:
            return Location.router(data.draw(st.sampled_from(routers)))
        if location_type is LocationType.LOGICAL_LINK:
            return Location.logical_link(data.draw(st.sampled_from(links)))
        return Location.pair(
            location_type,
            data.draw(st.sampled_from(routers)),
            data.draw(st.sampled_from(routers)),
        )

    ospf = OspfSimulator(network)
    for _ in range(data.draw(st.integers(0, 3), label="weight_changes")):
        ospf.history.record(
            WeightChange(
                data.draw(TIMES),
                data.draw(st.sampled_from(links)),
                data.draw(st.sampled_from([1, 10, 65535])),
            )
        )
    resolver = LocationResolver(
        PathService(network=network, ospf=ospf, ingress_map=IngressMap())
    )

    types = {
        name: data.draw(st.sampled_from(LOCATION_TYPES), label=f"type of {name}")
        for name in "sabc"
    }
    store = DataStore()
    library = EventLibrary()
    locations = []  # record field "location" indexes this list
    for name in "sabc":
        library.register(interval_event(name, types[name], locations))
        # few distinct locations per event, so columns repeat them
        pool = [draw_location(types[name]) for _ in range(3)]
        for _ in range(data.draw(st.integers(0, 12), label=f"{name} records")):
            locations.append(data.draw(st.sampled_from(pool)))
            store.insert(
                name,
                data.draw(TIMES),
                duration=data.draw(DURATIONS),
                location=len(locations) - 1,
            )

    graph = DiagnosisGraph(symptom_event="s")
    for priority, (parent, child) in enumerate(EDGES, start=1):
        if parent != "s" and not data.draw(st.booleans(), label=f"{parent}->{child}"):
            continue
        graph.add_rule(
            DiagnosisRule(
                parent,
                child,
                TemporalJoinRule(data.draw(EXPANSIONS), data.draw(EXPANSIONS)),
                SpatialJoinRule(
                    types[parent], types[child], data.draw(st.sampled_from(LEVELS))
                ),
                priority=10 * priority,
            )
        )
    cap = data.draw(st.integers(1, 4), label="max_matches_per_rule")
    engine = RcaEngine(
        graph, library, resolver, store, EngineConfig(max_matches_per_rule=cap)
    )

    context = RetrievalContext(store=store, start=0.0, end=600.0)
    return engine, list(library.get("s").retrieve(context))[:4]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_generated_worlds_match_reference(small_topology, data):
    engine, symptoms = draw_world(small_topology, data)
    reference = ReferenceEngine(engine)
    for symptom in symptoms:  # one engine: later symptoms reuse its covers
        diagnosis = engine.diagnose(symptom)
        assert_agrees(diagnosis, reference.diagnose(symptom))
        # a trace is of this same path: equal conclusions, cold or warm
        traced = engine.isolated().diagnose(symptom, tracer=Tracer())
        assert traced == diagnosis
        assert traced.trace is not None and diagnosis.trace is None
