"""Engine-level properties: determinism and margin monotonicity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.collector.store import DataStore
from repro.core.engine import RcaEngine
from repro.core.footprint import FootprintIndex, footprint_hit
from repro.core.events import EventLibrary
from repro.core.graph import DiagnosisGraph, DiagnosisRule
from repro.core.locations import LocationType
from repro.core.spatial import JoinLevel, SpatialJoinRule
from repro.core.temporal import ExpandOption, TemporalExpansion, TemporalJoinRule

from .test_engine import ROUTER_JOIN, store_backed_event, symptom_at, symptom_event


def build_engine(resolver, store, margin):
    library = EventLibrary()
    library.register(symptom_event("s"))
    library.register(store_backed_event("a", "ta"))
    graph = DiagnosisGraph(symptom_event="s")
    expansion = TemporalExpansion(ExpandOption.START_END, margin, margin)
    graph.add_rule(
        DiagnosisRule(
            "s", "a", TemporalJoinRule(expansion, expansion), ROUTER_JOIN, priority=10
        )
    )
    return RcaEngine(graph, library, resolver, store)


@pytest.fixture
def populated_store():
    store = DataStore()
    for offset in (-500.0, -120.0, -30.0, 5.0, 40.0, 300.0, 900.0):
        store.insert("ta", 1000.0 + offset, router="nyc-per1")
    store.insert("ta", 1000.0, router="chi-per1")  # wrong router, never joins
    return store


class TestMarginMonotonicity:
    def test_wider_margins_never_lose_evidence(self, resolver, populated_store):
        """Evidence sets grow monotonically with the temporal margin."""
        previous: set = set()
        for margin in (0.0, 10.0, 60.0, 200.0, 600.0, 2000.0):
            engine = build_engine(resolver, populated_store, margin)
            diagnosis = engine.diagnose(symptom_at(1000.0))
            current = {e.instance.start for e in diagnosis.evidence}
            assert previous <= current, margin
            previous = current
        # the widest margin sees every same-router record
        assert len(previous) == 7

    def test_zero_margin_sees_only_overlap(self, resolver, populated_store):
        engine = build_engine(resolver, populated_store, 0.0)
        diagnosis = engine.diagnose(symptom_at(1000.0))
        starts = {e.instance.start for e in diagnosis.evidence}
        assert starts == {1005.0}  # inside the symptom's [1000, 1010]


class TestDeterminism:
    def test_repeated_diagnosis_identical(self, resolver, populated_store):
        engine = build_engine(resolver, populated_store, 100.0)
        first = engine.diagnose(symptom_at(1000.0))
        second = engine.diagnose(symptom_at(1000.0))
        assert first.root_causes == second.root_causes
        assert [e.instance for e in first.evidence] == [
            e.instance for e in second.evidence
        ]

    def test_fresh_engine_agrees_with_warm_cache(self, resolver, populated_store):
        warm = build_engine(resolver, populated_store, 100.0)
        warm.diagnose(symptom_at(900.0))  # populate cache
        cached = warm.diagnose(symptom_at(1000.0))
        fresh = build_engine(resolver, populated_store, 100.0).diagnose(
            symptom_at(1000.0)
        )
        assert {e.instance for e in cached.evidence} == {
            e.instance for e in fresh.evidence
        }


class TestFrontierCheck:
    """The index's per-table reach is a sound pre-check for a
    ``footprint_hit`` sweep of that table's keys."""

    tables = st.sampled_from(["ta", "tb", "tc"])
    bounds = st.one_of(st.just(float("-inf")), st.just(float("inf")), st.floats(-1e4, 1e4))
    reads = st.lists(
        st.tuples(tables, bounds, bounds).map(
            lambda read: (read[0], min(read[1:]), max(read[1:]))
        ),
        max_size=6,
    )

    @given(
        st.lists(reads, max_size=5),
        st.dictionaries(
            tables, st.lists(st.floats(-1e4, 1e4), max_size=5).map(sorted), max_size=3
        ),
    )
    def test_no_hit_outside_the_reach(self, footprints, deltas):
        index = FootprintIndex(DataStore())
        for key, footprint in enumerate(footprints):
            index.add(key, footprint)
        for table, points in deltas.items():
            landed = {table: points}
            if any(footprint_hit(footprint, landed) for footprint in footprints):
                assert index._reached(table, points[0])
