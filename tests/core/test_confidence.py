"""Confidence annotation of diagnoses under impaired evidence feeds.

Covers :func:`assess_confidence` / :class:`EvidenceGap` in isolation and
the engine integration: an impairment interval recorded against a feed
that backs a diagnostic event must surface as a gap, a caveat and a
discounted confidence on every diagnosis whose retrieval window overlaps
it — and must leave diagnoses outside the interval untouched.
"""

import pytest

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
from repro.core.reasoning.rule_based import (
    GAP_PENALTIES,
    MIN_CONFIDENCE,
    UNKNOWN_DEGRADED,
    UNKNOWN_NO_EVIDENCE,
    EvidenceGap,
    assess_confidence,
)
from repro.core.spatial import JoinLevel, SpatialJoinRule
from repro.core.temporal import ExpandOption, TemporalExpansion, TemporalJoinRule


def gap(source="syslog", state=FeedState.DOWN, start=0.0, end=100.0,
        event="a", parent="s"):
    return EvidenceGap(source=source, state=state, start=start, end=end,
                       event=event, parent_event=parent)


class TestAssessConfidence:
    def test_no_gaps_full_confidence(self):
        assert assess_confidence([]) == (1.0, [])

    @pytest.mark.parametrize("state", list(GAP_PENALTIES))
    def test_single_gap_charges_state_penalty(self, state):
        confidence, caveats = assess_confidence([gap(state=state)])
        assert confidence == round(1.0 - GAP_PENALTIES[state], 2)
        assert len(caveats) == 1

    def test_same_feed_does_not_compound(self):
        gaps = [gap(start=0.0), gap(start=500.0, end=600.0)]
        confidence, caveats = assess_confidence(gaps)
        assert confidence == round(1.0 - GAP_PENALTIES[FeedState.DOWN], 2)
        assert len(caveats) == 2  # but every gap still gets its caveat

    def test_same_feed_worst_state_wins(self):
        gaps = [gap(state=FeedState.LAGGING), gap(state=FeedState.DOWN)]
        confidence, _ = assess_confidence(gaps)
        assert confidence == round(1.0 - GAP_PENALTIES[FeedState.DOWN], 2)

    def test_distinct_feeds_compound(self):
        gaps = [gap(source="syslog"), gap(source="bgpmon")]
        confidence, _ = assess_confidence(gaps)
        assert confidence == round(1.0 - 2 * GAP_PENALTIES[FeedState.DOWN], 2)

    def test_confidence_floor(self):
        gaps = [gap(source=s) for s in ("a", "b", "c", "d", "e")]
        confidence, _ = assess_confidence(gaps)
        assert confidence == MIN_CONFIDENCE

    def test_describe_names_feed_state_interval_and_events(self):
        text = gap(source="bgpmon", state=FeedState.LAGGING,
                   start=10.0, end=20.0, event="flap", parent="loss").describe()
        assert "'bgpmon'" in text
        assert "LAGGING" in text
        assert "[10, 20]" in text
        assert "'flap'" in text and "'loss'" in text


# ---------------------------------------------------------------------------
# engine integration


def store_backed_event(name, table, data_source=""):
    """Event definition reading (timestamp, router) rows from a table."""

    def retrieve(context: RetrievalContext):
        columns = context.store.table(table).query_columns(context.start, context.end)
        for timestamp, router in zip(columns.timestamps, columns.column("router")):
            yield timestamp, timestamp, Location.router(router), ()

    return EventDefinition(
        name, LocationType.ROUTER, retrieve, data_source=data_source
    )


ROUTER_JOIN = SpatialJoinRule(LocationType.ROUTER, LocationType.ROUTER, JoinLevel.ROUTER)


def temporal(left=30.0, right=30.0):
    exp = TemporalExpansion(ExpandOption.START_END, left, right)
    return TemporalJoinRule(exp, exp)


@pytest.fixture
def setup(resolver):
    """Graph s -> a -> b; 'a' rides syslog, 'b' rides the bgp monitor."""
    store = DataStore()
    library = EventLibrary()
    library.register(
        EventDefinition("s", LocationType.ROUTER, lambda context: [])
    )
    library.register(store_backed_event("a", "syslog", data_source="syslog"))
    library.register(store_backed_event("b", "bgpmon", data_source="bgp monitor"))
    graph = DiagnosisGraph(symptom_event="s")
    graph.add_rule(DiagnosisRule("s", "a", temporal(), ROUTER_JOIN, priority=10))
    graph.add_rule(DiagnosisRule("a", "b", temporal(), ROUTER_JOIN, priority=20))
    health = HealthRegistry()
    engine = RcaEngine(
        graph, library, resolver, store, config=EngineConfig(health=health)
    )
    return store, engine, health


def symptom_at(t, router="nyc-per1"):
    return EventInstance.make("s", t, t + 10.0, Location.router(router))


class TestEngineGapIntegration:
    def test_healthy_feeds_full_confidence(self, setup):
        store, engine, _health = setup
        store.insert("syslog", 1005.0, router="nyc-per1")
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.confidence == 1.0
        assert not diagnosis.gaps and not diagnosis.caveats
        assert not diagnosis.is_degraded

    def test_outage_overlapping_window_recorded_as_gap(self, setup):
        _store, engine, health = setup
        health.record_outage("syslog", 900.0, 2000.0)
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.is_degraded
        assert diagnosis.confidence == round(
            1.0 - GAP_PENALTIES[FeedState.DOWN], 2
        )
        (recorded,) = [g for g in diagnosis.gaps if g.event == "a"]
        assert recorded.source == "syslog"
        assert recorded.state is FeedState.DOWN
        # the gap is clamped to the rule's search window
        assert recorded.start >= 900.0
        assert recorded.end <= 2000.0

    def test_outage_outside_window_ignored(self, setup):
        store, engine, health = setup
        store.insert("syslog", 1005.0, router="nyc-per1")
        health.record_outage("syslog", 5000.0, 6000.0)
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.confidence == 1.0
        assert not diagnosis.gaps

    def test_gap_recorded_even_for_unmatched_rules(self, setup):
        """'b' never matched (no rows), but its feed being down still
        taints the conclusion — absence of evidence was not reliable."""
        store, engine, health = setup
        store.insert("syslog", 1005.0, router="nyc-per1")
        health.record_outage("bgpmon", 0.0, 9000.0)
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.primary_cause == "a"  # still explained
        assert diagnosis.is_degraded
        assert {g.source for g in diagnosis.gaps} == {"bgpmon"}

    def test_unknown_splits_by_evidence_health(self, setup):
        _store, engine, health = setup
        clean = engine.diagnose(symptom_at(1000.0))
        assert clean.annotated_cause == UNKNOWN_NO_EVIDENCE
        health.record_outage("syslog", 900.0, 2000.0)
        blind = engine.diagnose(symptom_at(1000.0))
        assert blind.annotated_cause == UNKNOWN_DEGRADED
        assert blind.primary_cause == "Unknown"  # plain label unchanged

    def test_explained_diagnosis_keeps_cause_as_annotation(self, setup):
        store, engine, health = setup
        store.insert("syslog", 1005.0, router="nyc-per1")
        health.record_outage("bgpmon", 0.0, 9000.0)
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.annotated_cause == "a"

    def test_explain_carries_confidence_and_caveats(self, setup):
        _store, engine, health = setup
        health.record_outage("syslog", 900.0, 2000.0)
        text = engine.diagnose(symptom_at(1000.0)).explain()
        assert UNKNOWN_DEGRADED in text
        assert "confidence:" in text
        assert "'syslog'" in text and "DOWN" in text

    def test_open_ended_outage_clamped_to_window(self, setup):
        _store, engine, health = setup
        health.record_outage("syslog", 900.0, None)  # still down
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.is_degraded
        for recorded in diagnosis.gaps:
            assert recorded.end <= 2000.0  # bounded by the search window

    def test_no_health_registry_disables_gap_tracking(self, resolver, setup):
        store, engine, _health = setup
        engine.config.health = None
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.confidence == 1.0
        assert diagnosis.annotated_cause == UNKNOWN_NO_EVIDENCE
