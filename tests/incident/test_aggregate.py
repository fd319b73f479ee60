"""Aggregator semantics: dedupe identity, gap windows, re-emissions.

The aggregator keeps only its active incidents, so what it has folded
is read through its sink: ``Folded`` keeps the last revision per id.
"""

import pytest

from repro.core.locations import Location
from repro.incident import IncidentAggregator, IncidentStore
from repro.incident.aggregate import incident_id_for

from .conftest import diagnosis

GAP = 600.0


class Folded(dict):
    """A sink: incident id -> its last revision, oldest first on read."""

    def __call__(self, incident):
        self[incident.incident_id] = incident

    def incidents(self):
        return sorted(self.values(), key=lambda i: (i.first_seen, i.incident_id))


@pytest.fixture
def folded():
    return Folded()


@pytest.fixture
def aggregator(folded):
    return IncidentAggregator(gap_seconds=GAP, sink=folded)


class TestFolding:
    def test_repeated_symptom_folds_into_one_incident(self, aggregator, folded):
        for i in range(5):
            aggregator.observe(diagnosis(t=1000.0 + i * 60.0))
        incidents = folded.incidents()
        assert len(incidents) == 1
        assert incidents[0].flap_count == 5

    def test_first_and_last_seen_span_the_folds(self, aggregator):
        aggregator.observe(diagnosis(t=1000.0, duration=10.0))
        incident = aggregator.observe(diagnosis(t=1300.0, duration=10.0))
        assert incident.first_seen == 1000.0
        assert incident.last_seen == 1310.0
        assert incident.duration == 310.0

    def test_distinct_causes_do_not_merge(self, aggregator, folded):
        aggregator.observe(diagnosis(cause="Interface flap", t=1000.0))
        aggregator.observe(diagnosis(cause="CPU high (spike)", t=1010.0))
        assert len(folded) == 2

    def test_distinct_locations_do_not_merge(self, aggregator, folded):
        aggregator.observe(diagnosis(router="nyc-per1", t=1000.0))
        aggregator.observe(diagnosis(router="chi-per1", t=1010.0))
        assert len(folded) == 2

    def test_unknown_split_by_annotation(self, aggregator, folded):
        # evidence-unavailable Unknowns and true no-evidence Unknowns
        # are different operator situations; they must not merge
        clean = diagnosis(cause=None, t=1000.0)
        degraded = diagnosis(cause=None, t=1010.0, gap_sources=("snmp",))
        aggregator.observe(clean)
        aggregator.observe(degraded)
        causes = {i.cause for i in folded.values()}
        assert causes == {
            "Unknown (no evidence found)",
            "Unknown (evidence unavailable)",
        }


class TestGapWindow:
    def test_gap_exceeded_opens_a_new_incident(self, aggregator, folded):
        first = aggregator.observe(diagnosis(t=1000.0))
        second = aggregator.observe(diagnosis(t=1000.0 + GAP * 10))
        assert first.incident_id != second.incident_id
        assert not first.open
        assert second.open
        assert [i.flap_count for i in folded.incidents()] == [1, 1]
        assert aggregator.stats()["active"] == 1

    def test_within_gap_folds(self, aggregator):
        first = aggregator.observe(diagnosis(t=1000.0, duration=0.0))
        second = aggregator.observe(diagnosis(t=1000.0 + GAP - 1.0))
        assert first.incident_id == second.incident_id

    def test_advance_closes_idle_incidents(self, aggregator):
        aggregator.observe(diagnosis(t=1000.0))
        assert aggregator.advance(1000.0 + GAP) == []  # not idle long enough
        closed = aggregator.advance(1000.0 + GAP * 2)
        assert len(closed) == 1
        assert not closed[0].open
        assert aggregator.stats()["active"] == 0

    def test_gap_must_be_positive(self):
        with pytest.raises(ValueError):
            IncidentAggregator(gap_seconds=0.0)
        with pytest.raises(ValueError):
            IncidentAggregator(gap_seconds=-5.0)


class TestReemission:
    def test_same_instance_does_not_inflate_flaps(self, aggregator):
        d = diagnosis(t=1000.0)
        aggregator.observe(d)
        incident = aggregator.observe(d)  # streaming re-diagnosis
        assert incident.flap_count == 1
        assert aggregator.stats()["deduped_reemissions"] == 1

    def test_unchanged_reemission_is_not_a_revision(self):
        """A client polling one symptom (every served cache hit reaches
        the sink) must not grow the revision log."""
        store = IncidentStore()
        aggregator = IncidentAggregator(gap_seconds=GAP, sink=store.record)
        d = diagnosis(t=1000.0, caveats=("feed lagging",))
        for _ in range(3):
            incident = aggregator.observe(d)
        assert incident.revision == 1
        assert store.revisions() == 1
        assert store.get(incident.incident_id).revision == 1
        assert aggregator.stats()["deduped_reemissions"] == 2
        # an equal-or-higher confidence and a known caveat change nothing;
        # a lower confidence does, once
        aggregator.observe(diagnosis(t=1000.0, confidence=0.4))
        aggregator.observe(diagnosis(t=1000.0, confidence=0.4))
        assert (incident.revision, store.revisions()) == (2, 2)
        assert incident.confidence_min == 0.4

    def test_reemission_still_bumps_revision_and_rollups(self, aggregator):
        aggregator.observe(diagnosis(t=1000.0, confidence=1.0))
        incident = aggregator.observe(
            diagnosis(
                t=1000.0,
                confidence=0.5,
                caveats=("late evidence arrived",),
                gap_sources=("syslog",),
            )
        )
        assert incident.flap_count == 1
        assert incident.revision == 2
        assert incident.confidence_min == 0.5
        assert incident.gap_sources == ("syslog",)
        assert "late evidence arrived" in incident.caveats


class TestRollups:
    def test_confidence_mean_and_min(self, aggregator):
        aggregator.observe(diagnosis(t=1000.0, confidence=1.0))
        incident = aggregator.observe(diagnosis(t=1100.0, confidence=0.5))
        assert incident.confidence_mean == pytest.approx(0.75)
        assert incident.confidence_min == 0.5

    def test_gap_sources_union_sorted(self, aggregator):
        aggregator.observe(diagnosis(t=1000.0, gap_sources=("snmp",)))
        incident = aggregator.observe(
            diagnosis(t=1100.0, gap_sources=("bgpmon",))
        )
        assert incident.gap_sources == ("bgpmon", "snmp")
        assert incident.degraded_count == 2
        assert incident.is_degraded

    def test_caveats_capped(self, aggregator, folded):
        from repro.incident.aggregate import MAX_CAVEATS

        for i in range(MAX_CAVEATS + 5):
            aggregator.observe(
                diagnosis(t=1000.0 + i, caveats=(f"caveat {i}",))
            )
        (incident,) = folded.values()
        assert len(incident.caveats) == MAX_CAVEATS


class TestViewsAndIds:
    def test_incident_id_is_deterministic(self):
        location = Location.router("nyc-per1")
        a = incident_id_for("s", "Interface flap", location, 1000.0)
        b = incident_id_for("s", "Interface flap", location, 1000.0)
        assert a == b
        assert a.startswith("inc-")
        assert a != incident_id_for("s", "Interface flap", location, 2000.0)

    def test_two_aggregators_agree_on_ids(self):
        stream = [diagnosis(t=1000.0 + i * 60.0) for i in range(4)]
        first, second = Folded(), Folded()
        for sink in (first, second):
            aggregator = IncidentAggregator(gap_seconds=GAP, sink=sink)
            for d in stream:
                aggregator.observe(d)
        assert list(first) == list(second)

    def test_stats(self, aggregator):
        aggregator.observe(diagnosis(t=1000.0))
        assert aggregator.stats() == {
            "observed": 1,
            "deduped_reemissions": 0,
            "incidents": 1,
            "active": 1,
        }
        aggregator.observe(diagnosis(t=1000.0))
        aggregator.observe(diagnosis(t=1000.0 + GAP * 10))
        aggregator.advance(1000.0 + GAP * 20)
        # `incidents` counts every incident opened, closed ones included
        assert aggregator.stats() == {
            "observed": 3,
            "deduped_reemissions": 1,
            "incidents": 2,
            "active": 0,
        }

    def test_closed_incidents_are_forgotten(self, aggregator, folded):
        """A closed incident's one copy is the sink's: the public surface
        is observe / advance / stats, and none of them reaches it."""
        closed = aggregator.observe(diagnosis(t=1000.0))
        reopened = aggregator.observe(diagnosis(t=1000.0 + GAP * 10))
        assert not closed.open and folded[closed.incident_id] is closed
        assert aggregator.advance(1000.0 + GAP * 20) == [reopened]
        assert aggregator.advance(1000.0 + GAP * 30) == []
        # a re-emission of the closed instance is a new incident, not a fold
        again = aggregator.observe(diagnosis(t=1000.0 + GAP * 10))
        assert again is not reopened and again.open and again.revision == 1

    def test_sink_sees_every_revision(self):
        # capture at call time: the aggregator mutates incidents in place
        revisions = []
        aggregator = IncidentAggregator(
            gap_seconds=GAP, sink=lambda i: revisions.append(i.revision)
        )
        aggregator.observe(diagnosis(t=1000.0))
        aggregator.observe(diagnosis(t=1100.0))
        aggregator.advance(1100.0 + GAP * 2)
        assert revisions == [1, 2, 3]
