"""One copy at rest on the incident path: counted, not timed.

* **One example document per incident.**  An incident's example is set
  when it opens and never changes, so recording ``r`` revisions of it
  encodes the example once (``diagnosis_to_dict`` entered once, not
  ``r`` times), and every revision's payload is the bytes a fresh
  ``incident_to_dict`` of that revision gives.  An id re-opened after
  ``advance`` closed it brings a new example, and its revisions carry
  that one, not the closed incident's.
* **One rule and one location per distinct value.**  Decoding every
  stored document of ``bgp_month(60, seed=5)`` hands out one
  ``DiagnosisRule`` per distinct rule and one ``Location`` per distinct
  location (counted by ``id``).  Before, each evidence run decoded a
  rule of its own and each instance a location of its own: 372 rules
  for 11 distinct and 888 locations for 117.
* **One rule and one location document per distinct value.**  The
  store's documents of that month hold 11 rule documents and 117
  location documents (counted by ``id``): every revision, example and
  evidence item refers to the one its rule or location encoded to.
  Before, each evidence run encoded its rule afresh and each instance
  its location: 186 rule documents and 588 location documents.

The intern and decoding tables are bounded and process-wide, so the
counts run on empty ones: what other tests left in them is not what a
process encoding and decoding these documents holds.
"""

import json

import pytest

from repro.apps import BgpFlapApp
from repro.core import locations, serialize
from repro.incident import (
    IncidentAggregator,
    IncidentStore,
    incident_from_dict,
    incident_to_dict,
)
from repro.simulation import bgp_month

from ..budget import profile_events
from .conftest import diagnosis

GAP = 3600.0


def payloads(store):
    """Every logged payload, in log order, as JSON text."""
    rows = store.backend.query_columns(None, None, {}).records
    return [json.dumps(row["payload"]) for row in rows]


def test_revisions_of_one_incident_encode_its_example_once():
    flaps = [diagnosis(t=1000.0 + 60.0 * k) for k in range(6)]
    store = IncidentStore()
    expected = []

    def sink(incident):
        store.record(incident)
        expected.append(json.dumps(incident_to_dict(incident)))

    aggregator = IncidentAggregator(gap_seconds=GAP, sink=store.record)
    watch = {serialize.diagnosis_to_dict.__code__: "encode"}
    with profile_events(watch) as events:
        for flap in flaps:
            aggregator.observe(flap)
        aggregator.advance(1e9)  # the closing revision
    assert store.revisions() == len(flaps) + 1
    assert events.calls["encode"] == 1

    # the same stream, each revision also encoded whole as it happens
    store = IncidentStore()
    twin = IncidentAggregator(gap_seconds=GAP, sink=sink)
    for flap in flaps:
        twin.observe(flap)
    twin.advance(1e9)
    assert payloads(store) == expected


def test_a_reopened_id_stores_its_own_example():
    store = IncidentStore()
    aggregator = IncidentAggregator(gap_seconds=GAP, sink=store.record)
    first = diagnosis(t=1000.0)
    aggregator.observe(first)
    aggregator.observe(diagnosis(t=1060.0))
    aggregator.advance(1e9)
    # the first symptom again, another diagnosis of it: the same id
    again = diagnosis(t=1000.0, caveats=("re-diagnosed",))
    with profile_events({serialize.diagnosis_to_dict.__code__: "encode"}) as events:
        reopened = aggregator.observe(again)
        aggregator.advance(2e9)
    assert events.calls["encode"] == 1
    rows = store.backend.query_columns(None, None, {}).records
    assert {row["incident_id"] for row in rows} == {reopened.incident_id}
    # the log is in time order; the incidents' own caveats tell them apart
    for row in rows:
        document = row["payload"]
        example = again if document["caveats"] else first
        assert document["example"] == serialize.diagnosis_to_dict(example)
    assert sum(bool(row["payload"]["caveats"]) for row in rows) == 2


@pytest.fixture(scope="module")
def bgp_month_store():
    """``(store, rules, locations)``: every revision of
    ``bgp_month(60, seed=5)``'s incidents, and the rules and locations
    decoding each stored document handed out, on empty tables."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(locations, "_INTERNED", {})
        patch.setattr(serialize, "_RULES", {})
        result = bgp_month(total_flaps=60, seed=5)
        app = BgpFlapApp.build(result.platform())
        store = IncidentStore()
        aggregator = IncidentAggregator(gap_seconds=GAP, sink=store.record)
        for found in app.run(result.start, result.end).diagnoses:
            aggregator.observe(found)
        aggregator.advance(result.end + GAP + 1.0)
        rules, places = [], []
        for text in payloads(store):
            incident = incident_from_dict(json.loads(text))
            places.append(incident.location)
            example = incident.example
            places.append(example.symptom.location)
            for rule, parent, _depth, instances in example.evidence.runs():
                rules.append(rule)
                places += [i.location for i in (parent, *instances)]
        yield store, rules, places


def test_decoded_documents_share_one_rule_and_location_per_value(bgp_month_store):
    _store, rules, places = bgp_month_store
    assert len(rules) > 300 and len(places) > 800
    assert len({id(r) for r in rules}) == len(set(rules)) == 11
    assert len({id(p) for p in places}) == len(set(places)) == 117


def test_stored_documents_share_one_rule_and_location_document_per_value(
    bgp_month_store,
):
    store, _rules, _places = bgp_month_store
    rules, places = [], []
    for row in store.backend.query_columns(None, None, {}).records:
        document = row["payload"]
        places.append(document["location"])
        example = document["example"]
        places.append(example["symptom"]["location"])
        for item in example["evidence"]:
            rules.append(item["rule"])
            places += [item["parent_instance"]["location"], item["instance"]["location"]]
    assert len(rules) > 300 and len(places) > 800
    distinct_rules = {json.dumps(rule, sort_keys=True) for rule in rules}
    distinct_places = {json.dumps(place) for place in places}
    assert len(distinct_rules) == 11 and len(distinct_places) == 117
    assert len({id(rule) for rule in rules}) == 11
    assert len({id(place) for place in places}) == 117
