"""``diagnosis_to_dict`` + encode does not grow with what it has encoded.

Scale sweeps counted, not timed (``tests/budget.py``): the BGP month
of the paper's Table IV application, ``bgp_month(seed=5)`` at ×1 / ×2 /
×4 flaps (60 / 120 / 240), diagnosed, folded into incidents and logged
by an ``IncidentStore``.

* **One document per distinct rule and location.**  The revisions the
  store logs grow linearly with the flaps (slope ≥ 0.85), but the rule
  documents its payloads refer to stay 11 objects (slope ≤ 0.15), and
  there is one location document object per distinct location at every
  scale (objects per distinct location, slope ≤ 0.15).  The distinct
  locations themselves grow (117 / 159 / 232: more sessions flap), so
  the location gate is the ratio.  Before, every evidence run encoded
  its rule afresh and every instance its location: 186 / 327 / 605
  rule documents (slope ≈ 0.85) and 5.0 / 6.6 / 8.4 location documents
  per distinct location (slope ≈ 0.37).
* **Encoding costs the same per diagnosis.**  Profile events per
  ``diagnosis_to_dict`` + ``json.dumps`` over every diagnosis of the
  month stay flat (slope ≤ 0.15).

Mutation-checked (one run each): ``rule_to_dict`` building its document
afresh on every call fails the rule gate, and ``location_to_dict``
building its document afresh fails the location gate.

The location intern table is bounded and process-wide, so the sweep
runs on an empty one: a table other tests filled interns nothing new,
and a location that is not interned is one object, with its own
document, per retrieval.
"""

import json

import pytest

from repro.apps import BgpFlapApp
from repro.core import locations
from repro.core.serialize import diagnosis_to_dict
from repro.incident import IncidentAggregator, IncidentStore
from repro.simulation import bgp_month

from ..budget import loglog_slope, profile_events

SCALES = (1, 2, 4)
#: flaps at ×1
FLAPS = 60
GAP = 3600.0
#: "per-row constant": the log-log slope of a cost over the scale
CONSTANT = 0.15


def logged(store):
    """``(rule documents, location documents)`` the store's payloads
    refer to, one entry per reference."""
    rules, places = [], []
    for row in store.backend.query_columns(None, None, {}).records:
        document = row["payload"]
        places.append(document["location"])
        example = document["example"]
        places.append(example["symptom"]["location"])
        for item in example["evidence"]:
            rules.append(item["rule"])
            places.append(item["parent_instance"]["location"])
            places.append(item["instance"]["location"])
    return rules, places


@pytest.fixture(scope="module")
def sweep():
    """Per scale: ``(diagnoses, store)``."""
    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(locations, "_INTERNED", {})
        for scale in SCALES:
            result = bgp_month(total_flaps=FLAPS * scale, seed=5)
            app = BgpFlapApp.build(result.platform())
            diagnoses = app.run(result.start, result.end).diagnoses
            store = IncidentStore()
            aggregator = IncidentAggregator(gap_seconds=GAP, sink=store.record)
            for diagnosis in diagnoses:
                aggregator.observe(diagnosis)
            aggregator.advance(result.end + GAP + 1.0)
            out.append((diagnoses, store))
    return out


def test_a_store_holds_one_document_per_distinct_rule_and_location(sweep):
    revisions, rule_documents, per_location = [], [], []
    for _diagnoses, store in sweep:
        rules, places = logged(store)
        revisions.append(store.revisions())
        rule_documents.append(len({id(rule) for rule in rules}))
        distinct = len({json.dumps(place) for place in places})
        per_location.append(len({id(place) for place in places}) / distinct)
    assert loglog_slope(SCALES, revisions) >= 0.85, revisions
    assert rule_documents[0] == 11
    assert loglog_slope(SCALES, rule_documents) <= CONSTANT, rule_documents
    assert per_location[0] == 1.0
    assert loglog_slope(SCALES, per_location) <= CONSTANT, per_location


def test_encoding_costs_the_same_per_diagnosis_at_any_size(sweep):
    costs = []
    for diagnoses, _store in sweep:
        with profile_events() as events:
            for diagnosis in diagnoses:
                json.dumps(diagnosis_to_dict(diagnosis))
        costs.append(events.total / len(diagnoses))
    assert loglog_slope(SCALES, costs) <= CONSTANT, costs
