"""The incident path does not grow with the incidents it is not touching.

Scale sweeps counted, not timed (``tests/budget.py``): the same stream
shape at ×1 / ×2 / ×4 incidents.

* **Fold and record.**  ``IncidentAggregator.observe`` with
  ``IncidentStore.record`` as its sink costs the same profile events per
  diagnosis however many incidents exist (slope ≤ 0.15): a dict probe
  for the active incident, one revision appended to the log, one index
  slot.
* **As-of read.**  ``IncidentStore.incidents(start, end)`` over a
  fixed-width window costs the same however long the log around it
  has grown: the window is found by bisecting the log's timestamps and
  only its own revisions are grouped and decoded.
* **Revisions share their example.**  At a fixed number of incidents,
  ×1 / ×2 / ×4 revisions per incident grow the store's traced bytes
  with slope ≤ 0.15: an incident's example document is encoded once and
  every revision's payload points at it, so what grows is the few
  hundred bytes of envelope a revision adds.  Before, each revision
  kept its own copy of the example, and the slope read about 1.
* **Closed is forgotten.**  Once ``advance`` has closed every incident,
  nothing reachable from the aggregator (its sink aside) is an
  ``Incident`` or a member key: the store's revision log is a closed
  incident's one copy.  Before, the aggregator kept every incident it
  ever opened, each with its example ``Diagnosis`` and its member set.
"""

import gc
import types

from repro.core.diagnosis import Diagnosis
from repro.core.events import EventInstance
from repro.core.reasoning.rule_based import MatchedEvidence, RuleBasedResult
from repro.incident import Incident, IncidentAggregator, IncidentStore

from ..budget import loglog_slope, profile_events, traced_bytes
from ..incident.conftest import diagnosis

SCALES = (1, 2, 4)
#: incidents at ×1
INCIDENTS = 40
FLAPS = 4
GAP = 600.0
#: "per-row constant": the log-log slope of a cost over the scale
CONSTANT = 0.15


def stream(incidents):
    """Diagnoses of ``incidents`` incidents in time order: one router per
    pair of incidents, ``FLAPS`` flaps a window, two windows a router
    (the second closes the first inside ``observe``)."""
    routers = incidents // 2
    out = []
    for window in range(2):
        for flap in range(FLAPS):
            for k in range(routers):
                t = 1000.0 + window * 10 * GAP + flap * 60.0 + k * 0.1
                out.append(diagnosis(t=t, router=f"r{k}", duration=1.0))
    return out


def fold(diagnoses, sink):
    aggregator = IncidentAggregator(gap_seconds=GAP, sink=sink)
    for d in diagnoses:
        aggregator.observe(d)
    return aggregator


def test_fold_and_record_cost_the_same_per_diagnosis_at_any_size():
    costs = []
    for scale in SCALES:
        diagnoses = stream(INCIDENTS * scale)
        store = IncidentStore()
        with profile_events() as events:
            aggregator = fold(diagnoses, store.record)
        assert aggregator.stats()["incidents"] == len(store) == INCIDENTS * scale
        costs.append(events.total / len(diagnoses))
    assert loglog_slope(SCALES, costs) <= CONSTANT, costs


def test_an_as_of_read_costs_the_same_however_long_the_log():
    costs = []
    for scale in SCALES:
        store = IncidentStore()
        aggregator = fold([], store.record)
        # incidents one after another, 10 gaps apart, each flapping
        for k in range(INCIDENTS * scale):
            for flap in range(FLAPS):
                aggregator.observe(diagnosis(t=1000.0 + k * 10 * GAP + flap * 60.0))
        # a fixed window three incidents wide, in the middle of the log
        middle = 1000.0 + (INCIDENTS * scale // 2) * 10 * GAP
        start, end = middle - 1.0, middle + 25 * GAP
        with profile_events() as events:
            got = store.incidents(start, end)
        assert len(got) == 3, [i.first_seen for i in got]
        costs.append(events.total)
    assert loglog_slope(SCALES, costs) <= CONSTANT, costs


def rich(t, router, items=80):
    """A diagnosis whose example document outweighs a revision's
    envelope: ``items`` evidence items along one rule."""
    plain = diagnosis(t=t, router=router, duration=1.0)
    rule, location = plain.evidence[0].rule, plain.symptom.location
    evidence = [
        MatchedEvidence(
            rule, plain.symptom,
            EventInstance.make(rule.child_event, t - k, t - k, location), 1,
        )
        for k in range(items)
    ]
    return Diagnosis(
        symptom=plain.symptom,
        evidence=evidence,
        result=RuleBasedResult([rule.child_event], rule.priority, evidence),
    )


def test_a_store_keeps_one_example_document_per_incident():
    costs = []
    for scale in (1, *SCALES):  # the first pass warms what is built once
        # INCIDENTS routers, each flapping 2 x scale times in one window
        diagnoses = [
            rich(1000.0 + flap * 60.0 + k * 0.1, f"r{k}")
            for flap in range(2 * scale)
            for k in range(INCIDENTS)
        ]
        with traced_bytes() as held:
            store = IncidentStore()
            fold(diagnoses, store.record)
        assert store.revisions() == len(diagnoses)
        costs.append(held.value)
    assert loglog_slope(SCALES, costs[1:]) <= CONSTANT, costs


def held(aggregator, sink):
    """``(incidents, member keys)`` reachable from the aggregator without
    going through its sink."""
    seen, stack = {id(sink)}, [aggregator]
    incidents = keys = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, Incident):
            incidents += 1
        elif (  # an InstanceKey: (name, location parts, start)
            type(obj) is tuple
            and len(obj) == 3
            and isinstance(obj[1], tuple)
            and isinstance(obj[2], float)
        ):
            keys += 1
        stack.extend(gc.get_referents(obj))
    return incidents, keys


def test_an_aggregator_holds_nothing_it_has_closed():
    for scale in SCALES:
        incidents = INCIDENTS * scale
        store = IncidentStore()
        sink = store.record
        aggregator = fold(stream(incidents), sink)
        # the second windows are open, one per router
        assert held(aggregator, sink) == (incidents // 2, incidents // 2 * FLAPS)
        aggregator.advance(1e9)
        assert held(aggregator, sink) == (0, 0), scale
        assert aggregator.stats()["active"] == 0
        assert len(store.incidents(open=False)) == incidents
