"""``Evidence`` against the plain item list it stands for.

A diagnosis keeps its matched evidence as runs — one ``(rule, parent,
depth)`` header and the instances matched along that edge — and builds
a ``MatchedEvidence`` only while someone reads one.  That must be
invisible: for every diagnosis, the evidence is the reference engine's
item list (``reference.py``) in length, iteration, indexing, slicing,
equality with lists in both directions and under any other grouping
into runs, and after a pickle; the supporting items sit where the
paper's rule puts them (every item of the winning nodes, winners in
name order); and the ``grca-diagnosis/1`` bytes of the three paper
applications are the ones pinned below, taken when every item was an
object of its own.

Three layers: the paper's applications at seed 5, hypothesis worlds
from ``test_differential.py``, and hypothesis item lists cut into runs
at random places.  Each of these mutations fails the tests named after
it:

* runs merged across parents — the walk extends the previous run when
  only the rule matches: the generated worlds (the seed-5 paper apps
  never put two runs of one rule next to each other);
* supporting taken from the wrong run — reasoning picks the next run:
  every paper app, both tests, and the generated worlds;
* ``len`` counting runs: the cdn and pim paper apps, the generated
  worlds, ``test_any_grouping_is_the_same_evidence`` and the storm
  budget in ``tests/core/test_evidence_budget.py``;
* equality by run identity — two evidences equal only when they share
  their run list: the pim paper app, the generated worlds,
  ``test_any_grouping_is_the_same_evidence`` and every decode-equality
  test in ``tests/service/test_serialize.py``;
* a decode that does not group — one run per item document: the cdn
  and pim paper apps and the generated worlds (decoded run counts).
"""

import hashlib
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import EventInstance
from repro.core.graph import DiagnosisRule
from repro.core.locations import Location, LocationType
from repro.core.reasoning.rule_based import Evidence, MatchedEvidence
from repro.core.serialize import diagnosis_from_dict, diagnosis_to_dict
from repro.core.spatial import JoinLevel, SpatialJoinRule
from repro.core.temporal import default_rule

from .reference import ReferenceEngine
from .test_differential import PAPER_APPS, draw_world

#: sha256 over every diagnosis's ``json.dumps(diagnosis_to_dict(d))``
#: plus a newline, in ``diagnose_all`` order — the documents of the
#: engine that built one ``MatchedEvidence`` per item.
WIRE_DIGESTS = {
    "bgp-month": "f4876eeadc0697daf58e645fe1b95b98411d83d932fa06a080fd5fb1b489d24c",
    "cdn-month": "1f81ecf4c83104d3d30c0999b5275e2043aaab01763463d62243a96d406244ce",
    "pim-fortnight": "e55b0d81f0ea5c9d726c4c3878cfc6f23e9c80dff5b2729165e04810550728da",
}


# ---------------------------------------------------------------------------
# the comparison


def one_run_per_item(items):
    """The same items, every one its own run (a grouping no walk makes)."""
    runs = []
    for item in items:
        runs += (item.rule, item.parent_instance, item.depth, 1, item.instance)
    return Evidence(runs)


def assert_evidence_is(evidence, items):
    """``evidence`` reads as the plain list ``items`` in every way."""
    assert len(evidence) == len(items)
    assert bool(evidence) == bool(items)
    assert list(evidence) == items
    assert [evidence[i] for i in range(len(items))] == items
    assert [evidence[-i] for i in range(1, len(items) + 1)] == items[::-1]
    assert evidence[1:-1] == items[1:-1] and evidence[::2] == items[::2]
    for outside in (len(items), -len(items) - 1):
        with pytest.raises(IndexError):
            evidence[outside]
    # equality with the list, both directions, and not with a shorter one
    assert evidence == items and items == evidence
    assert not evidence != items and not items != evidence
    if items:
        assert evidence != items[:-1] and items[:-1] != evidence
    # whatever the grouping into runs
    for other in (Evidence.of(items), one_run_per_item(items)):
        assert other == evidence and evidence == other
    # the runs are the items, header by header
    flattened = [
        (rule, parent, depth, instance)
        for rule, parent, depth, instances in evidence.runs()
        for instance in instances
    ]
    assert flattened == [
        (i.rule, i.parent_instance, i.depth, i.instance) for i in items
    ]
    # pickles as its runs
    restored = pickle.loads(pickle.dumps(evidence))
    assert restored == items and len(restored.runs()) == len(evidence.runs())


def expected_supporting(items, root_causes):
    """Positions of the supporting items by the paper's rule, from the
    item list alone: every item of each winning node, winners in order;
    all of it when nothing won."""
    if not root_causes:
        return list(range(len(items)))
    return [
        i
        for node in root_causes
        for i, item in enumerate(items)
        if item.rule.child_event == node
    ]


def check_diagnosis(diagnosis, reference):
    """Evidence and supporting of one diagnosis against the reference."""
    items = reference.evidence
    assert_evidence_is(diagnosis.evidence, items)
    supporting = diagnosis.result.supporting
    positions = diagnosis.evidence.offsets(supporting)
    assert positions == expected_supporting(items, diagnosis.root_causes)
    assert_evidence_is(supporting, [items[i] for i in positions])
    # one run per (rule, parent) edge the walk matched, in walk order
    headers = [(rule, parent) for rule, parent, _d, _i in diagnosis.evidence.runs()]
    assert len(set(headers)) == len(headers)


def check_round_trip(diagnosis):
    """The wire document decodes to an equal diagnosis over as many runs,
    and re-encodes to an equal document (not always the same bytes: a
    rule's integer margins come back as floats)."""
    document = json.loads(json.dumps(diagnosis_to_dict(diagnosis)))
    decoded = diagnosis_from_dict(document)
    assert decoded == diagnosis and diagnosis == decoded
    assert len(decoded.evidence.runs()) == len(diagnosis.evidence.runs())
    assert decoded.evidence.offsets(decoded.result.supporting) == (
        diagnosis.evidence.offsets(diagnosis.result.supporting)
    )
    assert diagnosis_to_dict(decoded) == document


# ---------------------------------------------------------------------------
# the paper's applications


@pytest.fixture(scope="module", params=sorted(PAPER_APPS))
def paper_app(request):
    simulate, app_cls = PAPER_APPS[request.param]
    result = simulate()
    app = app_cls.build(result.platform())
    symptoms = app.find_symptoms(result.start, result.end)
    return request.param, app, app.engine.diagnose_all(symptoms)


def test_paper_app_evidence_is_the_reference_items(paper_app):
    _name, app, diagnoses = paper_app
    reference = ReferenceEngine(app.engine)
    for diagnosis in diagnoses:
        check_diagnosis(diagnosis, reference.diagnose(diagnosis.symptom))
        check_round_trip(diagnosis)
    assert sum(len(d.evidence) for d in diagnoses) > len(diagnoses) // 2


def test_paper_app_wire_bytes_are_pinned(paper_app):
    name, _app, diagnoses = paper_app
    sha = hashlib.sha256()
    for diagnosis in diagnoses:
        sha.update(json.dumps(diagnosis_to_dict(diagnosis)).encode())
        sha.update(b"\n")
    assert sha.hexdigest() == WIRE_DIGESTS[name]


# ---------------------------------------------------------------------------
# generated worlds and generated groupings


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_generated_worlds_evidence_is_the_reference_items(small_topology, data):
    engine, symptoms = draw_world(small_topology, data)
    reference = ReferenceEngine(engine)
    for diagnosis in engine.diagnose_all(symptoms):
        check_diagnosis(diagnosis, reference.diagnose(diagnosis.symptom))
        check_round_trip(diagnosis)


def make_rule(parent, child, priority):
    return DiagnosisRule(
        parent, child, default_rule(),
        SpatialJoinRule(LocationType.ROUTER, LocationType.ROUTER, JoinLevel.ROUTER),
        priority=priority,
    )


RULES = [make_rule("s", "a", 10), make_rule("s", "b", 20), make_rule("a", "b", 30)]
INSTANCES = [
    EventInstance.make(name, t, t + 5.0, Location.router(router))
    for name in "sab"
    for t in (0.0, 60.0)
    for router in ("r1", "r2")
]
ITEMS = st.lists(
    st.builds(
        MatchedEvidence,
        st.sampled_from(RULES),
        st.sampled_from(INSTANCES[:4]),
        st.sampled_from(INSTANCES),
        st.integers(1, 2),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(items=ITEMS, cuts=st.sets(st.integers(1, 11)), data=st.data())
def test_any_grouping_is_the_same_evidence(items, cuts, data):
    # the maximal grouping, and one cut at arbitrary places besides
    runs, head = [], -1
    for k, item in enumerate(items):
        header = (item.rule, item.parent_instance, item.depth)
        if head < 0 or k in cuts or tuple(runs[head:head + 3]) != header:
            head = len(runs)
            runs += (*header, 0)
        runs[head + 3] += 1
        runs.append(item.instance)
    for evidence in (Evidence.of(items), Evidence(runs)):
        assert_evidence_is(evidence, items)
    # picked runs read as their items, in the picked order
    grouped = Evidence(runs)
    heads, p = [], 0
    while p < len(runs):
        heads.append(p)
        p += 4 + runs[p + 3]
    order = data.draw(st.permutations(heads))
    picks = order[: data.draw(st.integers(0, len(heads)))]
    part = Evidence(runs, picks) if picks else Evidence([])
    runs_at = dict(zip(heads, grouped.runs()))
    want = []
    for p in picks:
        rule, parent, depth, instances = runs_at[p]
        want += [MatchedEvidence(rule, parent, i, depth) for i in instances]
    assert_evidence_is(part, want)
    positions = grouped.offsets(part)
    assert [items[i] for i in positions] == want
    assert len(set(positions)) == len(positions)
