"""The sharing codec ≡ the codec that builds everything afresh.

``repro.core.serialize`` encodes one shared, read-only document per rule
and location object, decodes a shared document once, decodes any other
location from a bounded intern table and any other rule from a table of
shared rules, keyed on the decoded fields type for type; ``codec.py``
builds every document, location, rule and expansion from its own value
or document.  Over the ``grca-diagnosis/1`` and ``grca-incident/1``
documents of the three paper applications at seed 5 — as encoded, as
logged by the incident store, re-encoded from their decodes (whose
margins are floats where the apps wrote ``60``), and mutated to spell
one number three ways (``1``, ``1.0``, ``true`` — and ``0.0`` /
``-0.0``) in a rule's priority, its margins, an item's depth and a
location's parts — the two encode the same bytes and decode equal
objects that re-encode to the same bytes.  Equal is not enough on its
own: ``1 == 1.0 == True`` in Python, so the bytes are what tell a
shared rule or document of another spelling apart.  Corrupted documents
raise ``ValueError`` and nothing else (the reference also leaks
``AttributeError`` for an object where a list or a dict belongs).  A
shared sub-document refuses edits with ``TypeError``; a deep copy or a
pickle round trip of it is plain and editable.

Mutation-checked (one run each), every one failing
``test_respelled_numbers_decode_as_written``:

* the rule table keyed on the raw JSON values instead of
  :func:`~repro.core.serialize._exact` ones (``priority`` ``10`` /
  ``10.0`` / ``true`` share one rule);
* the intern table taking numeric location parts (``[1]`` and
  ``[true]`` share one location);
* margins keyed without the sign of zero (``0.0`` and ``-0.0`` share
  one rule).

And for the encoder (one run each):

* a process-wide document table keyed on the location value instead of
  the memo on the location object fails
  ``test_respelled_location_parts_never_share_a_document`` (``[1]``,
  ``[1.0]`` and ``[true]`` share one document);
* a shared rule document decoding to the rule it was encoded from
  (``decoded`` set by ``rule_to_dict``) fails
  ``test_decoded_documents_encode_as_the_reference`` (``60`` where the
  decoder writes ``60.0``);
* ``SharedDict.__reduce_ex__`` deleted fails
  ``test_shared_subdocuments_are_read_only_and_copy_plain`` (a deep copy
  writes into a new read-only document and raises);
* ``SharedList.append`` left editable fails the same test;
* ``Location.__reduce__`` deleted, or ``DiagnosisRule.__getstate__``
  keeping ``_document``, fails
  ``test_a_copied_value_encodes_a_shared_document_of_its_own`` (a deep
  copy encodes to the plain ``dict`` the original's document copied
  to).
"""

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.locations import Location, LocationType
from repro.core.serialize import (
    SharedDict,
    SharedList,
    diagnosis_from_dict,
    diagnosis_to_dict,
    location_from_dict,
    location_to_dict,
    rule_to_dict,
)
from repro.incident import IncidentAggregator, IncidentStore
from repro.incident.serialize import incident_from_dict, incident_to_dict

from . import codec
from .test_differential import PAPER_APPS


def wire(document):
    return json.loads(json.dumps(document))


def encoded(obj, encode):
    return json.dumps(encode(obj), allow_nan=True)


@pytest.fixture(scope="module")
def paper_apps():
    """``(diagnoses, revisions, payloads)`` of the seed-5 paper apps:
    every diagnosis; every incident revision as the sink saw it, encoded
    by both encoders then; and every payload the store logged."""
    diagnoses, revisions, payloads = [], [], []
    for name in sorted(PAPER_APPS):
        simulate, app_cls = PAPER_APPS[name]
        result = simulate()
        app = app_cls.build(result.platform())
        found = app.engine.diagnose_all(
            app.find_symptoms(result.start, result.end)
        )
        diagnoses += found
        store = IncidentStore()

        def sink(incident, store=store):
            store.record(incident)
            revisions.append(
                (
                    encoded(incident, incident_to_dict),
                    encoded(incident, codec.incident_to_dict),
                )
            )

        aggregator = IncidentAggregator(sink=sink)
        for diagnosis in found:
            aggregator.observe(diagnosis)
        aggregator.advance(result.end + 1e6)
        payloads += [
            row["payload"]
            for row in store.backend.query_columns(None, None, {}).records
        ]
    return diagnoses, revisions, payloads


@pytest.fixture(scope="module")
def documents(paper_apps):
    """``(diagnosis documents, incident documents)`` of the seed-5 paper
    apps, as they come off the wire: every revision the store logged."""
    diagnoses, _revisions, payloads = paper_apps
    return [wire(diagnosis_to_dict(d)) for d in diagnoses], [
        wire(payload) for payload in payloads
    ]


def assert_same_diagnosis(document):
    got, want = diagnosis_from_dict(document), codec.diagnosis_from_dict(document)
    assert got == want
    assert encoded(got, diagnosis_to_dict) == encoded(want, codec.diagnosis_to_dict)


def assert_same_incident(document):
    got, want = incident_from_dict(document), codec.incident_from_dict(document)
    assert got == want and got.example == want.example
    assert encoded(got, incident_to_dict) == encoded(want, codec.incident_to_dict)


def test_paper_app_documents_encode_as_the_reference(paper_apps):
    diagnoses, revisions, payloads = paper_apps
    assert len(diagnoses) > 300 and len(revisions) == len(payloads) > 300
    for diagnosis in diagnoses:
        assert encoded(diagnosis, diagnosis_to_dict) == encoded(
            diagnosis, codec.diagnosis_to_dict
        )
    for ours, reference in revisions:
        assert ours == reference
    # the store logged exactly the revisions the sink saw
    logged = sorted(encoded(payload, lambda p: p) for payload in payloads)
    assert logged == sorted(reference for _ours, reference in revisions)


def test_decoded_documents_encode_as_the_reference(paper_apps, documents):
    """Decodes of the documents as encoded in this process (shared
    sub-documents, decoded once) and as they come off the wire, and
    their re-encodes: margins the apps wrote as ``60`` come back as
    ``60.0``, so a decoded rule must not be the rule it was encoded
    from, nor be handed that rule's document."""
    diagnoses, _revisions, payloads = paper_apps
    wire_diagnoses, wire_incidents = documents
    respelled = 0
    for document in [diagnosis_to_dict(d) for d in diagnoses] + wire_diagnoses[::5]:
        assert_same_diagnosis(document)
        respelled += encoded(diagnosis_from_dict(document), diagnosis_to_dict) != (
            json.dumps(document)
        )
    assert respelled > 0  # the integer margins of cdn and pim
    for document in payloads[::3] + wire_incidents[::3]:
        assert_same_incident(document)


def test_paper_app_documents_decode_as_the_reference(documents):
    diagnoses, incidents = documents
    assert len(diagnoses) > 300 and len(incidents) > 300
    for document in diagnoses:
        assert_same_diagnosis(document)
    for document in incidents:
        assert_same_incident(document)


def test_shared_subdocuments_decode_as_the_reference(documents):
    """Documents that share their rule and parent documents between
    items (as encoded, before the wire) decode the same too."""
    diagnoses, _ = documents
    for document in diagnoses[::7]:
        shared = diagnosis_to_dict(diagnosis_from_dict(document))
        assert_same_diagnosis(shared)


# ---------------------------------------------------------------------------
# shared documents


def nodes(document):
    """Every ``dict`` and ``list`` in a JSON tree, the root included."""
    out, stack = [], [document]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            out.append(node)
            stack += node.values()
        elif isinstance(node, list):
            out.append(node)
            stack += node
    return out


def test_shared_subdocuments_are_read_only_and_copy_plain(paper_apps):
    diagnoses, _revisions, _payloads = paper_apps
    diagnosis = next(d for d in diagnoses if d.evidence)
    document = diagnosis_to_dict(diagnosis)
    item = document["evidence"][0]
    rule, location = item["rule"], item["instance"]["location"]
    assert rule is diagnosis_to_dict(diagnosis)["evidence"][0]["rule"]
    edits = [
        lambda: rule.__setitem__("priority", 0),
        lambda: rule.update(note="edited"),
        lambda: rule.pop("note"),
        lambda: rule.__delitem__("note"),
        lambda: rule.setdefault("extra", 1),
        lambda: rule.clear(),
        lambda: rule["temporal"]["symptom"].__setitem__("left", 0.0),
        lambda: rule["spatial"].popitem(),
        lambda: location.__setitem__("type", "router"),
        lambda: location["parts"].append("x"),
        lambda: location["parts"].__setitem__(0, "x"),
        lambda: location["parts"].extend(["x"]),
        lambda: location["parts"].sort(),
    ]
    before = json.dumps(document)
    for edit in edits:
        with pytest.raises(TypeError, match="read-only"):
            edit()
    with pytest.raises(TypeError):
        rule |= {"note": "edited"}
    with pytest.raises(TypeError):
        location["parts"] += ["x"]
    assert json.dumps(document) == before
    for copied in (
        copy.deepcopy(document),
        pickle.loads(pickle.dumps(document, protocol=pickle.HIGHEST_PROTOCOL)),
        pickle.loads(pickle.dumps(document, protocol=2)),
    ):
        assert copied == document and json.dumps(copied) == before
        assert {type(node) for node in nodes(copied)} <= {dict, list}
        copied["evidence"][0]["rule"]["priority"] = -1
        copied["evidence"][0]["instance"]["location"]["parts"].append("x")
    assert json.dumps(document) == before
    assert type(copy.copy(rule)) is dict and type(dict(location)) is dict
    assert type(list(location["parts"])) is list


def test_a_copied_value_encodes_a_shared_document_of_its_own(paper_apps):
    """A rule or location that crossed a pickle (a fork worker's
    diagnoses) or a deep copy starts without the original's document:
    it encodes a read-only one of its own, never a plain copy."""
    diagnoses, _revisions, _payloads = paper_apps
    rule, parent, _depth, _instances = next(
        d for d in diagnoses if d.evidence
    ).evidence.runs()[0]
    location = parent.location
    originals = (rule_to_dict(rule), location_to_dict(location))
    for copy_of in (copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        for value, original, encode in (
            (rule, originals[0], rule_to_dict),
            (location, originals[1], location_to_dict),
        ):
            twin = copy_of(value)
            assert twin == value and hash(twin) == hash(value)
            document = encode(twin)
            assert document.__class__ is SharedDict and document == original
            assert document is not original
            with pytest.raises(TypeError):
                document["note" if encode is rule_to_dict else "type"] = "x"


def test_a_pickle_writes_a_repeated_subdocument_once(paper_apps):
    """What a SQLite row stores: one copy of each repeated rule or
    location document (the symptom's location is its evidence's parent
    location too), loaded as one plain container everything refers to."""
    diagnoses, _revisions, _payloads = paper_apps
    diagnosis = max(diagnoses, key=lambda d: len(d.evidence))
    document = diagnosis_to_dict(diagnosis)
    shared = [n for n in nodes(document) if n.__class__ in (SharedDict, SharedList)]
    distinct = len({id(node) for node in shared})
    assert distinct < len(shared)
    loaded = pickle.loads(pickle.dumps(document, protocol=pickle.HIGHEST_PROTOCOL))
    assert loaded == document == wire(document)
    assert len({id(node) for node in nodes(loaded)}) == len(
        {id(node) for node in nodes(document)}
    )
    assert diagnosis_from_dict(loaded) == diagnosis_from_dict(document)


def test_respelled_location_parts_never_share_a_document():
    spellings = [1, 1.0, True, "1"]
    decoded = [
        location_from_dict({"type": "router", "parts": [part]}) for part in spellings
    ]
    documents = [location_to_dict(location) for location in decoded]
    assert len({id(document) for document in documents}) == len(spellings)
    assert [json.dumps(document) for document in documents] == [
        json.dumps(codec.location_to_dict(location)) for location in decoded
    ] == [
        json.dumps({"type": "router", "parts": [part]}) for part in spellings
    ]
    # an interned location keeps one document, decoded once
    router = Location.router("nyc-per1")
    document = location_to_dict(router)
    assert document.__class__ is SharedDict and document["parts"].__class__ is SharedList
    assert location_to_dict(Location(LocationType.ROUTER, ("nyc-per1",))) == document
    assert location_from_dict(document) is location_from_dict(document) == router


# ---------------------------------------------------------------------------
# one number, spelled three ways

#: equal in Python, spelled apart in JSON
NUMBERS = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 10, 10.0, 2, 2.0])


def slots(document):
    """``(container, key)`` of every number a respelling may touch."""
    out = []
    for item in document.get("evidence", []):
        rule = item["rule"]
        out.append((rule, "priority"))
        for side in ("symptom", "diagnostic"):
            out += [(rule["temporal"][side], "left"), (rule["temporal"][side], "right")]
        out.append((item, "depth"))
        for instance in (item["instance"], item["parent_instance"]):
            parts = instance["location"]["parts"]
            out += [(parts, k) for k in range(len(parts))]
    parts = document["symptom"]["location"]["parts"]
    out += [(parts, k) for k in range(len(parts))]
    return out


def respelled(document, data):
    """A copy of ``document`` with a few numbers respelled."""
    document = copy.deepcopy(document)
    places = slots(document)
    if places:
        for index in data.draw(
            st.lists(st.integers(0, len(places) - 1), min_size=1, max_size=4)
        ):
            container, key = places[index]
            container[key] = data.draw(NUMBERS)
    return document


def assert_same_or_both_refuse(reference, decode, document, same):
    """Both decode, to the same thing, or both refuse — the decoder with
    a ``ValueError`` whatever the reference raised."""
    try:
        reference(document)
    except Exception:
        with pytest.raises(ValueError):
            decode(document)
    else:
        same(document)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_respelled_numbers_decode_as_written(documents, data):
    diagnoses, incidents = documents
    # one document spelled several ways in a row: whatever the first
    # spelling left in a table, the next must not be handed it
    if data.draw(st.booleans()):
        base = data.draw(st.sampled_from(diagnoses))
        for _ in range(3):
            assert_same_or_both_refuse(
                codec.diagnosis_from_dict, diagnosis_from_dict,
                respelled(base, data), assert_same_diagnosis,
            )
    else:
        base = data.draw(st.sampled_from(incidents))
        for _ in range(3):
            document = copy.deepcopy(base)
            if "example" in document:
                document["example"] = respelled(document["example"], data)
            parts = document["location"]["parts"]
            parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(NUMBERS)
            assert_same_or_both_refuse(
                codec.incident_from_dict, incident_from_dict, document,
                assert_same_incident,
            )


# ---------------------------------------------------------------------------
# malformed payloads

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def paths(node):
    """Every ``(container, key)`` in a JSON tree."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = range(len(node))
    else:
        return []
    out = []
    for key in keys:
        out.append((node, key))
        out += paths(node[key])
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupted_payloads_raise_only_value_error(documents, data):
    diagnoses, incidents = documents
    incident = data.draw(st.booleans())
    document = copy.deepcopy(
        data.draw(st.sampled_from(incidents if incident else diagnoses))
    )
    for _ in range(data.draw(st.integers(1, 3))):
        container, key = data.draw(st.sampled_from(paths(document)))
        if data.draw(st.booleans()):
            container[key] = data.draw(JSON_VALUES)
        elif isinstance(container, dict):
            del container[key]
        else:
            container.pop(key)
    decode = incident_from_dict if incident else diagnosis_from_dict
    try:
        decode(document)
    except ValueError:
        pass
