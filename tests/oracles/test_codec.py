"""The sharing decoder ≡ the decoder that builds everything afresh.

``repro.core.serialize`` decodes a location from a bounded intern table
and a rule from a table of shared rules, keyed on the decoded fields
type for type; ``codec.py`` builds every location, rule and expansion
from its own document.  Over the ``grca-diagnosis/1`` and
``grca-incident/1`` documents of the three paper applications at seed
5, and over mutations of them that spell one number three ways (``1``,
``1.0``, ``true`` — and ``0.0`` / ``-0.0``) in a rule's priority, its
margins, an item's depth and a location's parts, the two decode equal
objects that re-encode to the same bytes.  Equal is not enough on its
own: ``1 == 1.0 == True`` in Python, so the bytes are what tell a
shared rule decoded from another spelling apart.  Corrupted documents
raise ``ValueError`` and nothing else (the reference also leaks
``AttributeError`` for an object where a list or a dict belongs).

Mutation-checked (one run each), every one failing
``test_respelled_numbers_decode_as_written``:

* the rule table keyed on the raw JSON values instead of
  :func:`~repro.core.serialize._exact` ones (``priority`` ``10`` /
  ``10.0`` / ``true`` share one rule);
* the intern table taking numeric location parts (``[1]`` and
  ``[true]`` share one location);
* margins keyed without the sign of zero (``0.0`` and ``-0.0`` share
  one rule).
"""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.serialize import diagnosis_from_dict, diagnosis_to_dict
from repro.incident import IncidentAggregator, IncidentStore
from repro.incident.serialize import incident_from_dict, incident_to_dict

from . import codec
from .test_differential import PAPER_APPS


def wire(document):
    return json.loads(json.dumps(document))


@pytest.fixture(scope="module")
def documents():
    """``(diagnosis documents, incident documents)`` of the seed-5 paper
    apps, as they come off the wire: every revision the store logged."""
    diagnoses, incidents = [], []
    for name in sorted(PAPER_APPS):
        simulate, app_cls = PAPER_APPS[name]
        result = simulate()
        app = app_cls.build(result.platform())
        found = app.engine.diagnose_all(
            app.find_symptoms(result.start, result.end)
        )
        diagnoses += [wire(diagnosis_to_dict(d)) for d in found]
        store = IncidentStore()
        aggregator = IncidentAggregator(sink=store.record)
        for diagnosis in found:
            aggregator.observe(diagnosis)
        aggregator.advance(result.end + 1e6)
        incidents += [
            wire(row["payload"])
            for row in store.backend.query_columns(None, None, {}).records
        ]
    return diagnoses, incidents


def encoded(obj, encode):
    return json.dumps(encode(obj), allow_nan=True)


def assert_same_diagnosis(document):
    got, want = diagnosis_from_dict(document), codec.diagnosis_from_dict(document)
    assert got == want
    assert encoded(got, diagnosis_to_dict) == encoded(want, diagnosis_to_dict)


def assert_same_incident(document):
    got, want = incident_from_dict(document), codec.incident_from_dict(document)
    assert got == want and got.example == want.example
    assert encoded(got, incident_to_dict) == encoded(want, incident_to_dict)


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
