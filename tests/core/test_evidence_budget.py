"""Evidence budget: what a diagnosis's matched evidence costs at rest.

A diagnosis keeps one run per graph edge it matched — ``(rule, parent,
depth)`` and the instances matched along it — and builds a
``MatchedEvidence`` only while someone reads one.  So what it retains
grows with its runs, not its items: a storm symptom joining 49
instances along two edges keeps two runs.  And the one-item-per-run
path (the BGP application, every served one-symptom job) must do no
more than when every item was an object of its own.  Counted in
tracked objects and profile events (``tests/budget.py``), which no
machine makes faster or slower.
"""

import sys

import pytest

from repro.apps import BgpFlapApp
from repro.core.serialize import diagnosis_from_dict, diagnosis_to_dict
from repro.simulation import bgp_month

from ..budget import profile_events, tracked_objects
from ..oracles.storm import mvpn_storm

#: Per diagnosis on ``bgp_month(total_flaps=60, seed=5)`` (72 symptoms,
#: 186 evidence items in 186 runs), after one warm-up pass: profile
#: events per ``diagnose`` on a cold engine, per ``diagnosis_to_dict``
#: and per ``diagnosis_from_dict``, and tracked objects left per
#: diagnosis.  The bounds are the counts when every item was a
#: ``MatchedEvidence`` of its own, by CPython version:
#:
#: ======  ========  ======  ======  =======
#: Python  diagnose  encode  decode  tracked
#: ======  ========  ======  ======  =======
#: 3.10    1 168.3   89.9    196.9   78.8
#: 3.11    1 168.3   89.9    196.9   74.2
#: 3.12    1 124.8   79.8    192.9   74.2
#: ======  ========  ======  ======  =======
#:
#: As runs: 1 154.7 / 87.3 / 194.6 / 75.1 on 3.10, 1 154.7 / 87.3 / 194.6
#: / 73.1 on 3.11, 1 111.3 / 75.7 / 191.8 / 73.1 on 3.12.  (Measured
#: without the warm-up pass, ``diagnose`` read 1 182 on 3.11 before.)
#:
#: Encode and decode have come down twice since, and their bounds with
#: them: decoding shares one rule and location per distinct value (the
#: "before" column), and encoding hands out one shared document per rule
#: and location, which decoding reads once ("now").  Each bound is the
#: count now plus the margin the bound had over the count as runs
#: (encode +2.7 / +2.7 / +4.3, decode +2.4 / +2.4 / +1.2):
#:
#: ======  =======================  =======================
#: Python  encode: before · now     decode: before · now
#: ======  =======================  =======================
#: 3.10    87.4 · 49.1  (bound 52)  167.9 · 87.4  (bound 90)
#: 3.11    87.4 · 49.1  (bound 52)  167.9 · 87.4  (bound 90)
#: 3.12    75.8 · 37.5  (bound 42)  165.1 · 84.6  (bound 86)
#: ======  =======================  =======================
#:
#: (``diagnose`` and ``tracked`` did not move: 1 163.0 / 72.4 on 3.11.)
BUDGETS = {
    (3, 10): (1169, 52, 90, 78),
    (3, 11): (1169, 52, 90, 74),
    (3, 12): (1125, 42, 86, 74),
}

#: What a storm diagnosis may retain on a warm engine: a constant (the
#: diagnosis, its result, lists, footprint) plus one per run.  When each
#: of the storm's 1 470 items was an object, a diagnosis retained 60
#: (49 items in 2 runs); as runs, 13.
PER_DIAGNOSIS = 12
PER_RUN = 1


@pytest.fixture(scope="module")
def bgp():
    result = bgp_month(total_flaps=60, seed=5)
    app = BgpFlapApp.build(result.platform())
    symptoms = app.find_symptoms(result.start, result.end)
    assert len(symptoms) == 72
    # one pass first: what the process builds once (interned locations,
    # routing memos) is not what a diagnosis costs
    app.engine.isolated().diagnose_all(symptoms)
    return app.engine, symptoms


def cold(engine):
    engine.resolver.clear_cache()
    return engine.isolated()


def budget():
    """``(diagnose, encode, decode, tracked)`` bounds for this Python."""
    bounds = BUDGETS.get(sys.version_info[:2])
    if bounds is None:
        pytest.skip(f"no evidence budget recorded for Python {sys.version}")
    return bounds


def test_a_storm_diagnosis_retains_runs_not_items():
    app, symptoms, _action = mvpn_storm()
    engine = app.engine.isolated()
    engine.diagnose_all(symptoms)  # covers cached: what is left is diagnoses
    with tracked_objects() as grown:
        diagnoses = engine.diagnose_all(symptoms)
    items = sum(len(d.evidence) for d in diagnoses)
    runs = sum(len(d.evidence.runs()) for d in diagnoses)
    assert items > 20 * runs  # the storm shape: dozens of items per run
    assert grown.value <= PER_DIAGNOSIS * len(diagnoses) + PER_RUN * runs, (
        grown.value / len(diagnoses)
    )


def test_the_one_item_path_retains_no_more(bgp):
    *_events, tracked_per_diagnosis = budget()
    engine, symptoms = bgp
    twin = cold(engine)
    with tracked_objects() as grown:
        diagnoses = [twin.diagnose(symptom) for symptom in symptoms]
    assert sum(len(d.evidence) for d in diagnoses) == 186
    assert sum(len(d.evidence.runs()) for d in diagnoses) == 186
    per_diagnosis = grown.value / len(symptoms)
    assert per_diagnosis <= tracked_per_diagnosis, per_diagnosis


def test_the_one_item_path_calls_no_more(bgp):
    per_diagnose, per_encode, per_decode, _tracked = budget()
    engine, symptoms = bgp
    twin = cold(engine)
    with profile_events() as diagnosing:
        diagnoses = [twin.diagnose(symptom) for symptom in symptoms]
    with profile_events() as encoding:
        documents = [diagnosis_to_dict(d) for d in diagnoses]
    with profile_events() as decoding:
        decoded = [diagnosis_from_dict(document) for document in documents]
    assert decoded == diagnoses
    n = len(symptoms)
    assert diagnosing.total / n <= per_diagnose, diagnosing.total / n
    assert encoding.total / n <= per_encode, encoding.total / n
    assert decoding.total / n <= per_decode, decoding.total / n
