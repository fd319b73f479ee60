"""Candidate budget: what a retrieval builds that nobody reads.

A retrieval process yields plain rows and ``EventDefinition.retrieve``
keeps them as columns (``CandidateSet``): the joins read intervals and
locations, so an ``EventInstance`` is built only for a row someone
reads — a symptom, a match — and a store row is read off the columns,
never as a ``Record``.  Counted in profile events (``tests/budget.py``),
which no machine makes faster or slower.
"""

from repro.apps import BgpFlapApp
from repro.collector.rows import Record
from repro.core.events import EventInstance
from repro.simulation import BASE_EPOCH, bgp_month

from ..budget import profile_events
from ..oracles.storm import DAY, mvpn_storm

#: an instance per build, and a record per build on each way one is made
BUILDS = {
    EventInstance.__post_init__.__code__: "instances",
    Record.__init__.__code__: "records",
    Record.__setstate__.__code__: "records",
}


def test_a_storm_builds_instances_only_for_the_rows_it_reads():
    # 30 symptoms, 1 470 matches of 313 distinct rows: 343 instances
    # built (871 when every retrieved row became one)
    app, _symptoms, _action = mvpn_storm()
    engine = app.engine.isolated()
    with profile_events(BUILDS) as events:
        symptoms = engine.find_symptoms(BASE_EPOCH, BASE_EPOCH + DAY)
        diagnoses = engine.diagnose_all(symptoms)
    matched = {
        instance
        for diagnosis in diagnoses
        for _rule, _parent, _depth, instances in diagnosis.evidence.runs()
        for instance in instances
    }
    assert len(symptoms) == 30 and len(matched) > 300
    assert events.calls["instances"] <= len(matched) + len(symptoms)


def test_engine_retrievals_build_no_record():
    result = bgp_month(total_flaps=60, seed=5)
    app = BgpFlapApp.build(result.platform())
    engine = app.engine.isolated()
    with profile_events(BUILDS) as events:
        symptoms = engine.find_symptoms(result.start, result.end)
        diagnoses = engine.diagnose_all(symptoms)
    assert len(symptoms) == 72
    assert sum(len(diagnosis.evidence) for diagnosis in diagnoses) == 186
    assert events.calls["records"] == 0
