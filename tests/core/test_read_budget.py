"""Call budget of a rule evaluation: what learning "nothing there" costs.

Most evaluations of a large diagnosis graph find nothing — the Table IV
BGP application asks ~8 rules per matched instance and three in four
retrievals come back empty — so the price of an evaluation is the price
of its empty case.  Counted in ``call`` + ``c_call`` profile events,
which no machine makes faster or slower: a failure here is a regression
in the read path, never a slow runner.
"""

import pytest

from repro.apps import BgpFlapApp
from repro.core.engine import RcaEngine
from repro.core.spatial import BatchSpatialJoin
from repro.simulation import bgp_month

from ..budget import profile_events

#: profile events per rule evaluation, everything included (the walk,
#: retrieval, the store read, joins, reasoning).  188 on this world
#: before the read path stopped building what nobody reads; 140 after on
#: 3.10 / 3.11 and 135 on 3.12, which inlines comprehensions (bound
#: 160).  Since retrievals yield rows off ``query_columns`` and a
#: candidate becomes an instance only when read: 141.4 on 3.10.13 /
#: 3.11.7 and 136.3 on 3.12.1 (141.9 / 136.6 before, same procedure).
CALLS_PER_EVALUATION = 142


@pytest.fixture(scope="module")
def bgp():
    result = bgp_month(total_flaps=60, seed=5)
    app = BgpFlapApp.build(result.platform())
    symptoms = app.find_symptoms(result.start, result.end)
    assert len(symptoms) >= 30
    return app.engine, symptoms


def profiled(engine, symptoms):
    """Diagnose on a cold twin; count profile events by code object."""
    engine.resolver.clear_cache()
    twin = engine.isolated()
    watched = {
        RcaEngine._match.__code__: "evaluations",
        BatchSpatialJoin.__init__.__code__: "spatial_batches",
    }
    with profile_events(watched) as events:
        diagnoses = [twin.diagnose(symptom) for symptom in symptoms]
    return dict(events.calls, all=events.total), diagnoses


def test_calls_per_rule_evaluation_stay_in_budget(bgp):
    engine, symptoms = bgp
    calls, _diagnoses = profiled(engine, symptoms)
    assert calls["evaluations"] > 5 * len(symptoms)
    per_evaluation = calls["all"] / calls["evaluations"]
    assert per_evaluation <= CALLS_PER_EVALUATION, per_evaluation


def test_an_empty_retrieval_builds_no_spatial_batch(bgp):
    engine, symptoms = bgp
    calls, diagnoses = profiled(engine, symptoms)
    # what each evaluation found, from a traced twin of the same run
    engine.resolver.clear_cache()
    traced = engine.isolated().diagnose_all(symptoms, traced=True)
    rules = [span for d in traced for span in d.trace.find("rule")]
    assert len(rules) == calls["evaluations"]
    with_survivors = [r for r in rules if r.meta["temporal_survivors"]]
    empty = [r for r in rules if not r.meta["candidates"]]
    assert len(empty) > len(rules) / 2  # the common case is the empty one
    # one batch join per evaluation with something left to join, none
    # for a retrieval (or a temporal join) that came back empty
    assert calls["spatial_batches"] == len(with_survivors) < len(rules)
    assert [d.evidence for d in diagnoses] == [d.evidence for d in traced]
