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
from repro.collector.backends import MemoryBackend
from repro.collector.rows import RowBatch
from repro.collector.store import Table
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
#: Those counts depended on what the tests before had warmed: alone,
#: the same file read 142.9.  Since the fixture runs a warm-up pass,
#: and posting lists are built by the first read that filters on their
#: column (its one-time cost: 164.8 without the pass): 141.2 on 3.11.7,
#: bound lowered to keep the 0.6 margin.
CALLS_PER_EVALUATION = 141.8


@pytest.fixture(scope="module")
def bgp():
    result = bgp_month(total_flaps=60, seed=5)
    app = BgpFlapApp.build(result.platform())
    symptoms = app.find_symptoms(result.start, result.end)
    assert len(symptoms) >= 30
    # one pass first: what the process builds once (interned locations,
    # routing memos, the posting lists of the columns retrievals filter
    # on) is not what an evaluation costs
    app.engine.isolated().diagnose_all(symptoms)
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


#: profile events a stored row costs the one filtered read that builds
#: its column's posting list (one ``append`` a row: 1.0 measured)
EVENTS_PER_POSTED_ROW = 1.05
#: profile events of a filtered read once the list exists, at any size
#: (20 measured)
EVENTS_PER_BUILT_READ = 30


def test_a_posting_list_is_built_once_by_the_first_filtered_read():
    rows = 20000
    table = Table("syslog", ("router", "code"))
    table.insert_many(RowBatch(
        ("router", "code"),
        [float(i) for i in range(rows)],
        [(f"r{i % 7}", f"C{i % 3}") for i in range(rows)],
    ))
    watched = {MemoryBackend._build.__code__: "builds"}
    with profile_events(watched) as unfiltered:
        table.query_columns(0.0, 10.0)
    with profile_events(watched) as first:
        assert len(table.query_columns(0.0, 10.0, router="r1")) == 2
    with profile_events(watched) as second:
        assert len(table.query_columns(0.0, 10.0, router="r1")) == 2
    assert unfiltered.calls["builds"] == 0
    assert first.calls["builds"] == 1
    assert first.total / rows <= EVENTS_PER_POSTED_ROW, first.total / rows
    assert second.calls["builds"] == 0
    assert second.total <= EVENTS_PER_BUILT_READ, second.total
