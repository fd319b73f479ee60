"""Cover budget: what the engine's retrieval cache holds per cached cover.

A cached cover keeps its candidate set and the store reads behind it
(its footprint, one ``(table, lo, hi)`` entry a read).  The footprint
is a tuple, deduplicated; as a ``frozenset`` each one held a hash table
for what is nearly always one entry.  Counted in traced bytes
(``tests/budget.py``), which no machine makes faster or slower.
"""

import sys

import pytest

from repro.apps import BgpFlapApp
from repro.core import locations
from repro.simulation import bgp_month

from ..budget import traced_bytes

#: Traced bytes a sibling engine holds per cached cover after one
#: ``diagnose_all`` of ``bgp_month(total_flaps=60, seed=5)`` (72
#: symptoms, 481 covers, one read each) on a warm engine, by CPython
#: version: 816 with tuple footprints, 984 with frozensets (3.11).
BUDGETS = {(3, 11): 850}


def test_a_cached_cover_holds_its_footprint_as_a_tuple(monkeypatch):
    bound = BUDGETS.get(sys.version_info[:2])
    if bound is None:
        pytest.skip(f"no cover budget recorded for Python {sys.version}")
    # the bounded intern table as a fresh process has it, whatever
    # other tests left in it
    monkeypatch.setattr(locations, "_INTERNED", {})
    result = bgp_month(total_flaps=60, seed=5)
    app = BgpFlapApp.build(result.platform())
    symptoms = app.find_symptoms(result.start, result.end)
    # one pass first: what the process builds once (interned locations,
    # routing memos) is not what a cover costs
    app.engine.isolated().diagnose_all(symptoms)
    with traced_bytes() as held:
        sibling = app.engine.isolated()
        sibling.diagnose_all(symptoms)
    covers = sibling._footprints.reads.values()
    assert len(covers) == len(sibling._retrieval_cache) == 481
    assert held.value / len(covers) <= bound, held.value / len(covers)
    for reads in covers:
        assert type(reads) is tuple and len(set(reads)) == len(reads)
