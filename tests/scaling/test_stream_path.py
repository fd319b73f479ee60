"""What a stream keeps, and what dropping from it costs, does not grow
with the history it has seen.

Scale sweeps counted, not timed (``tests/budget.py``), at ×1 / ×2 / ×4:

* **The replayer holds what is undelivered.**  ``FeedReplayer`` over
  ×1 / ×2 / ×4 feed lines, delivered tick by tick to the end, still
  holds the same traced bytes (slope ≤ 0.15): the caller's tuples are
  not kept, and delivered stretches are dropped.  Before, it kept the
  whole sorted stream, and the slope read about 1.
* **A late row inside one cover.**  With one cover per symptom cached,
  a row landing inside one ``few`` cover's window makes
  ``RcaEngine.sync`` drop that cover from its event's ``CoverIndex``
  alone (slope ≤ 0.15).  Before, every event's index was rebuilt from
  the whole retrieval cache: 370 / 700 / 1 360 profile events.
* **One horizon eviction.**  ``evict_retrievals_before`` dropping the
  oldest cover costs the same however many covers stay (slope ≤ 0.15):
  the footprint index pops it off its end-ordered heap, and the cover
  index removes it alone.
* **One retained entry aged out.**  ``_Retained.forget_before``
  dropping one of ×1 / ×2 / ×4 entries costs what it drops (slope ≤
  0.15), where it used to scan every entry.

Mutations that fail here: the replayer keeping its sorted tuple list
(bytes); ``_drop_retrievals`` rebuilding every cover index (the late row
and the eviction); ``_Retained.forget_before`` scanning its entries and
recomputing their oldest end (the eviction and the aged-out entry).
"""

from repro.core.footprint import _Retained
from repro.core.streaming import FeedReplayer

from ..budget import loglog_slope, profile_events, traced_bytes
from .test_catch_up_path import CONSTANT, FEW, SCALES, STEP, SYMPTOMS, T0, world

#: feed lines at ×1, over three sources
LINES = 3000
SOURCES = ("ospfmon", "syslog", "snmp")
#: seconds between a source's lines, and between replay ticks
GAP = 10.0
TICK = 900.0


class Sink:
    """A collector that parses nothing and keeps nothing."""

    parsers = dict.fromkeys(SOURCES)

    def ingest(self, source, lines, now=None):
        pass


def replayer_bytes(lines):
    """Traced bytes a replayer over ``lines`` feed lines still holds
    once every line is delivered."""
    texts = [f"line {k}" for k in range(lines)]  # the feed's own strings
    end = lines * GAP
    with traced_bytes() as held:
        replayer = FeedReplayer(
            Sink(), [(k * GAP, SOURCES[k % 3], text) for k, text in enumerate(texts)]
        )
        now = 0.0
        while now <= end:
            replayer.deliver_until(now)
            now += TICK
        replayer.deliver_until(now)
    assert replayer.pending == 0
    return held.value


def test_the_replayer_holds_nothing_once_everything_is_delivered():
    costs = [replayer_bytes(LINES * scale) for scale in SCALES]
    assert loglog_slope(SCALES, costs) <= CONSTANT, costs


def warm_engine(topology, symptoms):
    """The catch-up world's engine, every symptom diagnosed once: one
    cover per symptom (``x``) plus ``FEW`` (``y``) cached."""
    engine, last = world(topology, symptoms)
    engine.diagnose_all(engine.find_symptoms(T0 - STEP, last))
    assert len(engine._retrieval_cache) == symptoms + FEW
    return engine


def sync_after_a_row_inside_a_cover(topology, symptoms):
    engine = warm_engine(topology, symptoms)
    # beside the first symptom's ``x`` row: inside the ``y`` cover it led to
    engine.store.insert("few", T0 + 5.0, router="nyc-per1")
    with profile_events() as events:
        assert engine.sync() == 1
    assert len(engine._retrieval_cache) == symptoms + FEW - 1
    return events.total


def one_horizon_eviction(topology, symptoms):
    engine = warm_engine(topology, symptoms)
    first, second = sorted(hi for _event, _lo, hi in engine._retrieval_cache)[:2]
    assert first < second
    with profile_events() as events:
        assert engine.evict_retrievals_before((first + second) / 2) == 1
    return events.total


def test_a_late_row_inside_one_cover_drops_that_cover_alone(small_topology):
    costs = [
        sync_after_a_row_inside_a_cover(small_topology, SYMPTOMS * scale)
        for scale in SCALES
    ]
    assert loglog_slope(SCALES, costs) <= CONSTANT, costs


def test_one_horizon_eviction_costs_what_it_drops(small_topology):
    costs = [one_horizon_eviction(small_topology, SYMPTOMS * scale) for scale in SCALES]
    assert loglog_slope(SCALES, costs) <= CONSTANT, costs


def one_entry_aged_out(entries):
    retained = _Retained(lambda _key, end: end)
    for k in range(entries):
        retained[("key", k)] = float(k)
    with profile_events() as events:
        assert list(retained.forget_before(0.5)) == [("key", 0)]
    assert len(retained) == entries - 1
    return events.total


def test_one_retained_entry_aged_out_costs_what_it_drops():
    costs = [one_entry_aged_out(SYMPTOMS * 10 * scale) for scale in SCALES]
    assert loglog_slope(SCALES, costs) <= CONSTANT, costs
