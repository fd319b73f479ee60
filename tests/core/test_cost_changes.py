"""The cost-change index ≡ classifying every ``ospfmon`` row of every
window with :func:`classify_cost_change`, whatever the store does."""

import random
import sys
import threading

import pytest

from repro.collector import DataCollector
from repro.collector.backends import memory_backend
from repro.collector.sources.ospfmon import (
    render_ospfmon_row,
    weight_history_from_store,
)
from repro.collector.store import DataStore
from repro.core.events import RetrievalContext
from repro.core.knowledge import KnowledgeLibrary, names
from repro.core.knowledge.cost_changes import (
    CostChangeIndex,
    classify_cost_change,
    retrieve_cost_changes,
)
from repro.platform import GrcaPlatform
from repro.routing.ospf import COST_OUT_WEIGHT, WeightChange, WeightHistory
from repro.topology import TopologyParams, build_topology

BASE = 1262692800.0
LINKS = [f"l{i}" for i in range(6)]
COST_EVENTS = (names.LINK_COST_OUT, names.LINK_COST_IN, names.ROUTER_COST_IN_OUT)


class CountingHistory(WeightHistory):
    """A weight history that counts the per-row lookups made of it."""

    lookups = 0

    def weight_at(self, link, timestamp):
        self.lookups += 1
        return super().weight_at(link, timestamp)


def updates(rng, count, start, spread):
    """``count`` weight updates, time-ordered, flipping links in and out."""
    times = sorted(start + rng.uniform(0, spread) for _ in range(count))
    return [
        (t, rng.choice(LINKS), rng.choice([10, 20, COST_OUT_WEIGHT, COST_OUT_WEIGHT]))
        for t in times
    ]


def per_row(history, store, start, end):
    """The reference: one classifier call per row of the window."""
    changes = []
    for record in store.table("ospfmon").query(start, end):
        change = classify_cost_change(
            history, record["link"], record.timestamp, record["weight"]
        )
        if change is not None:
            changes.append((record.timestamp, record["link"], change))
    return changes


def context(store, start, end, **services):
    return RetrievalContext(store=store, start=start, end=end, services=services)


def assert_windows_agree(rng, store, history, index, lo, hi, windows=12):
    for _ in range(windows):
        start = rng.uniform(lo - 50, hi)
        end = start + rng.uniform(0, (hi - lo) / 2)
        indexed = retrieve_cost_changes(
            context(store, start, end, weight_history=history, cost_changes=index)
        )
        assert list(indexed) == per_row(history, store, start, end)


def insert(store, rows):
    for timestamp, link, weight in rows:
        store.insert("ospfmon", timestamp, link=link, weight=weight)


@pytest.fixture(params=[1, 2, 3])
def rng(request):  # shadows the session generator: these runs are seeded
    return random.Random(request.param)


class TestIndexEqualsPerRow:
    def test_in_order_batches(self, rng):
        store, index = DataStore(backend="memory"), CostChangeIndex()
        history = WeightHistory({link: 10 for link in LINKS[:3]})
        for batch in range(6):
            insert(store, updates(rng, 40, BASE + batch * 600, 600))
            assert_windows_agree(
                rng, store, history, index, BASE, BASE + (batch + 1) * 600
            )

    def test_history_grown_from_the_rows(self, rng):
        store, index = DataStore(backend="memory"), CostChangeIndex()
        insert(store, updates(rng, 200, BASE, 3600))
        history = weight_history_from_store(store)
        assert_windows_agree(rng, store, history, index, BASE, BASE + 3600, 30)

    @pytest.mark.parametrize("tail_limit", [0, 3, None])
    def test_out_of_order_arrivals_and_tail_merges(self, rng, tail_limit):
        store = DataStore(backend=memory_backend(tail_limit=tail_limit))
        index, history = CostChangeIndex(), WeightHistory()
        backend = store.table("ospfmon")._backend
        insert(store, updates(rng, 80, BASE, 1800))
        assert_windows_agree(rng, store, history, index, BASE, BASE + 1800)
        for _ in range(5):
            # late rows land in the tail (slices stop being zero-copy)
            # until a merge renumbers the run under a new generation
            insert(store, updates(rng, 2, BASE + 100, 1000))
            assert_windows_agree(rng, store, history, index, BASE, BASE + 1800)
            insert(store, updates(rng, 10, BASE + 1800, 50))
        if tail_limit is not None:
            assert backend.merges > 0
        assert backend.out_of_order > 0

    def test_sqlite_backend(self, rng):
        store, index = DataStore(backend="sqlite"), CostChangeIndex()
        history = WeightHistory()
        insert(store, updates(rng, 60, BASE, 1800))
        assert_windows_agree(rng, store, history, index, BASE, BASE + 1800)

    def test_two_threads_on_overlapping_windows(self):
        rng = random.Random(7)
        store, index = DataStore(backend="memory"), CostChangeIndex()
        history = WeightHistory()
        insert(store, updates(rng, 400, BASE, 7200))
        windows = [
            (start, start + rng.uniform(0, 1800))
            for start in (rng.uniform(BASE - 60, BASE + 7200) for _ in range(150))
        ]
        expected = [per_row(history, store, *window) for window in windows]
        failures = []

        def worker(order):
            for k in order:
                got = retrieve_cost_changes(
                    context(store, *windows[k], weight_history=history,
                            cost_changes=index)
                )
                if list(got) != expected[k]:
                    failures.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(order,))
                for order in (range(150), reversed(range(150)), range(0, 150, 3))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_each_row_is_classified_once(self):
        rng = random.Random(11)
        store, index = DataStore(backend="memory"), CostChangeIndex()
        history = CountingHistory()
        insert(store, updates(rng, 300, BASE, 3600))
        # covers sliding forward and overlapping, three events each
        for lo in range(0, 3000, 300):
            for _event in COST_EVENTS:
                retrieve_cost_changes(
                    context(store, BASE + lo, BASE + lo + 900,
                            weight_history=history, cost_changes=index)
                )
        assert history.lookups <= 300


class TestEventsThroughTheIndex:
    """Same instances, same order, with the index wired and without."""

    def test_cost_events_agree(self, small_topology, rng):
        kb = KnowledgeLibrary()
        network = small_topology.network
        links = sorted(network.logical_links)
        store = DataStore(backend="memory")
        for timestamp, link, weight in updates(rng, 300, BASE, 3600):
            store.insert(
                "ospfmon", timestamp, link=links[LINKS.index(link)], weight=weight
            )
        history = weight_history_from_store(store)
        plain = {"weight_history": history, "network": network}
        wired = dict(plain, cost_changes=CostChangeIndex())
        for lo in range(0, 3600, 450):
            for name in COST_EVENTS:
                definition = kb.events.get(name)
                window = (BASE + lo, BASE + lo + 1200)
                assert list(
                    definition.retrieve(context(store, *window, **wired))
                ) == list(definition.retrieve(context(store, *window, **plain)))


class TestWiredHistory:
    """The index classifies against whatever history the platform has
    wired — the one built when the platform was, until
    ``refresh_routing()`` swaps it — never a live one of its own."""

    def test_follows_refresh_routing_mid_stream(self):
        topo = build_topology(TopologyParams(n_pops=2, pers_per_pop=1, seed=9))
        collector = DataCollector()
        platform = GrcaPlatform.from_collector(topo, collector)  # empty store
        link = sorted(topo.network.logical_links)[0]
        rows = [(BASE, 10), (BASE + 60, COST_OUT_WEIGHT), (BASE + 120, 10),
                (BASE + 180, COST_OUT_WEIGHT), (BASE + 240, COST_OUT_WEIGHT)]
        collector.ingest(
            "ospfmon", [render_ospfmon_row(t, link, weight) for t, weight in rows]
        )
        store, services = platform.store, platform.services
        window = (BASE - 1, BASE + 300)

        def retrieved():
            return list(retrieve_cost_changes(context(store, *window, **services)))

        # wired from the empty store: nothing is known to have been out
        # before, so every costed-out update reads as a cost-out and
        # none as a cost-in
        wired = services["weight_history"]
        assert wired.change_count == 0
        before = retrieved()
        assert before == per_row(wired, store, *window)
        assert before == [(BASE + 60, link, "out"), (BASE + 180, link, "out"),
                          (BASE + 240, link, "out")]

        platform.refresh_routing()
        refreshed = services["weight_history"]
        assert refreshed is not wired and refreshed.change_count == len(rows)
        after = retrieved()
        assert after == per_row(refreshed, store, *window)
        assert after == [(BASE + 60, link, "out"), (BASE + 120, link, "in"),
                         (BASE + 180, link, "out")]

    def test_a_history_that_grows_in_place_is_followed(self):
        store, index = DataStore(backend="memory"), CostChangeIndex()
        history = WeightHistory()
        insert(store, [(BASE, "l0", COST_OUT_WEIGHT), (BASE + 60, "l0", 10)])
        window = (BASE - 1, BASE + 100)
        services = dict(weight_history=history, cost_changes=index)
        first = list(retrieve_cost_changes(context(store, *window, **services)))
        assert first == [(BASE, "l0", "out")]
        for record in store.table("ospfmon").scan():
            history.record(
                WeightChange(record.timestamp, record["link"], record["weight"])
            )
        second = list(retrieve_cost_changes(context(store, *window, **services)))
        assert second == per_row(history, store, *window)
        assert second == [(BASE, "l0", "out"), (BASE + 60, "l0", "in")]
