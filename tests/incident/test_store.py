"""IncidentStore: revision log, latest-wins reads, breakdown queries."""

import threading

import pytest

from repro.collector.backends import DelegatingBackend, MemoryBackend
from repro.incident import IncidentAggregator, IncidentStore
from repro.incident.store import INDEXED_COLUMNS

from .conftest import diagnosis

GAP = 600.0


def feed(store, stream, close_at=None):
    """Fold a diagnosis stream through an aggregator into the store."""
    aggregator = IncidentAggregator(gap_seconds=GAP, sink=store.record)
    for d in stream:
        aggregator.observe(d)
    if close_at is not None:
        aggregator.advance(close_at)
    return aggregator


@pytest.fixture
def store():
    return IncidentStore()


class TestRevisionLog:
    def test_latest_revision_wins(self, store):
        feed(store, [diagnosis(t=1000.0 + i * 60.0) for i in range(4)])
        assert len(store) == 1
        assert store.revisions() == 4
        incident = store.incidents()[0]
        assert incident.flap_count == 4
        assert incident.revision == 4

    def test_timeline_is_the_revision_log(self, store):
        feed(store, [diagnosis(t=1000.0 + i * 60.0) for i in range(3)])
        incident = store.incidents()[0]
        timeline = store.timeline(incident.incident_id)
        assert [r.revision for r in timeline] == [1, 2, 3]
        assert [r.flap_count for r in timeline] == [1, 2, 3]

    def test_get_and_unknown_id(self, store):
        feed(store, [diagnosis(t=1000.0)])
        incident = store.incidents()[0]
        assert store.get(incident.incident_id).flap_count == 1
        with pytest.raises(KeyError):
            store.get("inc-missing")
        with pytest.raises(KeyError):
            store.timeline("inc-missing")


class TestQueries:
    def setup_stream(self, store):
        feed(
            store,
            [
                diagnosis(cause="Interface flap", router="nyc-per1", t=1000.0),
                diagnosis(cause="Interface flap", router="nyc-per1", t=1200.0),
                diagnosis(cause="CPU high (spike)", router="chi-per1", t=2000.0),
                diagnosis(cause="Interface flap", router="chi-per1", t=3000.0),
            ],
            close_at=3000.0 + GAP * 2,
        )

    def test_filter_by_cause(self, store):
        self.setup_stream(store)
        flaps = store.incidents(cause="Interface flap")
        assert len(flaps) == 2
        assert {str(i.location) for i in flaps} == {
            "router[nyc-per1]",
            "router[chi-per1]",
        }

    def test_filter_by_location(self, store):
        self.setup_stream(store)
        chi = store.incidents(location="router[chi-per1]")
        assert {i.cause for i in chi} == {"Interface flap", "CPU high (spike)"}

    def test_filter_by_open(self, store):
        feed(
            store,
            [diagnosis(t=1000.0), diagnosis(router="chi-per1", t=2000.0)],
        )
        # close only the first by advancing past its window
        assert len(store.incidents(open=True)) == 2
        assert store.incidents(open=False) == []

    def test_time_window_bounds_last_activity(self, store):
        self.setup_stream(store)
        early = store.incidents(end=1500.0)
        assert {i.cause for i in early} == {"Interface flap"}
        assert len(early) == 1

    def test_breakdown_buckets_by_cause(self, store):
        self.setup_stream(store)
        series = store.breakdown(bucket_seconds=1000.0)
        assert series["Interface flap"] == [(1000.0, 1), (3000.0, 1)]
        assert series["CPU high (spike)"] == [(2000.0, 1)]

    def test_breakdown_rejects_bad_bucket(self, store):
        with pytest.raises(ValueError):
            store.breakdown(bucket_seconds=0.0)

    def test_top_offenders_ranked_by_flaps(self, store):
        self.setup_stream(store)
        rows = store.top_offenders(limit=2)
        # both routers saw 2 flaps; chi-per1 ranks first on the
        # incident-count tie-break (2 distinct incidents vs 1)
        assert rows[0]["location"] == "router[chi-per1]"
        assert rows[0]["flaps"] == 2
        assert rows[0]["incidents"] == 2
        assert rows[0]["causes"] == ["CPU high (spike)", "Interface flap"]
        assert rows[1]["location"] == "router[nyc-per1]"
        assert rows[1]["incidents"] == 1

    def test_top_offenders_limit(self, store):
        self.setup_stream(store)
        assert len(store.top_offenders(limit=1)) == 1
        assert store.top_offenders(limit=0) == []


class TestSqliteBacked:
    def test_round_trips_through_sqlite(self, tmp_path):
        store = IncidentStore.sqlite(str(tmp_path))
        feed(store, [diagnosis(t=1000.0 + i * 60.0) for i in range(3)])
        assert len(store) == 1
        incident = store.incidents()[0]
        assert incident.flap_count == 3
        assert store.timeline(incident.incident_id)[0].revision == 1
        store.close()
        # a fresh store over the same file sees the same log
        reopened = IncidentStore.sqlite(str(tmp_path))
        assert reopened.revisions() == 3
        assert reopened.incidents()[0].flap_count == 3
        reopened.close()

    def test_concurrent_sinks_never_lose_revisions(self, tmp_path):
        """Many service workers recording at once (the serve() path)."""
        store = IncidentStore.sqlite(str(tmp_path))
        errors = []
        n_threads, n_each = 6, 40

        def sink(index):
            try:
                aggregator = IncidentAggregator(
                    gap_seconds=GAP, sink=store.record
                )
                for i in range(n_each):
                    aggregator.observe(
                        diagnosis(router=f"r{index}", t=1000.0 + i * 30.0)
                    )
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=sink, args=(index,))
            for index in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.revisions() == n_threads * n_each
        assert len(store) == n_threads  # one incident per distinct router
        store.close()


class HeldWrites(DelegatingBackend):
    """Holds each write open until ``finish`` is set, and notes every
    read that starts while one is in flight."""

    def __init__(self, inner):
        super().__init__(inner)
        self.hold = False
        self.writing = threading.Event()
        self.finish = threading.Event()
        self.overlaps = []

    def insert_many(self, records):
        if self.hold:
            self.writing.set()
            self.finish.wait(timeout=10.0)
        try:
            super().insert_many(records)
        finally:
            self.writing.clear()

    def _read(self, op, label, *args):
        if self.writing.is_set():
            self.overlaps.append(label)
        return op(*args)


@pytest.mark.parametrize(
    "read",
    [
        lambda store, incident_id: store.timeline(incident_id),
        lambda store, incident_id: store.incidents(0.0, 1e4),
    ],
    ids=["timeline", "windowed-incidents"],
)
def test_no_read_of_the_log_overlaps_a_write(read):
    """The default backend is single-threaded: a read racing a tail
    merge applies positions of the old run to the new one.  Every read
    of the log waits for the write in flight."""
    backend = HeldWrites(MemoryBackend(INDEXED_COLUMNS))
    store = IncidentStore(backend)
    aggregator = feed(store, [diagnosis(t=1000.0)])
    (incident,) = store.incidents()
    backend.hold = True
    writer = threading.Thread(target=aggregator.observe, args=(diagnosis(t=1060.0),))
    writer.start()
    assert backend.writing.wait(timeout=10.0)
    reader = threading.Thread(target=read, args=(store, incident.incident_id))
    reader.start()
    reader.join(timeout=0.5)  # blocked on the store lock, or done
    backend.finish.set()
    writer.join(timeout=10.0)
    reader.join(timeout=10.0)
    assert not writer.is_alive() and not reader.is_alive()
    assert backend.overlaps == []
    assert [i.revision for i in store.timeline(incident.incident_id)] == [1, 2]
