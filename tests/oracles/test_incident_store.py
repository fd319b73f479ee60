"""``IncidentStore`` (latest-revision index) ≡ the full-scan reference.

Schedules draw from a pool of real aggregator revisions, so revisions
arrive out of order and duplicated, through the store under test and
through a second handle on the same log, with reads and close-and-reopen
in between; every read is compared with ``ScanIncidentStore`` over the
same backend.
"""

import collections
import copy
import json
import sys
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.backends import MemoryBackend
from repro.incident import IncidentAggregator, IncidentStore
from repro.incident import store as store_module
from repro.incident.store import INDEXED_COLUMNS

from ..incident.conftest import diagnosis
from .incident_store import ScanIncidentStore

GAP = 600.0
BACKENDS = ("memory", "sqlite")


def revision_pool():
    """Every revision an aggregator emits over a small mixed stream —
    new incidents, flaps, a changed and an unchanged re-emission, a gap
    that closes one window and opens the next, an idle close — each an
    independent snapshot."""
    pool = []
    aggregator = IncidentAggregator(
        gap_seconds=GAP, sink=lambda incident: pool.append(copy.copy(incident))
    )
    for t in (1000.0, 1060.0, 1120.0, 1120.0 + 3 * GAP, 1180.0 + 3 * GAP):
        aggregator.observe(diagnosis(t=t))
    aggregator.observe(diagnosis(t=1000.0, router="chi-per1"))
    aggregator.observe(  # the same instance again, with a new caveat
        diagnosis(t=1000.0, router="chi-per1", confidence=0.5, caveats=("late",))
    )
    aggregator.observe(diagnosis(t=1000.0, router="chi-per1"))  # and unchanged
    for t in (1500.0, 1600.0):
        aggregator.observe(
            diagnosis(cause="CPU high (spike)", router="chi-per1", t=t)
        )
    aggregator.observe(diagnosis(cause=None, t=1700.0, gap_sources=("snmp",)))
    for t in (1800.0, 1900.0, 2000.0):
        aggregator.observe(diagnosis(symptom="link-loss", t=t, duration=0.0))
    aggregator.advance(2000.0 + GAP + 1.0)  # closes all but the late window
    aggregator.observe(diagnosis(t=1240.0 + 3 * GAP))
    return pool


POOL = revision_pool()
IDS = sorted({i.incident_id for i in POOL})
CAUSES = sorted({i.cause for i in POOL}) + ["no such cause"]
LOCATIONS = sorted({str(i.location) for i in POOL}) + ["router[nowhere]"]
SYMPTOMS = sorted({i.symptom_name for i in POOL}) + ["no-such-symptom"]
TIMES = sorted({i.last_seen for i in POOL} | {0.0, 1e9})
WIRE = {(i.incident_id, i.revision): json.dumps(i.to_json()) for i in POOL}

picks = st.integers(0, len(POOL) - 1)
filters = st.fixed_dictionaries(
    {},
    optional={
        "cause": st.sampled_from(CAUSES),
        "location": st.sampled_from(LOCATIONS),
        "symptom": st.sampled_from(SYMPTOMS),
        "open": st.booleans(),
    },
)
windows = st.fixed_dictionaries(
    {}, optional={"start": st.sampled_from(TIMES), "end": st.sampled_from(TIMES)}
)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("record"), picks),
        st.tuples(st.just("foreign"), picks),
        st.tuples(st.just("reopen"), st.none()),
        st.tuples(st.just("read"), st.tuples(filters, windows)),
    ),
    max_size=30,
)


def test_the_pool_is_worth_scheduling():
    assert len(IDS) >= 6 and len(POOL) >= 3 * len(IDS)
    assert {i.open for i in POOL} == {True, False}
    # one revision number, one document: what "highest revision wins" rests on
    assert len(WIRE) == len(POOL)


def handles(kind, directory):
    """A callable opening one more store handle on the same log."""
    if kind == "sqlite":
        return lambda: IncidentStore.sqlite(directory)
    backend = MemoryBackend(INDEXED_COLUMNS)
    return lambda: IncidentStore(backend)


def wire(incidents):
    return [json.dumps(i.to_json()) for i in incidents]


def same_read(store, oracle, **query):
    got, want = store.incidents(**query), oracle.incidents(**query)
    assert got == want
    assert wire(got) == wire(want)  # `example` is outside Incident equality


def same_everything(store, oracle):
    assert len(store) == len(oracle)
    same_read(store, oracle)
    for incident_id in IDS + ["inc-missing"]:
        try:
            want = oracle.get(incident_id)
        except KeyError:
            with pytest.raises(KeyError):
                store.get(incident_id)
        else:
            assert wire([store.get(incident_id)]) == wire([want])
    for cause in [None] + CAUSES:
        for location in [None] + LOCATIONS:
            query = {"cause": cause, "location": location}
            assert json.dumps(store.documents(**query)) == json.dumps(
                oracle.documents(**query)
            )
    # returned incidents belong to the caller: spoil them, read again
    known = [i.incident_id for i in oracle.incidents()]
    for incident in store.incidents() + [store.get(i) for i in known]:
        incident.flap_count = -1
        incident.open = not incident.open
        incident.caveats += ("spoiled",)
    same_read(store, oracle)
    same_read(store, oracle, open=True)


@pytest.mark.parametrize("kind", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(ops=operations, eager=st.booleans())
def test_index_answers_what_the_scan_answers(kind, ops, eager):
    """``eager`` reads after every step (a superseded decode shows at
    once); otherwise appends pile up between the schedule's own reads."""
    with tempfile.TemporaryDirectory() as directory:
        open_store = handles(kind, directory)
        store, foreign = open_store(), open_store()
        try:
            for op, arg in ops:
                if op == "record":
                    store.record(POOL[arg])
                elif op == "foreign":
                    foreign.record(POOL[arg])
                elif op == "reopen":
                    store.close()
                    store = open_store()
                oracle = ScanIncidentStore(store.backend)
                if eager:
                    same_read(store, oracle)
                if op == "read":
                    query, window = arg
                    same_read(store, oracle, **query, **window)
            same_everything(store, ScanIncidentStore(store.backend))
        finally:
            store.close()
            foreign.close()


@pytest.mark.parametrize("kind", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(ops=operations, window=windows)
def test_windowed_reports_are_as_of_reads(kind, ops, window):
    with tempfile.TemporaryDirectory() as directory:
        store = handles(kind, directory)()
        try:
            for op, arg in ops:
                if op in ("record", "foreign"):
                    store.record(POOL[arg])
            oracle = ScanIncidentStore(store.backend)
            reference = IncidentStore(store.backend)
            reference.incidents = oracle.incidents  # the reports over the scan
            for query in ({}, window):
                assert store.breakdown(300.0, **query) == reference.breakdown(
                    300.0, **query
                )
                assert store.top_offenders(**query) == reference.top_offenders(
                    **query
                )
        finally:
            store.close()


@settings(max_examples=60, deadline=None)
@given(schedule=st.lists(st.one_of(picks, filters), max_size=40))
def test_a_latest_revision_is_decoded_once_and_a_superseded_one_never(schedule):
    store = IncidentStore()
    decoded = collections.Counter()
    highest = {}

    def counting(payload, decode=store_module.incident_from_dict):
        key = payload["incident_id"], payload["revision"]
        assert key[1] == highest[key[0]], "decoded a superseded revision"
        decoded[key] += 1
        return decode(payload)

    with mock.patch.object(store_module, "incident_from_dict", counting):
        for step in schedule:
            if isinstance(step, int):
                incident = POOL[step]
                store.record(incident)
                highest[incident.incident_id] = max(
                    incident.revision, highest.get(incident.incident_id, 0)
                )
            else:
                store.incidents(**step)
                len(store)
                store.documents()
                for incident_id in highest:
                    store.get(incident_id)
    assert not decoded or max(decoded.values()) == 1


@pytest.mark.parametrize("kind", BACKENDS)
def test_two_writers_and_a_reader(kind):
    """No torn entry while two threads record and a third reads — the
    index, a windowed scan and the timeline; the final state is the
    oracle's."""
    errors = []
    done = threading.Event()
    evens, odds = range(0, len(POOL), 2), range(1, len(POOL), 2)
    halves = (list(evens) * 8, list(odds)[::-1] * 8)

    def guarded(body):
        def run():
            try:
                body()
            except BaseException as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        return threading.Thread(target=run)

    with tempfile.TemporaryDirectory() as directory:
        store = handles(kind, directory)()

        def reader():
            while not done.is_set():
                seen = store.incidents()
                assert len(seen) <= len(store) <= len(IDS)
                for incident in seen + [store.get(i.incident_id) for i in seen]:
                    key = incident.incident_id, incident.revision
                    assert json.dumps(incident.to_json()) == WIRE[key]
                for document in store.documents():
                    key = document["incident_id"], document["revision"]
                    assert json.dumps(document) == WIRE[key]
                for incident in store.incidents(TIMES[1], TIMES[-2]):
                    key = incident.incident_id, incident.revision
                    assert json.dumps(incident.to_json()) == WIRE[key]
                for incident in seen:
                    revisions = store.timeline(incident.incident_id)
                    assert [i.revision for i in revisions] == sorted(
                        i.revision for i in revisions
                    )
                    for revision in revisions:
                        key = revision.incident_id, revision.revision
                        assert json.dumps(revision.to_json()) == WIRE[key]

        writers = [
            guarded(lambda half=half: [store.record(POOL[k]) for k in half])
            for half in halves
        ]
        reading = guarded(reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reading.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60.0)
            done.set()
            reading.join(timeout=60.0)
        finally:
            done.set()
            sys.setswitchinterval(interval)
        try:
            assert not any(t.is_alive() for t in writers + [reading])
            assert errors == []
            assert store.revisions() == sum(len(half) for half in halves)
            same_everything(store, ScanIncidentStore(store.backend))
        finally:
            store.close()
