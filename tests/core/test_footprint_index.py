"""``FootprintIndex`` against a model that keeps the full insert history.

One index decides, for the engine's retrieval cache, the streaming
re-open set and the service's result cache, which held keys a landed
row could have changed.  Over random sequences of ``add`` / ``discard``
/ rows landing / ``catch_up`` / ``forget_before`` / ``landed_in``, with
the store's change log bounded to a few rows:

* ``catch_up`` names exactly the held keys that a row landed since the
  previous call falls inside one read window of — by a filter over the
  whole history — or every held key, exactly when the bounded log no
  longer reaches back to the previous call;
* ``forget_before`` drops and names exactly the held keys whose end is
  before the horizon;
* ``landed_in`` is the same filter for one footprint and revision;
* what the index holds, per key and per table, is what the model holds.

``_Retained``, the index's end-ordered storage, is held to the same
filter alone over long runs of sets and deletes on a few keys, so the
places they leave behind in its end order pile up past a rebuild.
"""

from hypothesis import given, settings, strategies as st

from repro.collector.store import DataStore, Record
from repro.core.footprint import FootprintIndex, _Retained

from ..oracles.test_change_log import BOUND, retained_from, small_log

TABLES = ["ta", "tb", "tc"]
POINTS = st.integers(0, 40).map(lambda k: 25.0 * k)
READS = st.lists(
    st.tuples(st.sampled_from(TABLES), POINTS, st.sampled_from([0.0, 25.0, 200.0])).map(
        lambda read: (read[0], read[1], read[1] + read[2])
    ),
    max_size=3,
).map(tuple)
KEYS = st.integers(0, 5)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), KEYS, READS, POINTS),
        st.tuples(st.just("discard"), KEYS),
        st.tuples(
            st.just("land"),
            st.sampled_from(TABLES),
            st.one_of(
                st.lists(POINTS, min_size=1, max_size=3),
                st.lists(POINTS, min_size=BOUND + 1, max_size=BOUND + 3),
            ),
        ),
        st.tuples(st.just("catch_up")),
        st.tuples(st.just("forget"), POINTS),
        st.tuples(st.just("landed_in"), READS, st.integers(0, 12)),
    ),
    max_size=40,
)


def hit(reads, rows):
    """The obvious spelling: some row lies inside some read window."""
    return any(
        table == row_table and lo <= timestamp <= hi
        for table, lo, hi in reads
        for row_table, timestamp in rows
    )


@settings(max_examples=300, deadline=None)
@given(ops=OPS)
def test_the_index_is_a_filter_over_the_full_history(ops):
    with small_log():
        store = DataStore()
        ends = {}  # key -> its end, as the owner knows it
        index = FootprintIndex(store, lambda key, _reads: ends[key])
        held = {}  # key -> reads
        history = []  # (revision, table, timestamp) of every row
        logged = []  # (first revision, size) of every batch
        looked = 0  # revision the model last caught up to

        def landed_after(revision):
            return [(table, t) for row, table, t in history if row > revision]

        def can_say(revision):
            return revision == len(history) or revision + 1 >= retained_from(logged)

        for op in ops:
            if op[0] == "add":
                _, key, reads, end = op
                ends[key] = end
                index.add(key, reads)
                held[key] = reads
            elif op[0] == "discard":
                index.discard(op[1])
                held.pop(op[1], None)
            elif op[0] == "land":
                _, table, timestamps = op
                logged.append((len(history) + 1, len(timestamps)))
                for timestamp in timestamps:
                    history.append((len(history) + 1, table, timestamp))
                store.table(table).insert_many([Record.make(t) for t in timestamps])
            elif op[0] == "catch_up":
                assert index.behind() is (looked != len(history))
                got = index.catch_up()
                assert len(got) == len(set(got))
                if can_say(looked):
                    rows = landed_after(looked)
                    want = {key for key, reads in held.items() if hit(reads, rows)}
                else:
                    want = set(held)
                assert set(got) == want
                looked = len(history)
                assert not index.behind()
            elif op[0] == "forget":
                horizon = op[1]
                got = index.forget_before(horizon)
                want = {key for key in held if ends[key] < horizon}
                assert len(got) == len(set(got)) and set(got) == want
                for key in want:
                    del held[key]
            else:
                _, reads, age = op
                since = max(0, len(history) - age)
                want = not can_say(since) or hit(reads, landed_after(since))
                assert index.landed_in(reads, since) is want
            assert dict(index.reads) == held
            for table in TABLES:
                readers = {key for key, reads in held.items() if any(
                    read[0] == table for read in reads
                )}
                assert set(index._by_table.get(table, ())) == readers


def test_a_row_at_the_edges_of_a_read_is_a_hit():
    # windows are closed: a row on ``lo`` or on the furthest ``hi`` a
    # table's reads reach is inside, and the reach check must let it by
    store = DataStore()
    index = FootprintIndex(store)
    index.add("low", (("ta", 100.0, 150.0),))
    index.add("high", (("ta", 200.0, 250.0),))
    store.table("ta").insert_many([Record.make(250.0)])
    assert index.catch_up() == ["high"]
    store.table("ta").insert_many([Record.make(100.0)])
    assert index.catch_up() == ["low"]
    store.table("ta").insert_many([Record.make(250.5), Record.make(175.0)])
    assert index.catch_up() == []


#: mostly sets; ends 50 and 75 outlive every horizon, so the places
#: their re-sets leave behind pile up
RETAINED_OPS = st.lists(
    st.tuples(
        st.sampled_from(["set"] * 8 + ["pop", "forget"]),
        KEYS,
        st.sampled_from([0.0, 50.0, 75.0, float("inf")]),
        st.sampled_from([-1.0, 10.0, 30.0]),
    ),
    min_size=300,
    max_size=500,
)


@settings(max_examples=100, deadline=None)
@given(ops=RETAINED_OPS)
def test_retained_forgets_exactly_what_ended_before_the_horizon(ops):
    # long runs of re-sets and deletes on six keys: what a delete or a
    # replacement leaves in the end order piles up past the rebuild
    # threshold, and forget_before must skip it, before and after
    retained = _Retained(lambda _key, end: end)
    model = {}
    for op, key, end, horizon in ops:
        if op == "set":
            retained[key] = model[key] = end
        elif op == "pop":
            assert retained.pop(key, None) == model.pop(key, None)
        else:
            want = {key: end for key, end in model.items() if end < horizon}
            got = retained.forget_before(horizon)
            assert got == want
            assert sorted(got.values()) == list(got.values())  # oldest first
            for key in want:
                del model[key]
        assert dict(retained) == model
