"""``store.Record`` (the dict is the row) ≡ the frozen-dataclass row."""

import os
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collector.backends import SqliteBackend
from repro.collector.store import Record

from .read_path import rows_of
from .record import Record as RefRecord
from .record import as_store_record

values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.tuples(st.integers(0, 9), st.text(max_size=3)),
)
field_dicts = st.dictionaries(st.text(min_size=1, max_size=8), values, max_size=6)
timestamps = st.floats(-1e10, 1e10)


def both(timestamp, fields):
    return Record(timestamp, dict(fields)), RefRecord.make(timestamp, **fields)


@given(timestamps, field_dicts)
def test_same_surface(timestamp, fields):
    row, ref = both(timestamp, fields)
    assert row.timestamp == ref.timestamp
    assert row.fields == ref.fields
    assert row.as_dict() == ref.as_dict()
    assert list(row.as_dict()) == list(ref.as_dict())
    assert repr(row) == repr(ref)
    assert hash(row) == hash(ref)
    for name in fields:
        assert row[name] == ref[name]
        assert row.get(name) == ref.get(name)
    assert row.get("\x00absent", 7) == 7
    with pytest.raises(KeyError):
        row["\x00absent"]
    # the dataclass's keyword constructor, over the field dict
    assert Record(timestamp=timestamp, fields=dict(ref.fields)) == row
    assert Record.make(timestamp, **fields) == row


@given(timestamps, field_dicts, timestamps, field_dicts)
def test_same_equality(timestamp, fields, other_timestamp, other_fields):
    row, ref = both(timestamp, fields)
    for t, f in ((timestamp, fields), (other_timestamp, other_fields),
                 (other_timestamp, fields), (timestamp, other_fields)):
        other_row, other_ref = both(t, f)
        assert (row == other_row) == (ref == other_ref)
        assert (row != other_row) == (ref != other_ref)
        if row == other_row:
            assert hash(row) == hash(other_row)
    assert row != ref and row != (timestamp, row.fields)


def test_immutable():
    row, ref = both(5.0, {"router": "r1"})
    for record in (row, ref):
        with pytest.raises(FrozenInstanceError):
            record.timestamp = 6.0
        with pytest.raises(FrozenInstanceError):
            record.fields = ()
        with pytest.raises(FrozenInstanceError):
            del record.timestamp
    with pytest.raises((FrozenInstanceError, AttributeError)):
        row.extra = 1
    assert not hasattr(row, "__dict__")


@given(timestamps, field_dicts, st.sampled_from([2, 4, pickle.HIGHEST_PROTOCOL]))
def test_pickles_are_byte_identical_both_ways(timestamp, fields, protocol):
    row, ref = both(timestamp, fields)
    written = pickle.dumps(row, protocol=protocol)
    with as_store_record():
        assert pickle.dumps(ref, protocol=protocol) == written
        read_there = pickle.loads(written)
    assert type(read_there) is RefRecord and read_there == ref
    read_here = pickle.loads(written)
    assert type(read_here) is Record and read_here == row
    assert read_here.fields == row.fields and hash(read_here) == hash(row)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(timestamps, field_dicts), min_size=1, max_size=8))
def test_sqlite_table_written_by_the_reference_class_opens(tmp_path_factory, rows):
    path = os.path.join(tmp_path_factory.mktemp("rows"), "t.sqlite")
    with as_store_record():
        old = SqliteBackend("t", ("router",), path=path)
        old.insert_many([RefRecord.make(t, **f) for t, f in rows])
        old.close()
    new = SqliteBackend("t", ("router",), path=path)
    try:
        expected = sorted(
            (Record(t, dict(f)) for t, f in rows), key=lambda r: r.timestamp
        )
        assert rows_of(new) == expected
        assert all(type(record) is Record for record in rows_of(new))
    finally:
        new.close()
