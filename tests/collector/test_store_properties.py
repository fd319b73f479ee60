"""Property-based tests: the indexed store vs a brute-force reference."""

from hypothesis import given, settings, strategies as st

from repro.collector.store import Record, Table


records = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
        st.sampled_from(["r1", "r2", "r3"]),
        st.sampled_from(["cpu", "mem", "util"]),
        st.integers(min_value=0, max_value=100),
    ),
    max_size=60,
)

queries = st.tuples(
    st.floats(min_value=-1e5, max_value=1.1e6, allow_nan=False),
    st.floats(min_value=0, max_value=5e5, allow_nan=False),
    st.one_of(st.none(), st.sampled_from(["r1", "r2", "r3", "ghost"])),
    st.one_of(st.none(), st.sampled_from(["cpu", "mem", "util", "ghost"])),
)


def brute_force(rows, start, end, router, metric):
    matched = [
        Record.make(t, router=r, metric=m, value=v)
        for t, r, m, v in rows
        if start <= t <= end
        and (router is None or r == router)
        and (metric is None or m == metric)
    ]
    matched.sort(key=lambda record: record.timestamp)
    return matched


class TestStoreVsReference:
    @settings(max_examples=120, deadline=None)
    @given(records, queries)
    def test_query_matches_brute_force(self, rows, query):
        start, span, router, metric = query
        end = start + span
        table = Table("t", indexed_columns=("router", "metric"))
        for t, r, m, v in rows:
            table.insert(Record.make(t, router=r, metric=m, value=v))
        filters = {}
        if router is not None:
            filters["router"] = router
        if metric is not None:
            filters["metric"] = metric
        got = table.query(start, end, **filters)
        expected = brute_force(rows, start, end, router, metric)
        assert sorted(got, key=lambda r: (r.timestamp, r.fields)) == sorted(
            expected, key=lambda r: (r.timestamp, r.fields)
        )

    @settings(max_examples=60, deadline=None)
    @given(records)
    def test_scan_always_time_sorted(self, rows):
        table = Table("t", indexed_columns=("router",))
        for t, r, m, v in rows:
            table.insert(Record.make(t, router=r, metric=m, value=v))
        timestamps = [record.timestamp for record in table.scan()]
        assert timestamps == sorted(timestamps)

    @settings(max_examples=60, deadline=None)
    @given(records)
    def test_distinct_matches_reference(self, rows):
        table = Table("t", indexed_columns=("router",))
        for t, r, m, v in rows:
            table.insert(Record.make(t, router=r, metric=m, value=v))
        assert table.distinct("router") == sorted({r for _t, r, _m, _v in rows})
