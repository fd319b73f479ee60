"""``FeedReplayer`` ≡ the replayer that kept the whole sorted stream.

The reference below sorts every ``(time, source, line)`` item by
``(time, source)`` once, walks a cursor through the sorted list and
hands each tick's lines to the collector grouped by source, in order of
first appearance.  The replayer under test keeps per-source columns and
drops what it delivered.  Over generated streams and cutoff schedules —
equal stamps across and within sources, cutoffs on a stamp and between
stamps, unsorted input, repeated and backward cutoffs — both make the
same ``collector.ingest`` calls (source, lines, ``now``) in the same
order, return the same counts and report the same ``pending``.

Mutations that fail here: ordering a tick's sources by name alone, or by
last due stamp; an unstable per-source sort (equal stamps out of stream
order); ``bisect_left`` for the cutoff (a line on the cutoff held back);
a drop that loses the undelivered tail of a column.
"""

from hypothesis import given, settings, strategies as st

from repro.core.streaming import FeedReplayer

SOURCES = ("ospfmon", "syslog", "snmp")


class Recorder:
    """A collector that records every ingest call and parses nothing."""

    parsers = dict.fromkeys(SOURCES)

    def __init__(self):
        self.calls = []

    def ingest(self, source, lines, now=None):
        self.calls.append((source, list(lines), now))


class ReferenceReplayer:
    """The replayer as it was: the whole stream, sorted, and a cursor."""

    def __init__(self, collector, stream):
        self.collector = collector
        self._stream = sorted(stream, key=lambda item: (item[0], item[1]))
        self._position = 0

    @property
    def pending(self):
        return len(self._stream) - self._position

    def deliver_until(self, cutoff):
        delivered = 0
        by_source = {}
        while self._position < len(self._stream):
            timestamp, source, line = self._stream[self._position]
            if timestamp > cutoff:
                break
            by_source.setdefault(source, []).append(line)
            self._position += 1
            delivered += 1
        for source, lines in by_source.items():
            self.collector.ingest(source, lines, now=cutoff)
        return delivered


#: few distinct stamps, so equal stamps across and within sources are common
STAMPS = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 7.0, 7.25, 10.0])
ITEMS = st.lists(
    st.tuples(STAMPS, st.sampled_from(SOURCES)), max_size=40
).map(
    # every line distinct, numbered in stream order
    lambda items: [(t, source, f"{source}#{k}") for k, (t, source) in enumerate(items)]
)
#: on a stamp, between stamps, before and after everything
CUTOFFS = st.lists(
    st.one_of(STAMPS, st.sampled_from([-1.0, 0.5, 1.25, 2.5, 5.0, 8.0, 11.0])),
    max_size=12,
)


def run(replayer_class, stream, cutoffs):
    collector = Recorder()
    replayer = replayer_class(collector, list(stream))
    trail = [replayer.pending]
    for cutoff in cutoffs:
        trail.append((replayer.deliver_until(cutoff), replayer.pending))
    return collector.calls, trail


@settings(max_examples=400, deadline=None)
@given(stream=ITEMS, cutoffs=CUTOFFS, ordered=st.booleans())
def test_the_same_ingest_calls_as_the_sorted_stream(stream, cutoffs, ordered):
    if ordered:  # in arrival order, as a feed emitter hands it over
        stream = sorted(stream, key=lambda item: (item[0], item[1]))
    assert run(FeedReplayer, stream, cutoffs) == run(
        ReferenceReplayer, stream, cutoffs
    )


@settings(max_examples=200, deadline=None)
@given(
    stream=ITEMS, steps=st.lists(st.sampled_from([0.25, 0.5, 1.0, 3.0]), max_size=40)
)
def test_ticks_forward_until_everything_is_delivered(stream, steps):
    # a monotone tick schedule, as the stream benchmark drives it: every
    # column is dropped in stretches, and the last tick empties all
    cutoffs, now = [], -1.0
    for step in steps:
        now += step
        cutoffs.append(now)
    cutoffs.append(11.0)
    calls, trail = run(FeedReplayer, stream, cutoffs)
    assert (calls, trail) == run(ReferenceReplayer, stream, cutoffs)
    assert trail[-1][1] == 0
