"""The read path's obviously-correct spellings.

What ``MemoryBackend``'s window query and the Knowledge Library's
``retrieve_flap`` did before they stopped working to find nothing, kept
as what they must stay equal to: a window query that looks at every row
and every filter, and a flap retrieval that reads its window once per
state.  ``rows_of`` spells a backend's row read over its one read.
"""

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.core.events import RetrievalContext, Row
from repro.core.knowledge.detectors import TimedPoint, pair_flaps
from repro.core.knowledge.events import DEFAULT_FLAP_WINDOW
from repro.core.locations import Location


def filter_every_row(
    records: Sequence[Any],
    start: Optional[float],
    end: Optional[float],
    equals: Dict[str, Any],
) -> List[Any]:
    """The rows of ``records`` (in arrival order) a window query returns.

    ``start <= timestamp <= end`` with ``None`` bounds open, every filter
    checked on every row — a row lacking a column reads ``None`` there —
    and the canonical ``(timestamp, arrival)`` order.
    """
    matched = [
        (record.timestamp, arrival, record)
        for arrival, record in enumerate(records)
        if (start is None or record.timestamp >= start)
        and (end is None or record.timestamp <= end)
        and all(record.get(column) == value for column, value in equals.items())
    ]
    matched.sort(key=lambda entry: (entry[0], entry[1]))
    return [record for _timestamp, _arrival, record in matched]


def rows_of(
    backend: Any,
    start: Optional[float] = None,
    end: Optional[float] = None,
    equals: Optional[Dict[str, Any]] = None,
) -> List[Any]:
    """A backend's rows in a window, in ``(timestamp, arrival)`` order —
    the records of its one read, ``query_columns``."""
    return backend.query_columns(start, end, equals or {}).records


def scan_cdn_rows(context: RetrievalContext, kind: str) -> List[Any]:
    """The ``cdn`` rows of one kind inside a context's window, found by
    looking at every row of the table — no index, no ``kind=`` filter."""
    return [
        record
        for record in context.store.table("cdn").scan()
        if context.start <= record.timestamp <= context.end
        and record.get("kind") == kind
    ]


def updown_points(
    context: RetrievalContext, code: str, state: str
) -> List[TimedPoint]:
    """One state's syslog points with an interface, row by row."""
    return [
        TimedPoint(record.timestamp, f"{record['router']}:{record['interface']}")
        for record in context.store.table("syslog").query(
            context.start, context.end, code=code, state=state
        )
        if record.get("interface") is not None
    ]


def two_read_flap_retrieval(code: str):
    """A flap retrieval that reads the widened window once per state."""

    def retrieve_flap(context: RetrievalContext) -> Iterable[Row]:
        window = context.param("flap_window", DEFAULT_FLAP_WINDOW)
        wide = RetrievalContext(
            store=context.store,
            start=context.start - window,
            end=context.end + window,
            params=context.params,
            services=context.services,
        )
        downs = updown_points(wide, code, "down")
        ups = updown_points(wide, code, "up")
        for down, up in pair_flaps(downs, ups, window):
            if up.timestamp < context.start or down.timestamp > context.end:
                continue
            yield down.timestamp, up.timestamp, Location.interface(down.key), ()

    return retrieve_flap
