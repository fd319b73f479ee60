"""Link cost changes inferred from OSPFMon weight updates, once per row.

Three Table I events — "Link Cost Out/Down", "Link Cost In/Up" and
"Router Cost In/Out" — start from the same question about the same
``ospfmon`` rows: did this weight update take the link out of service or
bring it back?  :func:`classify_cost_change` answers it for one row;
:class:`CostChangeIndex` remembers the answers per row of the store's
sorted run, so covers that overlap — three events, a storm of sibling
symptoms, tick after tick — classify a row once between them instead
of once each.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, List, Optional, Tuple

from ...routing.ospf import COST_OUT_WEIGHT
from ..events import RetrievalContext

#: One inferred change: (timestamp, logical link, ``"out"`` or ``"in"``).
CostChange = Tuple[float, str, str]


def classify_cost_change(
    history, link: str, timestamp: float, weight: int
) -> Optional[str]:
    """out/in/None for one weight update against the pre-update weight."""
    previous = history.weight_at(link, timestamp - 1e-6)
    now_out = weight >= COST_OUT_WEIGHT
    was_out = previous is not None and previous >= COST_OUT_WEIGHT
    if now_out and not was_out:
        return "out"
    if was_out and not now_out:
        return "in"
    return None


def classify_rows(
    history, columns, lo: int = 0, hi: Optional[int] = None
) -> Tuple[List[int], List[CostChange]]:
    """Classify rows ``[lo, hi)`` of an ``ospfmon`` slice one by one,
    off its columns: the run positions of the rows that changed a
    link's state, and those changes, in row order."""
    positions: List[int] = []
    changes: List[CostChange] = []
    rows = zip(
        columns.timestamps[lo:hi],
        columns.column("link")[lo:hi],
        columns.column("weight")[lo:hi],
    )
    for position, (timestamp, link, weight) in enumerate(rows, columns.position + lo):
        change = classify_cost_change(history, link, timestamp, weight)
        if change is not None:
            positions.append(position)
            changes.append((timestamp, link, change))
    return positions, changes


class CostChangeIndex:
    """The cost changes of one contiguous stretch of the sorted run.

    Holds, for run positions ``[lo, hi)``, the positions of the rows
    that changed a link's state and the changes themselves — nothing per
    unchanged row.  A window overlapping or touching the stretch extends
    it at either end by the rows not seen yet and is answered by two
    bisects; a window apart from it starts a new stretch there (the
    stream moves forward and rarely looks back, and a window is at worst
    classified as if there were no index).

    What is kept is only valid for the run it was derived from
    (:attr:`ColumnarSlice.generation` — a tail merge renumbers the rows)
    and for the weight history it was classified against: its identity,
    its ``stale_generation`` and its change count.  The history is the
    one the *caller* has wired (``services["weight_history"]``), handed
    in on every call; when any of the four moves, the index starts over.

    Shared through the platform's ``services`` by every engine of the
    platform, isolated worker engines included, hence locked.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._restart(None, 0)

    def _restart(self, key: Any, position: int) -> None:
        self._key = key
        self._lo = self._hi = position
        self._positions: List[int] = []
        self._changes: List[CostChange] = []

    def window(self, history, columns) -> List[CostChange]:
        """The changes among the rows of a zero-copy ``ospfmon`` slice,
        equal to ``classify_rows(history, ...)[1]`` over them."""
        lo = columns.position
        hi = lo + len(columns)
        key = (
            columns.generation, history,
            history.stale_generation, history.change_count,
        )
        with self._lock:
            if key != self._key or lo > self._hi or hi < self._lo:
                self._restart(key, lo)
            if lo < self._lo:
                positions, changes = classify_rows(history, columns, 0, self._lo - lo)
                self._positions[:0] = positions
                self._changes[:0] = changes
                self._lo = lo
            if hi > self._hi:
                positions, changes = classify_rows(history, columns, self._hi - lo)
                self._positions += positions
                self._changes += changes
                self._hi = hi
            return self._changes[
                bisect_left(self._positions, lo):bisect_left(self._positions, hi)
            ]


def retrieve_cost_changes(context: RetrievalContext) -> List[CostChange]:
    """The cost changes inside a retrieval context's window.

    Always one ``query_columns(start, end)`` through the context's store
    — the read every observer sees.  Rows of the sorted run come from the
    platform's index when one is wired; other slices (SQLite, a window
    merged with pending out-of-order rows) are classified row by row.
    """
    history = context.service("weight_history")
    columns = context.store.table("ospfmon").query_columns(context.start, context.end)
    index = context.services.get("cost_changes")
    if index is not None and columns.zero_copy:
        return index.window(history, columns)
    return classify_rows(history, columns)[1]
