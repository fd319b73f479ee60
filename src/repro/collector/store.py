"""Normalized record store.

The deployed Data Collector "pulls all the data together, normalizes
them so that they can be readily correlated, and stores them in database
tables in real time".  This module is that database's front door: one
:class:`Table` per data source, each a thin thread-safe façade over a
pluggable :class:`~repro.collector.backends.StorageBackend` (in-memory
columnar by default, SQLite for persistence — see
:mod:`repro.collector.backends`), plus the :class:`ReadObserver` seam
through which tracing, footprint capture and future metrics watch the
read path without forking proxy class hierarchies.

Thread-safety contract
----------------------

The store serves a live service: ingest threads append records while
worker threads run retrieval queries.  Every :class:`Table` guards its
backend with a reentrant lock (backends themselves are single-threaded
by contract); :class:`DataStore` guards table creation with its own.
The guarantees are:

* ``insert_many`` (and its one-row form ``insert``) is atomic — a
  concurrent read sees the table either before or after a whole batch,
  never part of one and never mid-merge;
* ``query_columns``, ``distinct`` and ``time_span`` return snapshots
  taken under the lock, and the row reads ``query`` / ``scan`` are views
  of a ``query_columns`` slice — reading a returned slice, list or
  iterator is safe even while writers keep inserting;
* ``DataStore.table`` may be called concurrently for the same name and
  returns the one shared :class:`Table`;
* monotonicity: :attr:`DataStore.revision` increases by one for every
  row inserted through the store's tables, a whole batch at a time, and
  each batch enters the change log (:meth:`DataStore.changes_since`) as
  ``(first_revision, table, timestamps)`` — row ``i`` of the batch has
  revision ``first_revision + i`` — exactly once, after the whole batch
  is visible to readers.  Ingest runs no code of whoever reads the log.

There is *no* cross-table transaction: a reader joining two tables can
observe one table ahead of the other.  Retrieval correctness does not
require it — late rows are handled by footprint invalidation off the
change log and the streaming reorder slack.
"""

from __future__ import annotations

import threading
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .backends import StorageBackend, resolve_backend
from .rows import ColumnarSlice, Record, RowBatch

#: Rows the change log reaches back (the newest batch is kept whole
#: whatever its size): 15 of the densest ticks of the benchmark's PIM
#: storm, 1 085 rows each, may pass between two looks at it.
CHANGE_LOG_ROWS = 16384


class TableReads:
    """The row reads of :class:`Table` and :class:`ObservedTable`:
    views of the :class:`ColumnarSlice` their one read,
    ``query_columns``, returns."""

    def query(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
        **equals: Any,
    ) -> List[Record]:
        """Records with ``start <= timestamp <= end`` matching all filters."""
        return self.query_columns(start, end, **equals).records

    def scan(self) -> Iterator[Record]:
        """Iterate a snapshot of every record in timestamp order."""
        return iter(self.query_columns().records)


class Table(TableReads):
    """Thread-safe façade over one storage backend.

    All mutating and reading methods are safe to call from multiple
    threads; the backend underneath is single-threaded by contract and
    only ever touched under this table's lock.  ``backend`` accepts a
    ready :class:`~repro.collector.backends.StorageBackend` instance, a
    factory ``(name, indexed_columns) -> backend``, a backend name, or
    ``None`` for memory.
    """

    def __init__(
        self,
        name: str,
        indexed_columns: Iterable[str] = (),
        store: Optional["DataStore"] = None,
        backend: Any = None,
    ) -> None:
        self.name = name
        if not isinstance(backend, StorageBackend):
            factory = resolve_backend(backend)
            backend = factory(name, tuple(indexed_columns))
        self._backend = backend
        self._lock = threading.RLock()
        # the owning store, weakly: a strong reference back would leave
        # every dropped store, rows and all, to the cycle collector
        self._store = None if store is None else weakref.ref(store)

    @property
    def backend_name(self) -> str:
        """Identity of the storage engine serving this table."""
        return self._backend.name

    @property
    def indexed_columns(self) -> Tuple[str, ...]:
        """Columns the backend serves equality filters on quickly."""
        return self._backend.indexed_columns

    def __len__(self) -> int:
        with self._lock:
            return len(self._backend)

    def insert_many(self, records: Union[RowBatch, Sequence[Record]]) -> None:
        """Insert a batch keeping timestamp order; the one write path.

        Takes the rows in either shape — the :class:`RowBatch` a parser
        emits or a sequence of records — and hands them to the backend
        as they came.  Readers see none of the batch or all of it, in
        arrival order among equal timestamps (append-fast for ordered
        feeds).
        """
        if not records:
            return
        with self._lock:
            self._backend.insert_many(records)
        # logged once the batch is visible, outside the table lock (the
        # store takes its own)
        store = self._store and self._store()
        if store is not None:
            if isinstance(records, RowBatch):
                timestamps = records.timestamps
            else:
                timestamps = [record.timestamp for record in records]
            store._log_batch(self.name, timestamps)

    def insert(self, record: Record) -> None:
        """Insert one record (a batch of one)."""
        self.insert_many((record,))

    def query_columns(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
        **equals: Any,
    ) -> ColumnarSlice:
        """Rows with ``start <= timestamp <= end`` matching all filters,
        as parallel columnar arrays — the one read.

        Zero-copy for an unfiltered in-order window of the in-memory
        run (see
        :meth:`repro.collector.backends.MemoryBackend.query_columns`),
        gathered columns everywhere else.  Either way
        ``slice.timestamps`` is sorted and index-aligned with
        ``slice.column(name)`` and ``slice.records``.
        """
        with self._lock:
            return self._backend.query_columns(start, end, equals)

    def distinct(self, column: str) -> List[Any]:
        """Distinct non-None values of a column."""
        with self._lock:
            return self._backend.distinct(column)

    @property
    def time_span(self) -> Optional[Tuple[float, float]]:
        with self._lock:
            return self._backend.time_span()

    def stats(self) -> Dict[str, Any]:
        """Backend identity and storage counters for this table."""
        with self._lock:
            return self._backend.stats()


# ----------------------------------------------------------------------
# the read-path observer seam


@dataclass(slots=True)
class StoreRead:
    """One read issued against a table, as observers see it.

    ``kind`` is ``"query"`` or ``"distinct"``; ``filters``
    holds the equality filters of a query as sorted ``(column, value)``
    pairs, derived when read; ``column`` is set for ``distinct`` reads.
    A description only: the read runs on the caller's own arguments.
    """

    table: str
    kind: str
    start: Optional[float] = None
    end: Optional[float] = None
    _equals: Dict[str, Any] = field(default_factory=dict, repr=False)
    column: Optional[str] = None

    @property
    def filters(self) -> Tuple[Tuple[str, Any], ...]:
        """The equality filters as sorted ``(column, value)`` pairs."""
        return tuple(sorted(self._equals.items()))

    @property
    def window(self) -> Tuple[float, float]:
        """The read's time coverage with open bounds widened to ±inf.

        Distinct reads cover the whole table, as unbounded queries do —
        the conservative footprint the service cache invalidates on.
        """
        if self.kind != "query":
            return float("-inf"), float("inf")
        lo = float("-inf") if self.start is None else self.start
        hi = float("inf") if self.end is None else self.end
        return lo, hi


class ReadObserver:
    """Hook on the store read path; compose freely on one seam.

    ``begin`` fires before the backend read (returning an opaque token),
    ``end`` after it with the row count — or ``None`` when the read
    raised.  Observers watching coverage (footprints) should record in
    ``begin`` so exceptions never lose a read; observers reporting
    results (tracing, metrics) act in ``end``.
    """

    def begin(self, read: StoreRead) -> Any:
        """Called before the read executes; the return value is the
        token handed back to :meth:`end`."""
        return None

    def end(self, read: StoreRead, token: Any, rows: Optional[int]) -> None:
        """Called after the read (``rows=None`` if it raised)."""


class TraceObserver(ReadObserver):
    """Emits one ``store-query`` span per read on a tracer.

    The span carries the table name, the requested window and the row
    count — for queries also the sorted filter columns; for distinct
    reads the column.
    """

    def __init__(self, tracer) -> None:
        self._tracer = tracer

    def begin(self, read: StoreRead) -> Any:
        return self._tracer.begin("store-query", label=read.table)

    def end(self, read: StoreRead, span: Any, rows: Optional[int]) -> None:
        if rows is not None:
            if read.kind == "query":
                span.annotate(rows=rows, window=[read.start, read.end])
                filters = read.filters
                if filters:
                    span.annotate(filters=[column for column, _ in filters])
            else:
                span.annotate(rows=rows, column=read.column)
        self._tracer.finish(span)


class FootprintObserver(ReadObserver):
    """Records each read's conservative time coverage.

    ``note`` receives ``(table, lo, hi)`` with open bounds widened to
    ±inf — the footprint entries the engine merges per diagnosis and
    the service result cache invalidates on.  Recording happens in
    ``begin`` so a retrieval that raises mid-read still leaves its
    coverage behind.
    """

    def __init__(self, note: Callable[[Tuple[str, float, float]], Any]) -> None:
        self._note = note

    def begin(self, read: StoreRead) -> Any:
        lo, hi = read.window
        self._note((read.table, lo, hi))
        return None


class ObservedTable(TableReads):
    """Read proxy over a :class:`Table` applying a list of observers.

    Observers ``begin`` in list order and ``end`` in reverse, around a
    single backend read.  Writes are not proxied — observation is a
    read-path concern; use the underlying table to ingest.
    """

    def __init__(self, table: Table, observers: Iterable[ReadObserver]) -> None:
        self._table = table
        self._observers = tuple(observers)

    def _run(self, read: StoreRead, equals, call: Callable[..., Any], *args: Any):
        """``call(*args, **equals)`` — a sized result — between the observers."""
        tokens = [observer.begin(read) for observer in self._observers]
        rows: Optional[int] = None
        try:
            result = call(*args, **equals)
            rows = len(result)
            return result
        finally:
            for observer in reversed(self._observers):
                observer.end(read, tokens.pop(), rows)

    def query_columns(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
        **equals: Any,
    ) -> ColumnarSlice:
        """Delegate to :meth:`Table.query_columns` through the observers.

        The row reads ``query`` and ``scan`` come through here too, so a
        row read shows observers the same ``"query"`` :class:`StoreRead`
        — footprint coverage and ``store-query`` span — as a columnar one.
        """
        read = StoreRead(self._table.name, "query", start, end, equals)
        return self._run(read, equals, self._table.query_columns, start, end)

    def distinct(self, column: str) -> List[Any]:
        """Delegate to :meth:`Table.distinct` through the observers."""
        read = StoreRead(self._table.name, "distinct", column=column)
        return self._run(read, {}, self._table.distinct, column)

    def __len__(self) -> int:
        return len(self._table)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._table, name)


class ObservedStore:
    """Store proxy whose tables route reads through observers.

    Handed to retrieval processes while a diagnosis is traced and/or
    its footprint recorded; passes everything except :meth:`table`
    straight through, so the proxy is transparent to retrieval code.
    """

    def __init__(self, store: "DataStore", observers: Iterable[ReadObserver]) -> None:
        self._store = store
        self._observers = tuple(observers)

    def table(self, name: str) -> ObservedTable:
        """The named table wrapped in an :class:`ObservedTable`."""
        return ObservedTable(self._store.table(name), self._observers)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._store, name)


#: Default index columns per well-known table; location-bearing columns.
DEFAULT_INDEXES: Dict[str, Tuple[str, ...]] = {
    "syslog": ("router", "interface", "code"),
    "snmp": ("router", "interface", "metric"),
    "ospfmon": ("link",),
    "bgpmon": ("prefix", "egress_router"),
    "tacacs": ("router",),
    "layer1": ("device", "event"),
    "perfmon": ("source", "destination", "metric"),
    "netflow": ("source", "ingress_router"),
    "workflow": ("router", "activity"),
    "cdn": ("kind",),
}


@dataclass
class DataStore:
    """All tables of the Data Collector, keyed by source name.

    Safe for concurrent ingest and query (see module docstring).  The
    :attr:`revision` counter increments for every row inserted through
    the store's tables, and :meth:`changes_since` says what landed
    after a revision — what every cache over the store reads, when next
    used, to drop what a late record may have changed.

    ``backend`` picks the storage engine for tables this store creates:
    ``"memory"`` (also what ``None`` means), ``"sqlite"``, or a factory
    from :mod:`repro.collector.backends`.  There is no process-wide
    default; the CLI's ``--backend`` reaches the scenario builders as
    their ``backend=`` argument.
    """

    tables: Dict[str, Table] = field(default_factory=dict)
    #: total rows inserted through this store's tables (monotonic)
    revision: int = 0
    #: backend spec for tables created by this store (resolved once)
    backend: Any = None
    #: the change log, oldest batch first: (first revision, table, timestamps)
    _log: Deque[Tuple[int, str, List[float]]] = field(default_factory=deque, repr=False)
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)

    def __post_init__(self) -> None:
        self._factory = resolve_backend(self.backend)

    def table(self, name: str) -> Table:
        """Get (creating on first use) the table for a data source."""
        with self._lock:
            if name not in self.tables:
                self.tables[name] = Table(
                    name, DEFAULT_INDEXES.get(name, ()), self, self._factory
                )
            return self.tables[name]

    def insert(self, table: str, timestamp: float, **fields: Any) -> None:
        """Insert one row into the named table."""
        self.table(table).insert(Record.make(timestamp, **fields))

    def _log_batch(self, table: str, timestamps: List[float]) -> None:
        with self._lock:
            log = self._log
            log.append((self.revision + 1, table, timestamps))
            self.revision += len(timestamps)
            # rows held: every revision from the oldest batch's first on
            while self.revision - log[0][0] >= CHANGE_LOG_ROWS and len(log) > 1:
                log.popleft()

    def changes_since(
        self, revision: int
    ) -> Tuple[int, Optional[Dict[str, List[float]]]]:
        """The head revision and the rows that landed after ``revision``.

        The rows come as ``{table: sorted timestamps}`` — all of them,
        or ``None`` when the log no longer reaches back to ``revision``:
        the caller cannot know what it missed and must treat everything
        it cached as changed.  One comparison when nothing landed.
        """
        if revision == self.revision:
            return revision, {}
        with self._lock:
            head, log = self.revision, self._log
            if revision > head or not log or log[0][0] > revision + 1:
                return head, None
            deltas: Dict[str, List[float]] = {}
            for first, table, timestamps in reversed(log):
                if first + len(timestamps) <= revision + 1:
                    break
                skip = max(0, revision + 1 - first)
                deltas.setdefault(table, []).extend(timestamps[skip:])
        for points in deltas.values():
            points.sort()
        return head, deltas

    def total_records(self) -> int:
        """Total record count across all tables."""
        with self._lock:
            tables = list(self.tables.values())
        return sum(len(t) for t in tables)

    @property
    def backend_name(self) -> str:
        """Identity of the storage engine this store creates tables on."""
        with self._lock:
            for table in self.tables.values():
                return table.backend_name
        return getattr(self._factory, "backend_name", "custom")

    def _sorted_tables(self) -> List[Tuple[str, Table]]:
        with self._lock:
            return sorted(self.tables.items())

    def watermarks(self) -> Dict[str, float]:
        """Newest record timestamp per non-empty table.

        The store-side view of feed progress: a table whose watermark
        trails the others' hints at a lagging or dead feed even before
        the health registry has flagged it.
        """
        marks: Dict[str, float] = {}
        for name, table in self._sorted_tables():
            span = table.time_span
            if span is not None:
                marks[name] = span[1]
        return marks

    def summary(self) -> Dict[str, int]:
        """Record counts per table — the Data Collector's dashboard view."""
        return {name: len(table) for name, table in self._sorted_tables()}

    def storage_summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-table backend stats (identity, tail-buffer/merge counters,
        out-of-order inserts) — what ``--feed-stats`` prints so operators
        can see which engine served a diagnosis."""
        return {name: table.stats() for name, table in self._sorted_tables()}
