"""Pluggable storage backends for the Data Collector's tables.

The paper's Data Collector "stores them in database tables in real
time" across ~600 feeds; industrial descendants (Groot, CloudRCA) treat
storage as swappable infrastructure behind the correlation engine.
This module is that seam: a :class:`StorageBackend` contract plus two
implementations —

* :class:`MemoryBackend` — rows at rest are columns: sorted timestamps
  plus one column per field name, packed into typed arrays where the
  values allow (:mod:`repro.collector.rows`), and late
  arrivals in a sorted columnar tail, merged in once it outgrows its
  bound — not the seed store's per-insert O(n·k) index rebuild.
* :class:`SqliteBackend` — the platform's first persistent store: one
  WAL-mode SQLite file per table, with ``(column, ts)`` SQL indexes for
  every declared indexed column and pickled rows for byte-exact
  round-trips.

Backends are selected per :class:`~repro.collector.store.DataStore`
(``DataStore(backend=...)``; ``None`` is memory), or per table by
passing a factory.  There is no process-wide default: whoever builds a
store names its engine — the CLI's ``--backend`` reaches the scenario
builders as their ``backend=`` argument.

Contract
--------

A backend has one write, ``insert_many``, and one read,
``query_columns`` (a :class:`~repro.collector.rows.ColumnarSlice`, one
shape on every backend); row reads (``Table.query`` / ``scan``) are
that slice's ``records``, defined once in :mod:`repro.collector.store`.

A backend reached *through* a :class:`~repro.collector.store.Table`
façade is serialized under the table's lock, so :class:`MemoryBackend`
does not need to be thread-safe (:class:`SqliteBackend`, shared by
direct consumers such as the incident store, locks its own
connection).  Canonical result order is
``(timestamp, arrival sequence)`` — both backends return slices with
byte-identical records for the same inserts and queries (pinned by the
property-based oracle tests in ``tests/collector/test_backends.py``).
Windows are inclusive on both ends; ``None`` bounds are open.
"""

from __future__ import annotations

import bisect
import os
import pickle
import shutil
import sqlite3
import tempfile
import threading
import weakref
from array import array
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..resilience import CircuitBreaker, TransientError
from .rows import MISSING, ColumnarSlice, Columns, ListView, RowBatch, merge

#: Builds a backend for one table: ``factory(table_name, indexed_columns)``.
BackendFactory = Callable[[str, Tuple[str, ...]], "StorageBackend"]

#: What ``DataStore(backend=...)`` accepts: a name, a factory, or None
#: (meaning memory).
BackendSpec = Any


class StorageBackend:
    """Interface every table storage engine implements.

    Documented as a plain base class (not an ABC) so third-party
    backends can duck-type; the methods below are the whole contract.
    All calls arrive serialized by the owning table's lock.
    """

    #: short identity string surfaced in summaries ("memory", "sqlite")
    name: str = "abstract"

    def insert_many(self, records: Any) -> None:
        """Add a batch of rows — a sequence of records or one
        :class:`~repro.collector.rows.RowBatch` — in arrival order
        (timestamps may arrive out of order).  The one write entry
        point: the result is the same as adding the rows one at a time
        in either shape."""
        raise NotImplementedError

    def query_columns(
        self,
        start: Optional[float],
        end: Optional[float],
        equals: Dict[str, Any],
    ) -> ColumnarSlice:
        """The rows with ``start <= ts <= end`` matching every filter,
        in ``(timestamp, arrival)`` order, as a :class:`ColumnarSlice`
        — the one read.  A ``None`` filter matches rows lacking the
        column."""
        raise NotImplementedError

    def distinct(self, column: str) -> List[Any]:
        """Distinct non-None values of a column, sorted by ``repr``:
        by default, of the column the one read hands out."""
        values = set(self.query_columns(None, None, {}).column(column))
        values.discard(None)
        return sorted(values, key=repr)

    def time_span(self) -> Optional[Tuple[float, float]]:
        """(oldest, newest) timestamp, or None when empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """Operator-facing counters (backend identity, tail/merge state)."""
        return {"backend": self.name, "records": len(self)}

    def close(self) -> None:
        """Release external resources (files, connections).  A backend
        that keeps its rows in a temporary directory it made removes it
        here, and is then done: a later use raises ``ValueError``."""

    @property
    def indexed_columns(self) -> Tuple[str, ...]:
        """Columns this backend may index to serve equality filters:
        the declared ones, whether or not a read has built an index yet."""
        return ()


#: the columns of a slice that holds no row
_NOTHING = Columns()


class MemoryBackend(StorageBackend):
    """Columns in timestamp order plus a sorted tail of late rows.

    No object is kept per stored row: the sorted run is one
    :class:`~repro.collector.rows.Columns`.  A declared indexed column
    is one the backend *may* index: its posting list — a hash from
    value to the ascending run positions holding it — is built in one
    pass over the run the first time a read filters on the column with
    a value a list can answer, and kept from then on.  A column no read
    filters on costs no byte per row.  In-order inserts extend the run
    and the lists that exist; out-of-order ones land in a second
    ``Columns``, the *tail*, at their sorted place (after equal stamps:
    arrival order).  A query bisects both, and a window that late rows
    fall into is one stable two-way merge of the two
    (:func:`~repro.collector.rows.merge`).  Once the tail outgrows
    ``max(256, sorted_len // 16)`` that merge over everything becomes
    the new run — O(n + t), amortized over the inserts that filled the
    tail — with the existing posting lists rebuilt and a new
    ``generation``.
    """

    name = "memory"

    def __init__(
        self,
        indexed_columns: Iterable[str] = (),
        tail_limit: Optional[int] = None,
    ) -> None:
        self._run = Columns()
        #: out-of-order arrivals, sorted by stamp, then arrival
        self._tail = Columns()
        self._declared = tuple(indexed_columns)
        #: declared columns whose posting list may still be built (not
        #: one holding a value no list can key)
        self._indexable = set(self._declared)
        #: the posting lists built so far, by column
        self._indexes: Dict[str, Dict[Any, Sequence[int]]] = {}
        #: names the sorted run; replaced whenever a merge renumbers it
        self._generation = object()
        self._tail_limit = tail_limit
        self.inserts = 0
        self.out_of_order = 0
        self.merges = 0
        self.max_tail = 0

    @property
    def indexed_columns(self) -> Tuple[str, ...]:
        return self._declared

    def _tail_threshold(self) -> int:
        if self._tail_limit is not None:
            return self._tail_limit
        return max(256, len(self._run.ts) // 16)

    def insert_many(self, records: Any) -> None:
        """One ``extend`` per column when the whole batch continues the
        sorted run in order; row by row (append or tail) otherwise."""
        batch = RowBatch.of(records)
        timestamps, columns, sparse = batch.timestamps, batch.columns, batch.sparse
        if not timestamps:
            return
        late = self._run.ts and timestamps[0] < self._run.ts[-1]
        if not late and timestamps == sorted(timestamps):
            self._append(timestamps, columns, zip(*batch.rows), sparse)
            return
        for timestamp, values in zip(timestamps, batch.rows):
            if self._run.ts and timestamp < self._run.ts[-1]:
                tail = self._tail
                at = bisect.bisect_right(tail.ts, timestamp)
                tail.extend((timestamp,), columns, zip(values), sparse, at)
                self.inserts += 1
                self.out_of_order += 1
                self.max_tail = max(self.max_tail, len(tail.ts))
                if len(tail.ts) > self._tail_threshold():
                    self._merge()
            else:
                self._append((timestamp,), columns, zip(values), sparse)

    def _append(self, timestamps, names, columns, sparse) -> None:
        """Extend the run with in-order rows given column by column."""
        base, columns = len(self._run.ts), list(columns)
        self._run.extend(timestamps, names, columns, sparse)
        self.inserts += len(timestamps)
        self._post(base, names, columns)

    def _post(self, base: int, names, columns) -> None:
        """Add the run rows at ``base``, given as in
        :meth:`Columns.extend`, to the posting lists that exist: each an
        ``array('q')`` of run positions, 8 bytes a row and no object.
        A list that meets a value it cannot key is dropped for good, and
        its column read by scanning."""
        for name, values in zip(names, columns):
            index = self._indexes.get(name)
            if index is None:
                continue
            try:
                for position, value in enumerate(values, base):
                    if value is not None and value is not MISSING:
                        try:
                            index[value].append(position)
                        except KeyError:
                            index[value] = array("q", (position,))
            except TypeError:  # an unhashable value
                del self._indexes[name]
                self._indexable.discard(name)

    def _build(self, column: str) -> Optional[Dict[Any, Sequence[int]]]:
        """The posting list of a declared column, made in one pass over
        the sorted run (None when a stored value cannot key one)."""
        self._indexes[column] = {}
        self._post(0, (column,), (self._run.fields.get(column, ()),))
        return self._indexes.get(column)

    def _merge(self) -> None:
        """Fold the tail into the sorted run; one pass, amortized."""
        run, tail = self._run, self._tail
        self._run = merge(run, range(len(run.ts)), tail, range(len(tail.ts)))
        self._tail = Columns()
        self._generation = object()
        built, self._indexes = tuple(self._indexes), {}
        for column in built:
            self._build(column)
        self.merges += 1

    def __len__(self) -> int:
        return len(self._run.ts) + len(self._tail.ts)

    def _select(
        self, start: Optional[float], end: Optional[float], equals: Dict[str, Any]
    ) -> Tuple[Sequence[int], Sequence[int]]:
        """Positions of the rows a window query returns, ascending: in
        the sorted run and in the tail (each a ``range`` when nothing
        filtered it)."""
        run, tail = self._run, self._tail
        lo = 0 if start is None else bisect.bisect_left(run.ts, start)
        hi = len(run.ts) if end is None else bisect.bisect_right(run.ts, end)
        # The smallest posting list is the answer for its own column —
        # every row on it holds the value, in ascending position, which
        # is (ts, arrival) order — so only the other filters remain to
        # check.  A row lacking a column is on none of its lists (what a
        # None filter asks for), no row equals a value unequal to
        # itself, and a value no list can key is checked row by row.
        posting = served = None
        for column, value in equals.items():
            if value is None or not value == value:
                continue
            index = self._indexes.get(column)
            if index is None:
                if column not in self._indexable:
                    continue
                try:
                    hash(value)
                except TypeError:  # an unhashable value builds no list
                    continue
                index = self._build(column)
                if index is None:
                    continue
            try:
                found = index.get(value, ())
            except TypeError:  # an unhashable value
                continue
            if posting is None or len(found) < len(posting):
                posting, served = found, column
        if posting is None:
            positions: Sequence[int] = range(lo, max(lo, hi))
        else:
            positions = posting[
                bisect.bisect_left(posting, lo):bisect.bisect_left(posting, hi)
            ]
        for column, value in equals.items():
            if column != served:
                positions = run.matching(positions, column, value)
        late: Sequence[int] = ()
        if tail.ts:
            lo = 0 if start is None else bisect.bisect_left(tail.ts, start)
            hi = len(tail.ts) if end is None else bisect.bisect_right(tail.ts, end)
            late = range(lo, max(lo, hi))
            for column, value in equals.items():
                late = tail.matching(late, column, value)
        return positions, late

    def query_columns(
        self,
        start: Optional[float],
        end: Optional[float],
        equals: Dict[str, Any],
    ) -> ColumnarSlice:
        """The window as columns, no row built: an unfiltered stretch of
        the run as :class:`~repro.collector.rows.ListView` windows into
        its lists (``zero_copy``), a filtered one gathered at the
        matching positions, and one that pending late rows fall into
        merged with them into new columns, as a tail merge would."""
        positions, late = self._select(start, end, equals)
        if late:
            rows = merge(self._run, positions, self._tail, late)
            return ColumnarSlice(rows.ts, rows, range(len(rows.ts)))
        if equals:
            if not positions:  # nothing to snapshot
                return ColumnarSlice([], _NOTHING, ())
            run = self._run.snapshot()
            return ColumnarSlice([run.ts[p] for p in positions], run, positions)
        run = self._run.snapshot()
        return ColumnarSlice(
            ListView(run.ts, positions.start, positions.stop),
            run,
            positions,
            self._generation,
        )

    def distinct(self, column: str) -> List[Any]:
        """Distinct non-None column values, from the posting list when
        one was built (a scan never builds one)."""
        index = self._indexes.get(column)
        values = set(self._run.fields.get(column, ()) if index is None else index)
        values.update(self._tail.fields.get(column, ()))
        values -= {None, MISSING}
        return sorted(values, key=repr)

    def time_span(self) -> Optional[Tuple[float, float]]:
        """(oldest, newest) timestamp across sorted run and tail."""
        ts = self._run.ts
        # the tail's rows are all older than the run's newest
        return (min([ts[0], *self._tail.ts[:1]]), ts[-1]) if ts else None

    def stats(self) -> Dict[str, Any]:
        """Tail-buffer and merge counters alongside the backend identity."""
        return {
            **super().stats(),
            "inserts": self.inserts,
            "out_of_order": self.out_of_order,
            "tail": len(self._tail.ts),
            "max_tail": self.max_tail,
            "merges": self.merges,
        }


def _remove_directory(directory: str, pid: int) -> None:
    # a forked child holds a copy of the backend: only its maker removes
    if os.getpid() == pid:
        shutil.rmtree(directory, ignore_errors=True)


class SqliteBackend(StorageBackend):
    """One WAL-mode SQLite file per table; rows pickled for exact fidelity.

    Indexed columns from the table's declaration become real ``TEXT``
    columns with ``(column, ts)`` SQL indexes; string equality filters
    are pushed down to SQL, and every filter is applied again in Python
    to the decoded rows, which a read hands out as columns — so results
    are byte-identical to :class:`MemoryBackend` regardless of field
    types.  Only string values are mirrored into the SQL columns (a
    non-string never equals a pushed-down string, so no row is lost).

    Connections are reopened transparently after a ``fork()`` (the
    service's batch fork backend inherits engines copy-on-write), keyed
    on the current PID.

    Given no ``path``, the backend makes a fresh ``grca-store-*``
    directory for its file and removes it again: on :meth:`close`, when
    the backend is collected, or at exit — whichever comes first, and
    only in the process that made it.

    All connection access is serialized under an internal lock: the
    single shared connection (``check_same_thread=False``) is *not* safe
    for concurrent writers — interleaved execute/commit pairs silently
    drop rows or raise ``cannot start a transaction within a
    transaction`` — and direct consumers such as the incident store
    write from many service threads without a Table façade in front.
    """

    name = "sqlite"

    def __init__(
        self,
        table_name: str,
        indexed_columns: Iterable[str] = (),
        path: Optional[str] = None,
        synchronous: str = "NORMAL",
    ) -> None:
        self.table_name = table_name
        self._columns = tuple(indexed_columns)
        #: removes the directory this backend made for itself, if it did
        self._made: Optional[weakref.finalize] = None
        if path is None:
            directory = tempfile.mkdtemp(prefix="grca-store-")
            self._made = weakref.finalize(
                self, _remove_directory, directory, os.getpid()
            )
            path = os.path.join(directory, f"{table_name}.sqlite")
        else:
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)
        self.path = path
        self._synchronous = synchronous
        self._pid: Optional[int] = None
        self._conn: Optional[sqlite3.Connection] = None
        self._last_ts: Optional[float] = None
        self._lock = threading.RLock()
        self.inserts = 0
        self.out_of_order = 0
        self._connect()

    @property
    def indexed_columns(self) -> Tuple[str, ...]:
        return self._columns

    def _column_sql(self, column: str) -> str:
        return '"col_' + column.replace('"', '""') + '"'

    def _connect(self) -> None:
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._pid = os.getpid()
        cur = self._conn
        cur.execute("PRAGMA journal_mode=WAL")
        cur.execute(f"PRAGMA synchronous={self._synchronous}")
        columns = "".join(
            f", {self._column_sql(c)} TEXT" for c in self._columns
        )
        cur.execute(
            "CREATE TABLE IF NOT EXISTS records ("
            "id INTEGER PRIMARY KEY AUTOINCREMENT, "
            f"ts REAL NOT NULL{columns}, payload BLOB NOT NULL)"
        )
        # a file created under another index declaration keeps its own
        # columns: only those hold every stored row's value, so only
        # those may be written or pushed down (SQLite reads a quoted
        # unknown column as a string literal — a filter matching nothing)
        present = {row[1] for row in cur.execute("PRAGMA table_info(records)")}
        self._columns = tuple(c for c in self._columns if "col_" + c in present)
        cur.execute("CREATE INDEX IF NOT EXISTS idx_ts ON records (ts)")
        for i, column in enumerate(self._columns):
            cur.execute(
                f"CREATE INDEX IF NOT EXISTS idx_col_{i} "
                f"ON records ({self._column_sql(column)}, ts)"
            )
        cur.commit()

    def _connection(self) -> sqlite3.Connection:
        if self._made is not None and not self._made.alive:
            # closed, and its directory gone with its rows
            raise ValueError(f"backend {self.table_name!r} closed")
        if self._conn is None or self._pid != os.getpid():
            # forked child: the parent's connection must not be reused
            self._conn = None
            self._connect()
        return self._conn

    def insert_many(self, records: Any) -> None:
        """Insert a batch in one transaction: per row, ts + mirrored
        string index columns + pickle; all of it commits or none does."""
        if isinstance(records, RowBatch):
            batch = Columns.of(records)
            records = batch.records(range(len(batch.ts)))
        rows = []
        for record in records:
            values: List[Any] = [record.timestamp]
            for column in self._columns:
                value = record.get(column)
                values.append(value if isinstance(value, str) else None)
            values.append(pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL))
            rows.append(values)
        placeholders = ", ".join("?" for _ in range(len(self._columns) + 2))
        columns = "".join(f", {self._column_sql(c)}" for c in self._columns)
        with self._lock:
            conn = self._connection()
            with conn:  # commit, or roll the whole batch back on error
                conn.executemany(
                    f"INSERT INTO records (ts{columns}, payload) "
                    f"VALUES ({placeholders})",
                    rows,
                )
            self.inserts += len(rows)
            for record in records:
                if self._last_ts is not None and record.timestamp < self._last_ts:
                    self.out_of_order += 1
                elif self._last_ts is None or record.timestamp > self._last_ts:
                    self._last_ts = record.timestamp

    def query_columns(
        self,
        start: Optional[float],
        end: Optional[float],
        equals: Dict[str, Any],
    ) -> ColumnarSlice:
        """SQL window + string-equality pushdown, re-filtered in Python."""
        clauses: List[str] = []
        params: List[Any] = []
        if start is not None:
            clauses.append("ts >= ?")
            params.append(start)
        if end is not None:
            clauses.append("ts <= ?")
            params.append(end)
        for column, value in equals.items():
            if column in self._columns and isinstance(value, str):
                clauses.append(f"{self._column_sql(column)} = ?")
                params.append(value)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            rows = self._connection().execute(
                f"SELECT payload FROM records{where} ORDER BY ts, id", params
            ).fetchall()
        kept = Columns.of([
            record
            for record in (pickle.loads(payload) for (payload,) in rows)
            if all(record.get(column) == value for column, value in equals.items())
        ])
        return ColumnarSlice(kept.ts, kept, range(len(kept.ts)))

    def time_span(self) -> Optional[Tuple[float, float]]:
        """(oldest, newest) timestamp via MIN/MAX, or None when empty."""
        with self._lock:
            row = self._connection().execute(
                "SELECT MIN(ts), MAX(ts) FROM records"
            ).fetchone()
        if row is None or row[0] is None:
            return None
        return float(row[0]), float(row[1])

    def __len__(self) -> int:
        with self._lock:
            row = self._connection().execute(
                "SELECT COUNT(*) FROM records"
            ).fetchone()
        return int(row[0])

    def stats(self) -> Dict[str, Any]:
        """Backend identity, counters and the database file path."""
        return {
            **super().stats(),
            "inserts": self.inserts,
            "out_of_order": self.out_of_order,
            "path": self.path,
        }

    def close(self) -> None:
        """Close the connection owned by this process (fork-safe); a
        later use reconnects to the same file.  A backend that made its
        own directory removes it instead, and is closed for good."""
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                self._conn.close()
            self._conn = None
            if self._made is not None:
                self._made()


class DelegatingBackend(StorageBackend):
    """Forwards the whole contract to ``inner``; reads pass one hook.

    The base of every backend that wraps another to change how its
    *read* path behaves: subclasses override :meth:`_read` (and name
    themselves with ``suffix``), which the three reads —
    ``query_columns``, ``distinct`` and ``time_span`` — go through;
    writes, ``len`` and ``close`` go straight through.
    """

    #: appended to the inner backend's name (``"memory+breaker"``)
    suffix = "delegate"

    def __init__(self, inner: StorageBackend) -> None:
        self.inner = inner

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"{self.inner.name}+{self.suffix}"

    @property
    def indexed_columns(self) -> Tuple[str, ...]:
        return self.inner.indexed_columns

    def _read(self, op: Callable[..., Any], label: str, *args: Any) -> Any:
        """Run one read of the inner backend, ``op(*args)``."""
        return op(*args)

    def insert_many(self, records: Any) -> None:
        """Pass the write straight through."""
        self.inner.insert_many(records)

    def query_columns(
        self,
        start: Optional[float],
        end: Optional[float],
        equals: Dict[str, Any],
    ) -> ColumnarSlice:
        """Window query against the inner backend, through the read hook."""
        return self._read(
            self.inner.query_columns, "query_columns", start, end, equals
        )

    def distinct(self, column: str) -> List[Any]:
        """Distinct-values read, through the read hook."""
        return self._read(self.inner.distinct, "distinct", column)

    def time_span(self) -> Optional[Tuple[float, float]]:
        """(oldest, newest) timestamp read, through the read hook."""
        return self._read(self.inner.time_span, "time_span")

    def __len__(self) -> int:
        return len(self.inner)

    def stats(self) -> Dict[str, Any]:
        """The inner backend's stats under this backend's name."""
        return {**self.inner.stats(), "backend": self.name}

    def close(self) -> None:
        """Close the inner backend."""
        self.inner.close()


class StorageUnavailable(TransientError, ConnectionError):
    """A storage read failed or was refused behind an open breaker.

    Transient for the retry classifier
    (:func:`repro.resilience.is_transient`): a read that hit a broken
    disk or an open circuit is worth retrying later, not a rule bug.
    Still a :class:`ConnectionError` for callers that catch I/O failures.
    """


class BreakerBackend(DelegatingBackend):
    """Circuit breaker around another backend's *read* path.

    After the breaker's ``failure_threshold`` consecutive read failures
    the circuit opens and reads **fail fast** with
    :class:`StorageUnavailable` — a wedged database stalls diagnoses for
    ``reset_timeout`` at most once, not once per retrieval — until a
    half-open probe succeeds.  Failing reads are re-raised wrapped in
    :class:`StorageUnavailable` (original attached as ``__cause__``) so
    the job-level retry policy classifies them uniformly.

    Writes pass through unguarded: ingest and diagnosis have different
    failure domains, and a read-side brownout must not drop feed data.
    Like every backend, instances are serialized by the owning table's
    lock; the breaker itself is thread-safe anyway, so sharing one
    breaker across tables also works.
    """

    suffix = "breaker"

    def __init__(
        self, inner: StorageBackend, breaker: Optional[CircuitBreaker] = None
    ) -> None:
        super().__init__(inner)
        self.breaker = breaker or CircuitBreaker()

    def _read(self, op: Callable[..., Any], label: str, *args: Any) -> Any:
        if not self.breaker.allow():
            raise StorageUnavailable(
                f"{self.name}: circuit open, {label} refused (fail-fast)"
            )
        try:
            result = op(*args)
        except Exception as exc:
            self.breaker.record_failure()
            raise StorageUnavailable(
                f"{self.name}: {label} failed ({type(exc).__name__}: {exc})"
            ) from exc
        self.breaker.record_success()
        return result

    def stats(self) -> Dict[str, Any]:
        """Inner backend stats plus the breaker's state and open count."""
        stats = super().stats()
        stats["breaker"] = self.breaker.state()
        stats["breaker_opened"] = self.breaker.times_opened
        return stats


def breaker_backend(
    inner: Optional[BackendSpec] = None,
    breaker: Callable[[], CircuitBreaker] = CircuitBreaker,
) -> BackendFactory:
    """Factory wrapping another backend spec's tables in read breakers.

    ``breaker`` builds one breaker per table (one wedged table must not
    open the circuit for healthy ones).
    """
    inner_factory = resolve_backend(inner)

    def make(table_name: str, indexed_columns: Tuple[str, ...]) -> BreakerBackend:
        return BreakerBackend(inner_factory(table_name, indexed_columns), breaker())

    make.backend_name = (  # type: ignore[attr-defined]
        f"{backend_name(inner_factory)}+breaker"
    )
    return make


# ----------------------------------------------------------------------
# factories


def memory_backend(tail_limit: Optional[int] = None) -> BackendFactory:
    """Factory building a :class:`MemoryBackend` per table."""

    def make(table_name: str, indexed_columns: Tuple[str, ...]) -> MemoryBackend:
        return MemoryBackend(indexed_columns, tail_limit=tail_limit)

    make.backend_name = "memory"  # type: ignore[attr-defined]
    return make


def sqlite_backend(
    directory: Optional[str] = None, synchronous: str = "NORMAL"
) -> BackendFactory:
    """Factory building one :class:`SqliteBackend` file per table.

    ``directory`` is where the per-table database files live (created if
    missing); omitted, each table's file goes into a fresh temporary
    directory of its own, removed with the table's backend — a cache
    store with SQLite semantics.  Point it somewhere durable to make the
    store persistent across runs.
    """
    if directory is not None:
        os.makedirs(directory, exist_ok=True)

    def make(table_name: str, indexed_columns: Tuple[str, ...]) -> SqliteBackend:
        path = None
        if directory is not None:
            path = os.path.join(directory, f"{table_name}.sqlite")
        return SqliteBackend(
            table_name, indexed_columns, path=path, synchronous=synchronous
        )

    make.backend_name = "sqlite"  # type: ignore[attr-defined]
    return make


def resolve_backend(spec: Optional[BackendSpec]) -> BackendFactory:
    """Normalize a backend spec (name / factory / None) to a factory."""
    if callable(spec):
        return spec
    if spec is None or spec == "memory":
        return memory_backend()
    if spec == "sqlite":
        return sqlite_backend()
    raise ValueError(
        f"unknown storage backend {spec!r}; use 'memory', 'sqlite' or a factory"
    )


def backend_name(spec: Optional[BackendSpec]) -> str:
    """Human-readable identity of a backend spec or factory."""
    factory = resolve_backend(spec)
    return getattr(factory, "backend_name", getattr(factory, "name", "custom"))
