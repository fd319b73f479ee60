"""The shapes a row takes: in transit, at rest, and while someone reads it.

A stored row is not an object.  Parsers emit value tuples against their
declared columns (:class:`RowBatch`), the in-memory backend keeps one
column per field name (:class:`Columns`; a row lacking a field holds
:data:`MISSING` there) — packed into a typed array when its values
allow (:func:`pack`) — and a :class:`Record` — the row as a reader
sees it — is built from the columns when a read asks for one and lives
as long as that reader keeps it.  Bulk readers need no rows at all:
:class:`ColumnarSlice` hands out the timestamps and any field of a
retrieval window column by column.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import FrozenInstanceError
from math import isnan
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


class _Missing:
    __slots__ = ()

    def __repr__(self) -> str:
        return "MISSING"


#: What a column holds for a row that lacks the field.  Private to the
#: storage layer: readers are handed ``None`` (``get`` / ``column``) or
#: a row without the field (``Record``), never this.
MISSING = _Missing()


class Record:
    """One normalized row: an epoch-UTC timestamp plus named fields.

    A view for readers, built on demand — the store keeps columns, not
    records, so two reads of one stored row give equal records, not the
    same object.  ``fields``, the sorted ``(name, value)`` tuple that
    hashing, ``repr`` and the pickled payload are defined over, is
    derived when one of those asks.  Immutable: assignment raises
    :class:`dataclasses.FrozenInstanceError`, as a frozen dataclass's.
    """

    __slots__ = ("timestamp", "_by_name")
    # where the pickled payloads (every SQLite file written so far) say
    # the class lives; ``repro.collector.store`` re-exports it
    __module__ = "repro.collector.store"

    def __init__(self, timestamp: float, fields: Dict[str, Any]) -> None:
        """The record over a field dict the caller gives up.

        The dict becomes the row as is — no copy — so it must not be
        touched afterwards.
        """
        object.__setattr__(self, "timestamp", timestamp)
        object.__setattr__(self, "_by_name", fields)

    @classmethod
    def make(cls, timestamp: float, **fields: Any) -> "Record":
        return cls(timestamp, fields)

    @property
    def fields(self) -> Tuple[Tuple[str, Any], ...]:
        """The fields as ``(name, value)`` pairs sorted by name."""
        return tuple(sorted(self._by_name.items()))

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.timestamp, self._by_name) == (other.timestamp, other._by_name)

    def __hash__(self) -> int:
        return hash((self.timestamp, self.fields))

    def __repr__(self) -> str:
        return f"Record(timestamp={self.timestamp!r}, fields={self.fields!r})"

    def __getitem__(self, key: str) -> Any:
        return self._by_name[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Field value by name, with a default when absent."""
        return self._by_name.get(key, default)

    def as_dict(self) -> Dict[str, Any]:
        """The record's fields as a plain dictionary."""
        return dict(self.fields)

    def __getstate__(self) -> Tuple[float, Tuple[Tuple[str, Any], ...]]:
        # the pickle (the SQLite payload format) is the frozen
        # dataclass's: stores written before rows were columns open
        return (self.timestamp, self.fields)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "timestamp", state[0])
        object.__setattr__(self, "_by_name", dict(state[1]))


def fields_of(columns: Sequence[str], values: Sequence[Any]) -> Dict[str, Any]:
    """The field dict of one value tuple: its columns minus the missing."""
    return {
        name: value for name, value in zip(columns, values) if value is not MISSING
    }


class RowBatch:
    """Rows in transit: what a parser emits and a write takes.

    ``rows[i]`` holds row ``i``'s values against ``columns``,
    ``timestamps[i]`` its epoch; a row lacking a field carries
    :data:`MISSING` there, which only the columns named in ``sparse``
    may.  The lists are handed over, not copied — whoever builds a
    batch starts new ones for the next.
    """

    __slots__ = ("columns", "timestamps", "rows", "sparse")

    def __init__(
        self,
        columns: Tuple[str, ...],
        timestamps: List[float],
        rows: List[Tuple[Any, ...]],
        sparse: Iterable[str] = (),
    ) -> None:
        self.columns = columns
        self.timestamps = timestamps
        self.rows = rows
        self.sparse = sparse

    def __len__(self) -> int:
        return len(self.timestamps)

    @classmethod
    def of(cls, records: Any) -> "RowBatch":
        """A sequence of records scattered into batch shape (a batch
        passes through): the columns are every field name any of them
        carries, in first-seen order."""
        if isinstance(records, cls):
            return records
        names: Dict[str, Any] = {}
        for record in records:
            names.update(record._by_name)
        columns = tuple(names)
        width = len(columns)
        rows, sparse = [], set()
        for record in records:
            by_name = record._by_name
            rows.append(tuple([by_name.get(name, MISSING) for name in columns]))
            if len(by_name) < width:
                sparse.update(names.keys() - by_name.keys())
        return cls(columns, [record.timestamp for record in records], rows, sparse)


def _typecode(values: Sequence[Any]) -> Optional[str]:
    """The array typecode that may hold ``values`` exactly, else
    ``None``: ``'d'`` when every one is a ``float`` that is not NaN (a
    NaN is boxed anew on each read, and a row holding it would no longer
    equal itself), ``'q'`` when every one is an ``int`` (not a ``bool``;
    the array itself refuses one past 64 bits).  Exact types only —
    ``1`` and ``1.0`` are equal but do not print the same, so neither
    array takes the other's values."""
    kinds = set(map(type, values))
    if kinds == {float}:
        # NaN if any value is — or if both infinities are: a list then
        # too, which is never wrong
        total = sum(values)
        return "d" if total == total else None
    return "q" if kinds == {int} else None


def pack(values: Sequence[Any]) -> Sequence[Any]:
    """``values`` as a typed array when :func:`_typecode` finds one that
    holds them exactly — 8 bytes a value, no object — else as a list."""
    code = _typecode(values)
    if code is not None:
        try:
            return array(code, values)
        except OverflowError:  # an int past 64 bits
            pass
    return list(values)


def _insert(column: Sequence[Any], at: int, values: Sequence[Any]) -> Sequence[Any]:
    """``column`` with ``values`` inserted before row ``at``: the column
    itself, grown in place, unless it is packed and cannot take them —
    then a new list (a column once unpacked stays a list)."""
    if not values:
        return column
    if type(column) is array:
        if not column:
            return pack(values)
        if len(values) == 1:  # one row: a type test, no temporary array
            value = values[0]
            if type(value) is (float if column.typecode == "d" else int) and (
                value == value
            ):
                try:
                    column.insert(at, value)
                    return column
                except OverflowError:  # an int past 64 bits
                    pass
        else:
            packed = pack(values)
            if type(packed) is array and packed.typecode == column.typecode:
                column[at:at] = packed
                return column
        column = column.tolist()
    column[at:at] = values
    return column


class ListView:
    """A zero-copy ``[lo, hi)`` window over a column — list or typed
    array; len / index / slice / iterate — keeping a reference to it: a
    run's columns only grow past a served window, so the view stays the
    window it was."""

    __slots__ = ("_data", "_lo", "_hi")

    def __init__(self, data: Sequence[Any], lo: int, hi: int) -> None:
        self._data = data
        self._lo = lo
        self._hi = max(lo, hi)

    def __len__(self) -> int:
        return self._hi - self._lo

    def __iter__(self):
        return iter(self._data[self._lo:self._hi])

    def __getitem__(self, key):
        length = self._hi - self._lo
        if isinstance(key, slice):
            start, stop, step = key.indices(length)
            if step == 1:
                return ListView(self._data, self._lo + start, self._lo + stop)
            return list(self._data[self._lo:self._hi][key])
        if key < 0:
            key += length
        if not 0 <= key < length:
            raise IndexError(key)
        return self._data[self._lo + key]

    def __repr__(self) -> str:
        return f"ListView({list(self)!r})"


class Columns:
    """Rows at rest: timestamps plus one value column per field name.

    Every column is index-aligned with ``ts``.  A column is packed —
    an ``array('d')`` of floats or an ``array('q')`` of ints, 8 bytes a
    row and no object (:func:`pack`) — while every value it holds fits
    one exactly, and a ``list`` otherwise: strings, ``None``,
    :data:`MISSING`, NaN, bools, big ints, or ints among floats.  The
    first batch that does not fit a packed column turns it into a list
    for good; either way a read hands back the value stored, type for
    type.

    A field first seen mid-run is back-filled with :data:`MISSING` for
    the rows before it, a batch lacking a known field pads it;
    ``sparse`` names the columns that ever held a ``MISSING``, every
    other one can be handed out as is.  A sorted run's columns grow only
    at the end and are never edited in place (a merge builds new ones,
    unpacking replaces one), which is what keeps a :meth:`snapshot`
    consistent while writers go on; only the late tail, which no slice
    points into, takes rows at their sorted place.
    """

    __slots__ = ("ts", "fields", "sparse")

    def __init__(self) -> None:
        self.ts: Sequence[float] = array("d")
        self.fields: Dict[str, Sequence[Any]] = {}
        self.sparse: set = set()

    @classmethod
    def of(cls, records: Any) -> "Columns":
        """Records (or a batch) scattered into columns, in their order."""
        batch = RowBatch.of(records)
        columns = cls()
        columns.extend(batch.timestamps, batch.columns, zip(*batch.rows), batch.sparse)
        return columns

    def extend(
        self,
        timestamps: Sequence[float],
        names: Sequence[str],
        columns: Iterable[Sequence[Any]],
        sparse: Iterable[str] = (),
        at: Optional[int] = None,
    ) -> None:
        """Add rows given column by column — ``columns`` holds, for
        each of ``names``, that field's value in every new row — at the
        end, or before row ``at``."""
        size = len(self.ts)
        if at is None:
            at = size
        self.ts = _insert(self.ts, at, timestamps)
        mine = self.fields
        for name, values in zip(names, columns):
            column = mine.get(name)
            if column is None:  # an empty array packs what comes, if it can
                column = [MISSING] * size if size else array("d")
                if size:
                    self.sparse.add(name)
            mine[name] = _insert(column, at, values)
        self.sparse.update(sparse)
        if len(mine) > len(names):
            grown = len(self.ts)
            for name, column in mine.items():
                if len(column) < grown:
                    mine[name] = _insert(column, at, [MISSING] * (grown - len(column)))
                    self.sparse.add(name)

    def snapshot(self) -> "Columns":
        """The columns as of now, for a reader outside the table lock:
        the same columns under its own field dict (a writer may add a
        field, or unpack one, while the reader walks it)."""
        shot = Columns()
        shot.ts, shot.fields, shot.sparse = self.ts, dict(self.fields), self.sparse
        return shot

    def matching(self, positions: Sequence[int], name: str, value: Any) -> Sequence[int]:
        """The ``positions`` whose field ``name`` equals ``value`` — a
        row lacking the field reads ``None`` there."""
        column = self.fields.get(name)
        if column is None:
            return positions if value is None else []
        if value is None:
            return [
                p for p in positions if column[p] is None or column[p] is MISSING
            ]
        return [p for p in positions if column[p] == value]

    def records(self, positions: Sequence[int]) -> List[Record]:
        """One :class:`Record` per position, field values handed out
        as stored."""
        if not positions:
            return []
        ts, items = self.ts, tuple(self.fields.items())
        return [
            Record(
                ts[p],
                {
                    name: value
                    for name, column in items
                    if (value := column[p]) is not MISSING
                },
            )
            for p in positions
        ]

    def values(self, name: str, positions: Sequence[int]) -> Sequence[Any]:
        """Field ``name`` at ``positions``, ``None`` where a row lacks
        it: a window into the stored column when the positions are
        contiguous and the column never held a missing value."""
        column = self.fields.get(name)
        if column is None:
            return [None] * len(positions)
        if name in self.sparse:
            return [
                None if (value := column[p]) is MISSING else value for p in positions
            ]
        if type(positions) is range:
            return ListView(column, positions.start, positions.stop)
        return [column[p] for p in positions]


def _gather(column: Optional[Sequence[Any]], positions: Sequence[int]) -> Sequence[Any]:
    if column is None:
        return [MISSING] * len(positions)
    if type(positions) is range:
        return column[positions.start:positions.stop]
    return [column[p] for p in positions]


def _woven(left: Sequence[Any], right: Sequence[Any]) -> Sequence[Any]:
    """An empty column to weave ``left`` and ``right`` into: an array
    when every non-empty one of them is packed with one typecode —
    their values fit it, and no value is boxed on the way — else a
    list."""
    codes = {getattr(side, "typecode", None) for side in (left, right) if side}
    if len(codes) == 1 and None not in codes:
        return array(codes.pop())
    return []


def merge(
    first: Columns, at_first: Sequence[int], second: Columns, at_second: Sequence[int]
) -> Columns:
    """New columns holding ``first``'s rows at ``at_first`` and
    ``second``'s at ``at_second`` (each ascending by timestamp) in one
    stable two-way merge: by timestamp, ``first``'s rows first among
    equal stamps.  Each of ``second``'s rows is placed by a bisect, and
    each column copied in stretches between the places: no step per
    row of ``first``.  A column packed on both sides with one typecode
    comes out packed; any other comes out a list.
    """
    head, late = _gather(first.ts, at_first), _gather(second.ts, at_second)
    cuts: List[int] = []
    for stamp in late:
        cuts.append(bisect_right(head, stamp, cuts[-1] if cuts else 0))

    def weave(left: Sequence[Any], right: Sequence[Any]) -> Sequence[Any]:
        # an empty stretch is skipped: an empty side may be an array of
        # another typecode, which an array refuses even with no values
        out, lo = _woven(left, right), 0
        for cut, value in zip(cuts, right):
            if cut > lo:
                out.extend(left[lo:cut])
            out.append(value)
            lo = cut
        if lo < len(left):
            out.extend(left[lo:])
        return out

    merged = Columns()
    merged.ts = weave(head, late)
    merged.sparse = first.sparse | second.sparse
    for name in {**first.fields, **second.fields}:
        mine, theirs = first.fields.get(name), second.fields.get(name)
        if (mine is None and at_first) or (theirs is None and at_second):
            merged.sparse.add(name)
        merged.fields[name] = weave(_gather(mine, at_first), _gather(theirs, at_second))
    return merged


class ColumnarSlice:
    """One retrieval window, column by column.

    The rows at ``positions`` of ``columns`` in the backend's canonical
    ``(timestamp, arrival)`` order: ``timestamps`` is sorted, and
    :meth:`column` and ``records`` (built when read; a row read is
    this) are aligned with it index for index.  One shape on every
    backend and for every window: a snapshot of the in-memory run, the
    columns a pending window was merged into, or those SQLite's rows
    were decoded into.

    A slice with a ``generation`` is *zero-copy*: one contiguous stretch
    of the sorted run, row ``i`` being row ``position + i`` of the run
    that ``generation`` names.  A run only grows at its end and a tail
    merge starts a new run under a new generation, so ``(generation,
    position + i)`` names one row for good — what a consumer keeping
    per-row derived state keys it on.  Compare generations with ``is``;
    other slices carry ``None``.
    """

    __slots__ = (
        "timestamps", "zero_copy", "position", "generation", "_columns", "_positions",
    )

    def __init__(
        self,
        timestamps: Sequence[float],
        columns: Columns,
        positions: Sequence[int],
        generation: Optional[object] = None,
    ) -> None:
        self.timestamps = timestamps
        self._columns = columns
        self._positions = positions
        self.zero_copy = generation is not None
        self.position = positions.start if self.zero_copy else 0
        self.generation = generation

    def __len__(self) -> int:
        return len(self.timestamps)

    @property
    def records(self) -> List[Record]:
        """The window's rows, built now: one new :class:`Record` each."""
        return self._columns.records(self._positions)

    def column(self, name: str) -> Sequence[Any]:
        """One field of every row of the window, ``None`` where a row
        lacks it (what ``record.get(name)`` gives) — no row is built."""
        return self._columns.values(name, self._positions)
