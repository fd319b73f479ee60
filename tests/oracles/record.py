"""The stored row as a frozen dataclass: the reference ``Record``.

``repro.collector.store.Record`` keeps only the field dict it is given and
derives ``fields`` when asked.  This is the row it must be
indistinguishable from — ``(timestamp, fields)`` held as a frozen
dataclass pair, the lookup dict a cache beside it — down to the pickled
bytes, which are the SQLite payload format.
"""

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.collector import store


@dataclass(frozen=True)
class Record:
    timestamp: float
    fields: Tuple[Tuple[str, Any], ...]

    # pickled by reference: the payloads name the store's class
    __module__ = store.Record.__module__

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_name", dict(self.fields))

    @classmethod
    def make(cls, timestamp: float, **fields: Any) -> "Record":
        return cls(timestamp, tuple(sorted(fields.items())))

    def __getitem__(self, key: str) -> Any:
        return self._by_name[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self._by_name.get(key, default)

    def as_dict(self) -> Dict[str, Any]:
        return dict(self.fields)

    def __getstate__(self):
        return (self.timestamp, self.fields)

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "timestamp", state[0])
        object.__setattr__(self, "fields", state[1])
        object.__setattr__(self, "_by_name", dict(state[1]))


@contextmanager
def as_store_record():
    """Run a block in a process whose ``repro.collector.store.Record``
    is the reference class: what it pickles there is what a store
    written before the dict became the row holds, and what it unpickles
    there is what such a process would read."""
    real = store.Record
    store.Record = Record
    try:
        yield
    finally:
        store.Record = real
