"""A queryable incident store on the pluggable storage backends.

Incidents are persisted as an **append-only revision log**: every state
change the aggregator emits (new incident, new flap, window close)
lands as one record carrying the full ``grca-incident/1`` document.
Reads group by incident id and keep the highest revision — so the
store answers both "what is the incident now?" (latest revision) and
"how did it evolve?" (the revision log *is* the drill-down timeline),
with no in-place updates for backends to coordinate.  "Now" comes from
a latest-revision index (incident id → highest-revision record) that
:meth:`IncidentStore.record` keeps current and a read rescans the log
for only when the log outgrew it (a store opened on existing data, a
second writer on the same SQLite file); windowed reads are *as-of*
reads and scan their window.

The stored documents are the state.  :meth:`~IncidentStore.documents`,
:meth:`~IncidentStore.document` and :meth:`~IncidentStore.timeline_documents`
hand out the log's own payloads — what every HTTP route and CLI JSON
output serves, so one incident has one spelling everywhere —
and :meth:`~IncidentStore.incidents`, :meth:`~IncidentStore.get` and
:meth:`~IncidentStore.timeline` are decodes of them (one decode per
stored latest revision, kept in the index).

Default backend is in-memory; point :meth:`IncidentStore.sqlite` at a
directory for a durable WAL-mode SQLite log (cause / location /
incident id mirrored into indexed TEXT columns, timestamps in the
``ts`` index — the (cause, window) queries below push down to SQL).
Writes arrive from every service worker thread, which is exactly why
:class:`~repro.collector.backends.SqliteBackend` serializes its
connection internally.
"""

from __future__ import annotations

import copy
import os
import threading
from typing import Any, Dict, List, Optional, Tuple

from ..collector.backends import MemoryBackend, SqliteBackend, StorageBackend
from ..collector.store import Record
from ..core.diagnosis import Diagnosis
from ..core.serialize import decode_float, diagnosis_to_dict
from .aggregate import Incident
from .serialize import incident_envelope, incident_from_dict

#: Columns mirrored into backend indexes for query pushdown.
INDEXED_COLUMNS = ("incident_id", "cause", "location", "symptom")


def _order(entry: list) -> Tuple[float, str]:
    """Incidents are listed oldest first: by first activity, then id."""
    document = entry[0]["payload"]
    return decode_float(document["window"]["first_seen"]), document["incident_id"]


def _keep_latest(latest: Dict[str, list], row: Record) -> None:
    """Fold one log record into ``incident id -> [record, decoded]``: an
    incident's highest revision wins, whatever the arrival order, and
    takes the slot with its decode (made on first use) still empty."""
    kept = latest.get(row["incident_id"])
    if kept is None or row["revision"] > kept[0]["revision"]:
        latest[row["incident_id"]] = [row, None]


class IncidentStore:
    """Persisted incident revisions with breakdown/drill-down queries."""

    def __init__(self, backend: Optional[StorageBackend] = None) -> None:
        if backend is None:
            backend = MemoryBackend(INDEXED_COLUMNS)
        self.backend = backend
        #: held for every backend call (a MemoryBackend is single-threaded)
        #: and for the index that mirrors the log
        self._lock = threading.Lock()
        #: latest revision per incident among the log's first ``_seen``
        self._index: Dict[str, list] = {}
        self._seen = 0
        #: open incident id -> (its example, that example's document)
        self._examples: Dict[str, Tuple[Diagnosis, Dict[str, Any]]] = {}

    @classmethod
    def sqlite(cls, directory: str, synchronous: str = "NORMAL") -> "IncidentStore":
        """A durable store: one WAL-mode SQLite file under ``directory``."""
        return cls(
            SqliteBackend(
                "incidents",
                INDEXED_COLUMNS,
                path=os.path.join(directory, "incidents.sqlite"),
                synchronous=synchronous,
            )
        )

    # ------------------------------------------------------------------
    # writes

    def record(self, incident: Incident) -> None:
        """Append one revision; plugs into ``IncidentAggregator(sink=)``.

        An incident's example is set when it opens and never changes, so
        its revisions share one example document: encoded for the first
        revision, forgotten with the closing one.  A re-opened id brings
        a new example and gets a document of its own.
        """
        incident_id, example = incident.incident_id, incident.example
        payload = incident_envelope(incident)
        if example is not None:
            with self._lock:
                kept = self._examples.get(incident_id)
            if kept is None or kept[0] is not example:
                kept = (example, diagnosis_to_dict(example))
            payload["example"] = kept[1]
        row = Record.make(
            incident.last_seen,
            incident_id=incident_id,
            cause=incident.cause,
            location=str(incident.location),
            symptom=incident.symptom_name,
            revision=incident.revision,
            payload=payload,
        )
        with self._lock:
            self.backend.insert_many((row,))
            self._seen += 1
            _keep_latest(self._index, row)
            if incident.open and example is not None:
                self._examples[incident_id] = kept
            else:
                self._examples.pop(incident_id, None)

    # ------------------------------------------------------------------
    # reads

    def _synced(self) -> Dict[str, list]:
        """The index (lock held), rescanned if the log outgrew it: a
        store opened on existing data, or a second writer on its file."""
        if len(self.backend) > self._seen:
            rows = self.backend.query_columns(None, None, {}).records
            for row in rows:
                _keep_latest(self._index, row)
            self._seen = len(rows)
        return self._index

    def _read(
        self, start: Optional[float], end: Optional[float], **equals: Any
    ) -> List[list]:
        """The one read: ``[record, decoded]`` of the latest revision of
        every incident matching every non-None filter, in
        :meth:`incidents` order.  Un-windowed, these are the index's own
        entries; ``start``/``end`` make it an as-of read of the window,
        found by scanning it."""
        wanted = {k: v for k, v in equals.items() if v is not None}
        with self._lock:
            if start is None and end is None:
                entries = [
                    entry
                    for entry in self._synced().values()
                    if all(entry[0].get(k) == v for k, v in wanted.items())
                ]
            else:
                window: Dict[str, list] = {}
                for row in self.backend.query_columns(start, end, wanted).records:
                    _keep_latest(window, row)
                entries = list(window.values())
        return sorted(entries, key=_order)

    @staticmethod
    def _decoded(entry: list) -> Incident:
        """A copy of the entry's one decode, made on first use (lock
        held; ``example`` shared, read-only)."""
        if entry[1] is None:
            entry[1] = incident_from_dict(entry[0]["payload"])
        return copy.copy(entry[1])

    def documents(
        self, cause: Optional[str] = None, location: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Latest stored ``grca-incident/1`` document of every matching
        incident, in :meth:`incidents` order — the log's own payloads,
        not copies: encode them, never edit them."""
        entries = self._read(None, None, cause=cause, location=location)
        return [row["payload"] for row, _decoded in entries]

    def document(self, incident_id: str) -> Dict[str, Any]:
        """Latest stored document of one incident; raises :class:`KeyError`."""
        with self._lock:
            return self._synced()[incident_id][0]["payload"]

    def timeline_documents(self, incident_id: str) -> List[Dict[str, Any]]:
        """Every stored document of one incident, in revision order.

        The drill-down view: how the flap count, window and confidence
        evolved as symptoms folded in.  Raises :class:`KeyError` for an
        unknown id.
        """
        with self._lock:
            rows = self.backend.query_columns(None, None, {"incident_id": incident_id})
        if not rows:
            raise KeyError(incident_id)
        return [
            row["payload"]
            for row in sorted(rows.records, key=lambda r: r["revision"])
        ]

    def incidents(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
        cause: Optional[str] = None,
        location: Optional[str] = None,
        symptom: Optional[str] = None,
        open: Optional[bool] = None,
    ) -> List[Incident]:
        """Latest revision of every matching incident, oldest first.

        ``start``/``end`` bound the incident's *last activity* (the
        revision timestamp): the answer is the store as of that window.
        ``location`` matches the rendered form, e.g.
        ``"router[nyc-per1]"``.
        """
        entries = self._read(
            start, end, cause=cause, location=location, symptom=symptom
        )
        with self._lock:
            return [
                self._decoded(entry)
                for entry in entries
                if open is None or entry[0]["payload"]["open"] == open
            ]

    def get(self, incident_id: str) -> Incident:
        """Latest revision of one incident; raises :class:`KeyError`."""
        with self._lock:
            return self._decoded(self._synced()[incident_id])

    def timeline(self, incident_id: str) -> List[Incident]:
        """:meth:`timeline_documents`, decoded."""
        return [incident_from_dict(d) for d in self.timeline_documents(incident_id)]

    # ------------------------------------------------------------------
    # breakdowns

    def breakdown(
        self,
        bucket_seconds: float = 86400.0,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> Dict[str, List[Tuple[float, int]]]:
        """Root-cause distribution over time: cause -> [(bucket, count)].

        Counts *incidents* (not raw symptoms — that view belongs to the
        Result Browser) by the bucket of their first activity.  Buckets
        floor-align to multiples of ``bucket_seconds``, pre-epoch
        timestamps landing in the bucket below, matching
        :meth:`repro.core.browser.ResultBrowser.trend`.
        """
        if bucket_seconds <= 0:
            raise ValueError(
                f"bucket_seconds must be positive, got {bucket_seconds!r}"
            )
        series: Dict[str, Dict[float, int]] = {}
        for incident in self.incidents(start, end):
            bucket = incident.first_seen - (
                incident.first_seen % bucket_seconds
            )
            per_cause = series.setdefault(incident.cause, {})
            per_cause[bucket] = per_cause.get(bucket, 0) + 1
        return {
            cause: sorted(buckets.items())
            for cause, buckets in sorted(series.items())
        }

    def top_offenders(
        self,
        limit: int = 10,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> List[Dict[str, Any]]:
        """Locations ranked by total flaps (ties: incident count, name).

        The "which routers keep hurting us" view — each row carries the
        location, its incident count, summed flap count and the causes
        seen there.
        """
        per_location: Dict[str, Dict[str, Any]] = {}
        for incident in self.incidents(start, end):
            row = per_location.setdefault(
                str(incident.location),
                {"location": str(incident.location), "incidents": 0,
                 "flaps": 0, "causes": set()},
            )
            row["incidents"] += 1
            row["flaps"] += incident.flap_count
            row["causes"].add(incident.cause)
        ranked = sorted(
            per_location.values(),
            key=lambda r: (-r["flaps"], -r["incidents"], r["location"]),
        )
        return [
            {**row, "causes": sorted(row["causes"])}
            for row in ranked[: max(limit, 0)]
        ]

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._synced())

    def revisions(self) -> int:
        """Total persisted revision records (the log length)."""
        with self._lock:
            return len(self.backend)

    def close(self) -> None:
        self.backend.close()
