"""The incident store's reads as full scans: the reference ``IncidentStore``.

``repro.incident.store.IncidentStore`` answers "what is the incident
now?" from a latest-revision index it keeps beside the log.  This is
the read path it had before — and must stay indistinguishable from:
every read scans the revision log (or its window), keeps the highest
revision per incident id and decodes every survivor.  It reads the
*same backend* as the store under test and holds no state of its own,
so it is correct by construction whatever was appended, in whatever
order, by whichever handle.
"""

from typing import Any, Dict, List, Optional

from repro.collector.backends import StorageBackend
from repro.collector.store import Record
from repro.incident.aggregate import Incident
from repro.incident.serialize import incident_from_dict


class ScanIncidentStore:
    def __init__(self, backend: StorageBackend) -> None:
        self.backend = backend

    def _latest(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
        **equals: Any,
    ) -> Dict[str, Record]:
        """Highest-revision record per incident id in the window."""
        pushdown = {k: v for k, v in equals.items() if v is not None}
        latest: Dict[str, Record] = {}
        for record in self.backend.query_columns(start, end, pushdown).records:
            incident_id = record["incident_id"]
            kept = latest.get(incident_id)
            if kept is None or record["revision"] > kept["revision"]:
                latest[incident_id] = record
        return latest

    def incidents(
        self,
        start: Optional[float] = None,
        end: Optional[float] = None,
        cause: Optional[str] = None,
        location: Optional[str] = None,
        symptom: Optional[str] = None,
        open: Optional[bool] = None,
    ) -> List[Incident]:
        rows = self._latest(
            start, end, cause=cause, location=location, symptom=symptom
        )
        incidents = [incident_from_dict(r["payload"]) for r in rows.values()]
        if open is not None:
            incidents = [i for i in incidents if i.open == open]
        return sorted(incidents, key=lambda i: (i.first_seen, i.incident_id))

    def get(self, incident_id: str) -> Incident:
        rows = self._latest(incident_id=incident_id)
        if incident_id not in rows:
            raise KeyError(incident_id)
        return incident_from_dict(rows[incident_id]["payload"])

    def documents(
        self, cause: Optional[str] = None, location: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """What ``GET /v1/incidents`` encoded: decode, then re-encode."""
        return [
            i.to_json() for i in self.incidents(cause=cause, location=location)
        ]

    def __len__(self) -> int:
        return len(self._latest())
