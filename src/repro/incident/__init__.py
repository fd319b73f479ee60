"""The incident lifecycle layer (ROADMAP item 5).

Diagnoses end at :class:`~repro.core.diagnosis.Diagnosis` objects and the
Result Browser; operators need the workflow *around* them — repeated
symptoms collapsed into a handful of actionable incidents, standardized
write-ups for the next shift, and a store they can query for root-cause
distributions over time.  This package is that layer:

* :mod:`~repro.incident.aggregate` — :class:`IncidentAggregator` folds a
  stream of diagnoses into :class:`Incident` records by (root cause,
  location, time window) with flap counting and confidence rollups;
* :mod:`~repro.incident.serialize` — the stable ``grca-incident/1``
  JSON schema next to the existing ``grca-diagnosis/1``;
* :mod:`~repro.incident.store` — :class:`IncidentStore`, a queryable,
  optionally SQLite-durable incident log with breakdown and drill-down
  queries;
* :mod:`~repro.incident.report` — the standardized sectioned RCA report
  (summary / impact / root causes / resolution / preventive measures /
  conclusion).

See ``docs/incidents.md``.
"""

from .aggregate import Incident, IncidentAggregator
from .report import render_incident_report, render_incident_summary
from .serialize import INCIDENT_SCHEMA, incident_from_dict, incident_to_dict
from .store import IncidentStore

__all__ = [
    "Incident",
    "IncidentAggregator",
    "IncidentStore",
    "INCIDENT_SCHEMA",
    "incident_from_dict",
    "incident_to_dict",
    "render_incident_report",
    "render_incident_summary",
]
