"""Folding diagnosis streams into deduplicated incidents.

A month of telemetry over a flapping BGP session produces hundreds of
diagnosed symptom instances that are, to an operator, *one* incident:
same root cause, same location, one contiguous stretch of time.  The
:class:`IncidentAggregator` performs that collapse — Groot's deployment
experience (PAPERS.md) is the motivation: thousands of correlated
alerts must become a handful of actionable items.

Dedupe identity is ``(symptom name, annotated root cause, resolved
location)``; the *time window* dimension is gap-based: a new symptom
within ``gap_seconds`` of the incident's last activity folds in
(flap count += 1), a later one closes the window and opens a fresh
incident.  Re-emissions of the *same* symptom instance (the streaming
engine re-diagnoses settled symptoms when late evidence lands) are
recognized by :func:`~repro.core.events.instance_key` and do **not**
inflate the flap count.

The aggregator holds only what it still folds into: the active
incidents and their member instance keys.  A closed incident is emitted
to the sink one last time and forgotten — the store's revision log is
its one copy.

Everything is derived from event timestamps — no wall clock anywhere —
so replaying the same seed twice produces byte-identical incidents
(pinned by the end-to-end tests).
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..core.engine import Diagnosis
from ..core.events import InstanceKey, instance_key
from ..core.locations import Location

#: Caveat strings kept per incident (rollup, not a transcript).
MAX_CAVEATS = 8

#: What an incident is deduplicated by: (symptom name, annotated cause,
#: location type value, location parts).
IncidentGroupKey = Tuple[str, str, str, Tuple[str, ...]]


def incident_id_for(
    symptom: str, cause: str, location: Location, window_start: float
) -> str:
    """Deterministic incident id — stable across runs of the same seed.

    A content hash, not a counter: two processes (or two replays)
    aggregating the same stream agree on ids without coordination.
    """
    seed = (
        f"{symptom}\x1f{cause}\x1f{location.type.value}"
        f"\x1f{':'.join(location.parts)}\x1f{window_start:.1f}"
    )
    return "inc-" + hashlib.sha1(seed.encode("utf-8")).hexdigest()[:12]


@dataclass
class Incident:
    """One deduplicated incident: repeated symptoms, one cause, one place."""

    incident_id: str
    symptom_name: str
    cause: str
    location: Location
    window_start: float
    first_seen: float
    last_seen: float
    #: distinct symptom instances folded in (>1 means the symptom flapped)
    flap_count: int = 1
    #: bumped on every state change; the store's drill-down timeline is
    #: the revision log
    revision: int = 1
    open: bool = True
    #: rollups over folded diagnoses
    confidence_total: float = 1.0
    confidence_min: float = 1.0
    degraded_count: int = 0
    gap_sources: Tuple[str, ...] = ()
    caveats: Tuple[str, ...] = ()
    #: representative diagnosis (the first folded in), carried whole so
    #: reports and API consumers can show a worked evidence trace
    example: Optional[Diagnosis] = field(default=None, compare=False, repr=False)

    @property
    def confidence_mean(self) -> float:
        return self.confidence_total / max(self.flap_count, 1)

    @property
    def duration(self) -> float:
        return self.last_seen - self.first_seen

    @property
    def is_degraded(self) -> bool:
        return self.degraded_count > 0

    def to_json(self) -> Dict:
        """This incident as a ``grca-incident/1`` JSON-ready dict."""
        from .serialize import incident_to_dict

        return incident_to_dict(self)


#: Called with every incident revision (new or updated).
IncidentCallback = Callable[[Incident], None]


class IncidentAggregator:
    """Folds diagnoses into incidents; safe to feed from many threads.

    ``observe`` matches the engine/streaming ``DiagnosisCallback``
    signature, so an aggregator plugs directly into
    :class:`~repro.core.streaming.StreamingRca` (``on_diagnosis=``) and
    the service layer's ``incident_sink``.  Attach a sink (usually
    :meth:`~repro.incident.store.IncidentStore.record`) to persist every
    revision: a closed incident lives on only there.
    """

    def __init__(
        self,
        gap_seconds: float = 3600.0,
        sink: Optional[IncidentCallback] = None,
    ) -> None:
        if gap_seconds <= 0:
            raise ValueError(
                f"gap_seconds must be positive, got {gap_seconds!r}"
            )
        self.gap_seconds = gap_seconds
        self._sink = sink
        self._lock = threading.Lock()
        self._active: Dict[IncidentGroupKey, Incident] = {}
        #: instance keys folded into each active incident
        self._members: Dict[IncidentGroupKey, Set[InstanceKey]] = {}
        self._observed = 0
        self._deduped = 0
        self._opened = 0

    # ------------------------------------------------------------------
    # ingest

    def observe(self, diagnosis: Diagnosis) -> Incident:
        """Fold one diagnosis in; returns the (possibly new) incident."""
        symptom = diagnosis.symptom
        cause = diagnosis.annotated_cause
        location = symptom.location
        group: IncidentGroupKey = (
            symptom.name,
            cause,
            location.type.value,
            location.parts,
        )
        member = instance_key(symptom)
        with self._lock:
            self._observed += 1
            incident = self._active.get(group)
            if incident is not None:
                if member in self._members[group]:
                    # re-emission of a known instance (streaming re-diagnosis,
                    # a served cache hit): refresh rollups that may have
                    # changed, never the flap count; a revision only if one did
                    self._deduped += 1
                    if self._refold(incident, diagnosis):
                        incident.revision += 1
                        self._emit(incident)
                    return incident
                if symptom.start - incident.last_seen > self.gap_seconds:
                    # the incident opened below takes over the group's slots
                    self._close(incident)
                    incident = None
            if incident is None:
                incident = Incident(
                    incident_id=incident_id_for(
                        symptom.name, cause, location, symptom.start
                    ),
                    symptom_name=symptom.name,
                    cause=cause,
                    location=location,
                    window_start=symptom.start,
                    first_seen=symptom.start,
                    last_seen=symptom.end,
                    confidence_total=diagnosis.confidence,
                    confidence_min=diagnosis.confidence,
                    degraded_count=1 if diagnosis.gaps else 0,
                    gap_sources=tuple(
                        sorted({gap.source for gap in diagnosis.gaps})
                    ),
                    caveats=tuple(diagnosis.caveats[:MAX_CAVEATS]),
                    example=diagnosis,
                )
                self._active[group] = incident
                self._members[group] = {member}
                self._opened += 1
                self._emit(incident)
                return incident
            # a new flap of the active incident
            self._members[group].add(member)
            incident.flap_count += 1
            incident.revision += 1
            incident.first_seen = min(incident.first_seen, symptom.start)
            incident.last_seen = max(incident.last_seen, symptom.end)
            incident.confidence_total += diagnosis.confidence
            incident.confidence_min = min(
                incident.confidence_min, diagnosis.confidence
            )
            self._roll_gaps(incident, diagnosis)
            self._emit(incident)
            return incident

    def _refold(self, incident: Incident, diagnosis: Diagnosis) -> bool:
        """A re-emitted instance: refresh rollups; True if any changed."""
        before = (incident.confidence_min, incident.degraded_count, incident.caveats)
        incident.confidence_min = min(
            incident.confidence_min, diagnosis.confidence
        )
        self._roll_gaps(incident, diagnosis)
        return before != (
            incident.confidence_min, incident.degraded_count, incident.caveats
        )

    @staticmethod
    def _roll_gaps(incident: Incident, diagnosis: Diagnosis) -> None:
        if diagnosis.gaps:
            incident.degraded_count += 1
            incident.gap_sources = tuple(
                sorted(
                    set(incident.gap_sources)
                    | {gap.source for gap in diagnosis.gaps}
                )
            )
        fresh = [c for c in diagnosis.caveats if c not in incident.caveats]
        if fresh:
            room = MAX_CAVEATS - len(incident.caveats)
            incident.caveats = incident.caveats + tuple(fresh[:room])

    def _emit(self, incident: Incident) -> None:
        if self._sink is not None:
            self._sink(incident)

    def _close(self, incident: Incident) -> None:
        """Emit an incident's closing revision; only the sink keeps it."""
        incident.open = False
        incident.revision += 1
        self._emit(incident)

    # ------------------------------------------------------------------
    # clock and counters

    def advance(self, now: float) -> List[Incident]:
        """Close active incidents idle past the gap, forget them, and
        return them."""
        closed = []
        with self._lock:
            for group, incident in list(self._active.items()):
                if now - incident.last_seen > self.gap_seconds:
                    self._close(incident)
                    del self._active[group], self._members[group]
                    closed.append(incident)
        return closed

    def stats(self) -> Dict[str, int]:
        """Counters for metrics surfaces (``incidents``: ever opened)."""
        with self._lock:
            return {
                "observed": self._observed,
                "deduped_reemissions": self._deduped,
                "incidents": self._opened,
                "active": len(self._active),
            }
