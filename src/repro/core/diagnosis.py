"""A diagnosis: everything the engine concluded about one symptom.

:meth:`RcaEngine.diagnose_all <repro.core.engine.RcaEngine.diagnose_all>`
builds one per symptom; the service, the incident layer, the Result
Browser and the ``grca-diagnosis/1`` codec (:mod:`repro.core.serialize`)
read it.  Its evidence is kept as runs (:class:`Evidence`), one per
graph edge the walk matched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.trace import Span
from .events import EventInstance
from .reasoning.rule_based import (
    UNKNOWN_DEGRADED,
    UNKNOWN_NO_EVIDENCE,
    Evidence,
    EvidenceGap,
    MatchedEvidence,
    RuleBasedResult,
)

#: One recorded store read: (table name, window start, window end).
#: ``-inf``/``inf`` bounds mean an unbounded scan of that table.
FootprintEntry = Tuple[str, float, float]


@dataclass
class Diagnosis:
    """Everything the engine concluded about one symptom instance."""

    symptom: EventInstance
    #: one run per graph edge matched (a list of items given here is
    #: grouped into runs)
    evidence: Evidence
    result: RuleBasedResult
    #: evidence feeds found impaired inside retrieval windows
    gaps: List[EvidenceGap] = field(default_factory=list)
    #: 1.0 with fully healthy evidence feeds, discounted per gap
    confidence: float = 1.0
    #: human-readable degraded-evidence notes (one per gap)
    caveats: List[str] = field(default_factory=list)
    #: store windows read while correlating, per table (merged); the
    #: service result cache invalidates on late records landing inside,
    #: and the streaming engine re-opens settled symptoms on the same
    #: signal.  Excluded from equality: which cached covers served a
    #: diagnosis is provenance, not a conclusion — two runs reaching the
    #: same evidence and result are the *same* diagnosis even when one
    #: read wider (shared) covers than the other.
    footprint: Tuple[FootprintEntry, ...] = field(default=(), compare=False)
    #: span tree of this diagnosis when it was traced (``None`` when
    #: tracing was off).  Excluded from equality: a traced and an
    #: untraced run of the same symptom are the *same* diagnosis.
    trace: Optional[Span] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.evidence.__class__ is not Evidence:
            self.evidence = Evidence.of(self.evidence)

    @property
    def primary_cause(self) -> str:
        return self.result.primary

    @property
    def root_causes(self) -> List[str]:
        return self.result.root_causes

    @property
    def is_explained(self) -> bool:
        return bool(self.result.root_causes)

    @property
    def is_degraded(self) -> bool:
        """True when some evidence feed was impaired during correlation."""
        return bool(self.gaps)

    @property
    def annotated_cause(self) -> str:
        """The primary cause with ``Unknown`` split by evidence health.

        ``Unknown (no evidence found)``: feeds were healthy and carried
        nothing — the paper's genuine Unknown.  ``Unknown (evidence
        unavailable)``: a feed that could have carried the deciding
        evidence was lagging, degraded or down.
        """
        if self.is_explained:
            return self.primary_cause
        return UNKNOWN_DEGRADED if self.gaps else UNKNOWN_NO_EVIDENCE

    def evidence_for(self, event_name: str) -> List[MatchedEvidence]:
        """Matched evidence items for one diagnostic event."""
        return [
            MatchedEvidence(rule, parent, instance, depth)
            for rule, parent, depth, instances in self.evidence.runs()
            if rule.child_event == event_name
            for instance in instances
        ]

    def to_json(self) -> Dict[str, Any]:
        """This diagnosis as a JSON-ready dict (``grca-diagnosis/1``).

        One serialization shared by the HTTP gateway's job responses
        and offline exports; :meth:`from_json` rebuilds an equal
        diagnosis (the attached trace rides along when present but is
        excluded from equality, as always).
        """
        from .serialize import diagnosis_to_dict

        return diagnosis_to_dict(self)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Diagnosis":
        """Rebuild a diagnosis from its :meth:`to_json` form."""
        from .serialize import diagnosis_from_dict

        return diagnosis_from_dict(data)

    def explain(self) -> str:
        """Human-readable trace for the Result Browser's detail pane."""
        lines = [f"symptom: {self.symptom}"]
        for rule, _parent, depth, instances in sorted(
            self.evidence.runs(), key=lambda run: run[2]
        ):
            marker = "*" if rule.child_event in self.result.root_causes else " "
            lines.extend(
                f" {marker} depth {depth} priority {rule.priority:>4} "
                f"{rule.parent_event} -> {instance}"
                for instance in instances
            )
        if self.is_explained:
            lines.append(f"root cause: {', '.join(self.root_causes)}")
        else:
            lines.append(f"root cause: {self.annotated_cause}")
        if self.gaps:
            lines.append(f"confidence: {self.confidence:.2f}")
            for caveat in self.caveats:
                lines.append(f" ! {caveat}")
        return "\n".join(lines)
