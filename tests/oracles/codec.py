"""The ``grca-diagnosis/1`` / ``grca-incident/1`` codec as it was
written first: the reference.

Every document is built afresh, as a plain ``dict`` / ``list``, from
the value it encodes, and every location, rule and expansion is decoded
afresh from its own document, enum values through the enum's own
constructor.  ``repro.core.serialize`` hands out one shared, read-only
document per rule and location object when encoding, and one shared
:class:`Location` / :class:`DiagnosisRule` per distinct decoded value
when decoding; ``test_codec.py`` holds it to this one.
"""

from typing import Any, Dict, List

from repro.collector.health import FeedState
from repro.core.diagnosis import Diagnosis
from repro.core.events import EventInstance
from repro.core.graph import DiagnosisRule
from repro.core.locations import Location, LocationType
from repro.core.reasoning.rule_based import (
    NO_EVIDENCE,
    Evidence,
    EvidenceGap,
    RuleBasedResult,
)
from repro.core.serialize import (
    DIAGNOSIS_SCHEMA,
    _decode_value,
    _encode_value,
    decode_float,
    encode_float,
    gap_to_dict,
)
from repro.core.spatial import JoinLevel, SpatialJoinRule
from repro.core.temporal import ExpandOption, TemporalExpansion, TemporalJoinRule
from repro.incident import Incident
from repro.incident.serialize import INCIDENT_SCHEMA


# ---------------------------------------------------------------------------
# encoding


def location_to_dict(location: Location) -> Dict[str, Any]:
    return {"type": location.type.value, "parts": list(location.parts)}


def instance_to_dict(instance: EventInstance) -> Dict[str, Any]:
    return {
        "name": instance.name,
        "start": instance.start,
        "end": instance.end,
        "location": location_to_dict(instance.location),
        "info": [[key, _encode_value(value)] for key, value in instance.info],
    }


def _expansion_to_dict(expansion: TemporalExpansion) -> Dict[str, Any]:
    return {
        "option": expansion.option.value,
        "left": expansion.left,
        "right": expansion.right,
    }


def rule_to_dict(rule: DiagnosisRule) -> Dict[str, Any]:
    return {
        "parent_event": rule.parent_event,
        "child_event": rule.child_event,
        "temporal": {
            "symptom": _expansion_to_dict(rule.temporal.symptom),
            "diagnostic": _expansion_to_dict(rule.temporal.diagnostic),
        },
        "spatial": {
            "symptom_type": rule.spatial.symptom_type.value,
            "diagnostic_type": rule.spatial.diagnostic_type.value,
            "level": rule.spatial.level.value,
        },
        "priority": rule.priority,
        "is_root_cause": rule.is_root_cause,
        "note": rule.note,
    }


def diagnosis_to_dict(diagnosis: Diagnosis) -> Dict[str, Any]:
    evidence = diagnosis.evidence
    items = [
        {
            "rule": rule_to_dict(item.rule),
            "parent_instance": instance_to_dict(item.parent_instance),
            "instance": instance_to_dict(item.instance),
            "depth": item.depth,
        }
        for item in evidence
    ]
    document = {
        "schema": DIAGNOSIS_SCHEMA,
        "symptom": instance_to_dict(diagnosis.symptom),
        "evidence": items,
        "result": {
            "root_causes": list(diagnosis.result.root_causes),
            "priority": diagnosis.result.priority,
            "supporting": evidence.offsets(diagnosis.result.supporting),
        },
        "gaps": [gap_to_dict(gap) for gap in diagnosis.gaps],
        "confidence": encode_float(diagnosis.confidence),
        "caveats": list(diagnosis.caveats),
        "footprint": [
            [table, encode_float(lo), encode_float(hi)]
            for table, lo, hi in diagnosis.footprint
        ],
        "annotated_cause": diagnosis.annotated_cause,
        "is_explained": diagnosis.is_explained,
    }
    if diagnosis.trace is not None:
        document["trace"] = diagnosis.trace.to_dict()
    return document


def incident_to_dict(incident: Incident) -> Dict[str, Any]:
    document = {
        "schema": INCIDENT_SCHEMA,
        "incident_id": incident.incident_id,
        "symptom": incident.symptom_name,
        "cause": incident.cause,
        "location": location_to_dict(incident.location),
        "window": {
            "start": encode_float(incident.window_start),
            "first_seen": encode_float(incident.first_seen),
            "last_seen": encode_float(incident.last_seen),
            "duration": encode_float(incident.duration),
        },
        "flap_count": incident.flap_count,
        "revision": incident.revision,
        "open": incident.open,
        "confidence": {
            "mean": encode_float(incident.confidence_mean),
            "min": encode_float(incident.confidence_min),
            "total": encode_float(incident.confidence_total),
        },
        "degraded_count": incident.degraded_count,
        "gap_sources": list(incident.gap_sources),
        "caveats": list(incident.caveats),
    }
    if incident.example is not None:
        document["example"] = diagnosis_to_dict(incident.example)
    return document


# ---------------------------------------------------------------------------
# decoding


def location_from_dict(data: Dict[str, Any]) -> Location:
    return Location(LocationType(data["type"]), tuple(data["parts"]))


def instance_from_dict(data: Dict[str, Any]) -> EventInstance:
    info = data.get("info")
    return EventInstance(
        name=data["name"],
        start=float(data["start"]),
        end=float(data["end"]),
        location=location_from_dict(data["location"]),
        info=tuple((key, _decode_value(value)) for key, value in info) if info else (),
    )


def _expansion_from_dict(data: Dict[str, Any]) -> TemporalExpansion:
    return TemporalExpansion(
        option=ExpandOption(data["option"]),
        left=float(data["left"]),
        right=float(data["right"]),
    )


def rule_from_dict(data: Dict[str, Any]) -> DiagnosisRule:
    spatial = data["spatial"]
    return DiagnosisRule(
        parent_event=data["parent_event"],
        child_event=data["child_event"],
        temporal=TemporalJoinRule(
            symptom=_expansion_from_dict(data["temporal"]["symptom"]),
            diagnostic=_expansion_from_dict(data["temporal"]["diagnostic"]),
        ),
        spatial=SpatialJoinRule(
            symptom_type=LocationType(spatial["symptom_type"]),
            diagnostic_type=LocationType(spatial["diagnostic_type"]),
            level=JoinLevel(spatial["level"]),
        ),
        priority=data.get("priority", 0),
        is_root_cause=data.get("is_root_cause", True),
        note=data.get("note", ""),
    )


def gap_from_dict(data: Dict[str, Any]) -> EvidenceGap:
    return EvidenceGap(
        source=data["source"],
        state=FeedState(data["state"]),
        start=decode_float(data["start"]),
        end=decode_float(data["end"]),
        event=data["event"],
        parent_event=data["parent_event"],
    )


def _decode_evidence(items: List[Dict[str, Any]], supporting: Any):
    """Consecutive items with equal rule, parent and depth documents form
    one run; a run also ends where a stretch of supporting indices
    starts or stops."""
    if supporting.__class__ is not list:
        raise ValueError(f"supporting indices must be a list, got {supporting!r}")
    cuts: Dict[int, bool] = {}
    taken: Dict[int, bool] = {}
    previous = -2
    for index in supporting:
        if index.__class__ is not int:
            raise ValueError(f"supporting indices {supporting} are not all integers")
        if index in taken:
            raise ValueError(f"supporting indices {supporting} repeat {index}")
        taken[index] = True
        if index != previous + 1:
            cuts[index] = cuts[previous + 1] = True
        previous = index
    cuts[previous + 1] = True
    runs: List[Any] = []
    head_at: Dict[int, int] = {}
    head, last = 0, None
    for index, item in enumerate(items):
        if index in cuts or last is None or (
            item["rule"] != last["rule"]
            or item["parent_instance"] != last["parent_instance"]
            or item["depth"] != last["depth"]
        ):
            head = head_at[index] = head + 4 + runs[head + 3] if runs else 0
            runs += (
                rule_from_dict(item["rule"]),
                instance_from_dict(item["parent_instance"]),
                item["depth"],
                0,
            )
        runs[head + 3] += 1
        runs += (instance_from_dict(item["instance"]),)
        last = item
    evidence = Evidence(runs) if runs else NO_EVIDENCE
    if not supporting:
        return evidence, NO_EVIDENCE
    count = len(evidence)
    bad = [i for i in supporting if not 0 <= i < count]
    if bad:
        raise ValueError(
            f"supporting indices {bad} out of range for {count} evidence items"
        )
    return evidence, Evidence(runs, [head_at[i] for i in supporting if i in head_at])


def diagnosis_from_dict(data: Dict[str, Any]) -> Diagnosis:
    if not isinstance(data, dict):
        raise ValueError("diagnosis payload must be a JSON object")
    if data.get("schema") != DIAGNOSIS_SCHEMA:
        raise ValueError("unsupported diagnosis schema")
    try:
        result_data = data["result"]
        evidence, supporting = _decode_evidence(
            data.get("evidence", []), result_data.get("supporting", [])
        )
        result = RuleBasedResult(
            root_causes=list(result_data.get("root_causes", [])),
            priority=result_data.get("priority", 0),
            supporting=supporting,
        )
        trace = None
        if data.get("trace") is not None:
            from repro.obs.trace import Span

            trace = Span.from_dict(data["trace"])
        return Diagnosis(
            symptom=instance_from_dict(data["symptom"]),
            evidence=evidence,
            result=result,
            gaps=[gap_from_dict(gap) for gap in data.get("gaps", [])],
            confidence=decode_float(data.get("confidence", 1.0)),
            caveats=list(data.get("caveats", [])),
            footprint=tuple(
                (table, decode_float(lo), decode_float(hi))
                for table, lo, hi in data.get("footprint", [])
            ),
            trace=trace,
        )
    except ValueError:
        raise
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed {DIAGNOSIS_SCHEMA} payload: {exc!r}") from exc


def incident_from_dict(data: Dict[str, Any]) -> Incident:
    if not isinstance(data, dict):
        raise ValueError("incident payload must be a JSON object")
    if data.get("schema") != INCIDENT_SCHEMA:
        raise ValueError("unsupported incident schema")
    try:
        window = data["window"]
        confidence = data["confidence"]
        example = None
        if data.get("example") is not None:
            example = diagnosis_from_dict(data["example"])
        return Incident(
            incident_id=data["incident_id"],
            symptom_name=data["symptom"],
            cause=data["cause"],
            location=location_from_dict(data["location"]),
            window_start=decode_float(window["start"]),
            first_seen=decode_float(window["first_seen"]),
            last_seen=decode_float(window["last_seen"]),
            flap_count=int(data["flap_count"]),
            revision=int(data["revision"]),
            open=bool(data["open"]),
            confidence_total=decode_float(confidence["total"]),
            confidence_min=decode_float(confidence["min"]),
            degraded_count=int(data.get("degraded_count", 0)),
            gap_sources=tuple(data.get("gap_sources", [])),
            caveats=tuple(data.get("caveats", [])),
            example=example,
        )
    except ValueError:
        raise
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed {INCIDENT_SCHEMA} payload: {exc!r}") from exc
