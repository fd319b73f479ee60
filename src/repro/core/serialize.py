"""One JSON serialization for diagnoses (``grca-diagnosis/1``).

The HTTP gateway (:mod:`repro.service.http`) answers ``GET /v1/jobs/{id}``
with finished diagnoses, the trace export writes them next to span
trees, and downstream tooling (RCA-Copilot-style consumers) wants both
to agree on one stable shape.  This module is that shape: a pure-data
round-trip for :class:`~repro.core.diagnosis.Diagnosis` and everything it
carries — symptom/evidence instances, the diagnosis rules they joined
along, evidence gaps, confidence caveats and the store footprint.

Design constraints:

* **round-trip exact** — ``diagnosis_from_dict(diagnosis_to_dict(d)) == d``
  under dataclass equality (the attached span tree is excluded from
  equality, as in the engine, but is carried when present);
* **strict JSON** — ``float("inf")`` footprint bounds (unbounded table
  scans) are encoded as the strings ``"inf"``/``"-inf"`` so the output
  survives strict parsers, not just Python's lenient ``json``;
* **no engine required** — decoding rebuilds plain rule/instance
  objects from their own fields; no graph, library or store is needed,
  so API *clients* can reconstruct diagnoses without the platform;
* **one copy of what documents repeat** — a month of incidents names a
  dozen rules and a few hundred locations thousands of times, so
  encoding hands out one shared, read-only document per rule and per
  location object (:class:`SharedDict` / :class:`SharedList`, kept on
  the value itself), and decoding hands out one shared (immutable)
  :class:`DiagnosisRule` per distinct rule and one :class:`Location` per
  distinct location.  A shared document keeps what decoding it gave;
  any other document is decoded through bounded tables keyed on the
  *decoded* fields, type for type: ``1``, ``1.0`` and ``true`` are
  equal in Python, and so are ``0.0`` and ``-0.0``, but each re-encodes
  as itself.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from ..collector.health import FeedState
from .diagnosis import Diagnosis
from .events import EventInstance
from .graph import DiagnosisRule
from .locations import _INTERN_CAP, Location, LocationType
from .reasoning.rule_based import (
    NO_EVIDENCE,
    Evidence,
    EvidenceGap,
    RuleBasedResult,
)
from .spatial import JoinLevel, SpatialJoinRule
from .temporal import ExpandOption, TemporalExpansion, TemporalJoinRule

#: Schema tag stamped on every serialized diagnosis.
DIAGNOSIS_SCHEMA = "grca-diagnosis/1"


# ---------------------------------------------------------------------------
# scalar helpers


def encode_float(value: float) -> Any:
    """A float as strict JSON: ``inf``/``-inf``/``nan`` become strings.

    Python's lenient :mod:`json` would otherwise emit the bare tokens
    ``Infinity``/``NaN``, which are not JSON and break strict parsers
    (``json.dumps(..., allow_nan=False)`` refuses them outright).
    """
    if value != value:  # NaN is the only float that differs from itself
        return "nan"
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    return value


def decode_float(value: Any) -> float:
    """Inverse of :func:`encode_float`: restore non-finite sentinels."""
    if value == "nan":
        return float("nan")
    if value == "inf":
        return float("inf")
    if value == "-inf":
        return float("-inf")
    return float(value)


def _exact(value: Any) -> Any:
    """``value`` as a key no two JSON spellings share: a bare value
    compares ``1 == 1.0 == True`` and ``0.0 == -0.0``."""
    if value.__class__ is float and not value:
        return float, value, math.copysign(1.0, value)
    return value.__class__, value


def _member(enum_type, members: Dict[Any, Any], value: Any):
    """``enum_type(value)`` through a value -> member map; an unknown
    (or unhashable) value raises the enum's own ``ValueError``."""
    try:
        return members[value]
    except (KeyError, TypeError):
        return enum_type(value)


_LOCATION_TYPES = {member.value: member for member in LocationType}
_EXPAND_OPTIONS = {member.value: member for member in ExpandOption}
_JOIN_LEVELS = {member.value: member for member in JoinLevel}
_FEED_STATES = {member.value: member for member in FeedState}

#: decoded rules by :func:`_exact` key of their fields (see
#: :func:`rule_from_dict`); bounded like the location intern table
_RULES: Dict[tuple, DiagnosisRule] = {}


class SharedDict(dict):
    """A sub-document every document that embeds it shares: read-only.

    :func:`rule_to_dict` and :func:`location_to_dict` hand out one per
    rule / location object, so it is never edited in place — every
    in-place edit raises ``TypeError``.  ``copy.copy``,
    ``copy.deepcopy``, ``dict(...)`` and a pickle round trip hand back
    a plain, editable ``dict``; ``json.dumps`` writes the same bytes as
    for a plain one.
    """

    #: what :func:`rule_from_dict` / :func:`location_from_dict` gave for
    #: this document, once one of them was asked
    decoded: Any = None

    def _read_only(self, *_args, **_kwargs):
        """Refused: a shared document is never edited in place."""
        raise TypeError(
            "a shared grca-diagnosis/1 sub-document is read-only; "
            "copy.deepcopy(document) gives an editable copy"
        )

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce_ex__(self, _protocol):
        return dict, (), None, None, iter(self.items())


class SharedList(list):
    """The ``list`` sibling of :class:`SharedDict`: a location's parts."""

    __slots__ = ()

    _read_only = SharedDict._read_only
    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    def __reduce_ex__(self, _protocol):
        return list, (), None, iter(self)


def _encode_value(value: Any) -> Any:
    """Encode one ``info`` value, preserving tuples through JSON."""
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_value(item) for item in value]}
    if isinstance(value, list):
        return [_encode_value(item) for item in value]
    if isinstance(value, dict):
        return {key: _encode_value(item) for key, item in value.items()}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__tuple__"}:
            return tuple(_decode_value(item) for item in value["__tuple__"])
        return {key: _decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# locations and event instances


def location_to_dict(location: Location) -> Dict[str, Any]:
    """A :class:`Location` as ``{"type", "parts"}``: the location's own
    shared, read-only document (a :class:`SharedDict`)."""
    document = location._document
    if document is None:
        document = SharedDict(
            type=location.type.value, parts=SharedList(location.parts)
        )
        object.__setattr__(location, "_document", document)
    return document


def location_from_dict(data: Dict[str, Any]) -> Location:
    """Rebuild a :class:`Location` from :func:`location_to_dict` output:
    the interned one when every part is a string.  A shared document is
    decoded once."""
    if data.__class__ is SharedDict:
        if data.decoded is None:
            data.decoded = _location_from_fields(data)
        return data.decoded
    return _location_from_fields(data)


def _location_from_fields(data: Dict[str, Any]) -> Location:
    location_type = _member(LocationType, _LOCATION_TYPES, data["type"])
    parts = tuple(data["parts"])
    # only strings intern (``1``, ``1.0`` and ``true`` would share a key);
    # anything else, and any count but one or two, goes to the checking
    # constructor
    for part in parts:
        if part.__class__ is not str:
            break
    else:
        if 0 < len(parts) < 3:
            return Location._interned(location_type, *parts)
    return Location(location_type, parts)


def instance_to_dict(instance: EventInstance) -> Dict[str, Any]:
    """An :class:`EventInstance` as a JSON-ready dict (tuples preserved)."""
    return {
        "name": instance.name,
        "start": instance.start,
        "end": instance.end,
        "location": location_to_dict(instance.location),
        "info": [[key, _encode_value(value)] for key, value in instance.info],
    }


def instance_from_dict(data: Dict[str, Any]) -> EventInstance:
    """Rebuild an :class:`EventInstance` from :func:`instance_to_dict` output.

    Raises ``ValueError`` for an interval that is not finite
    ``start <= end`` (``float`` reads ``"nan"`` and ``"-inf"``).
    """
    info = data.get("info")
    return EventInstance(
        name=data["name"],
        start=float(data["start"]),
        end=float(data["end"]),
        location=location_from_dict(data["location"]),
        info=tuple((key, _decode_value(value)) for key, value in info) if info else (),
    )


# ---------------------------------------------------------------------------
# diagnosis rules (graph edges carried by matched evidence)


def rule_to_dict(rule: DiagnosisRule) -> Dict[str, Any]:
    """A :class:`DiagnosisRule` (temporal + spatial clauses) as a dict:
    the rule's own shared, read-only document (a :class:`SharedDict`)."""
    document = rule._document
    if document is None:
        document = SharedDict(
            parent_event=rule.parent_event,
            child_event=rule.child_event,
            temporal=SharedDict(
                symptom=_expansion_to_dict(rule.temporal.symptom),
                diagnostic=_expansion_to_dict(rule.temporal.diagnostic),
            ),
            spatial=SharedDict(
                symptom_type=rule.spatial.symptom_type.value,
                diagnostic_type=rule.spatial.diagnostic_type.value,
                level=rule.spatial.level.value,
            ),
            priority=rule.priority,
            is_root_cause=rule.is_root_cause,
            note=rule.note,
        )
        object.__setattr__(rule, "_document", document)
    return document


def rule_from_dict(data: Dict[str, Any]) -> DiagnosisRule:
    """Rebuild a :class:`DiagnosisRule` from :func:`rule_to_dict` output:
    one shared rule per distinct decoded field values, type for type.
    A shared document is decoded once."""
    if data.__class__ is SharedDict:
        if data.decoded is None:
            data.decoded = _rule_from_fields(data)
        return data.decoded
    return _rule_from_fields(data)


def _rule_from_fields(data: Dict[str, Any]) -> DiagnosisRule:
    spatial, temporal = data["spatial"], data["temporal"]
    symptom, diagnostic = temporal["symptom"], temporal["diagnostic"]
    parent, child = data["parent_event"], data["child_event"]
    options = (
        _member(ExpandOption, _EXPAND_OPTIONS, symptom["option"]),
        _member(ExpandOption, _EXPAND_OPTIONS, diagnostic["option"]),
    )
    margins = (
        float(symptom["left"]), float(symptom["right"]),
        float(diagnostic["left"]), float(diagnostic["right"]),
    )
    types = (
        _member(LocationType, _LOCATION_TYPES, spatial["symptom_type"]),
        _member(LocationType, _LOCATION_TYPES, spatial["diagnostic_type"]),
        _member(JoinLevel, _JOIN_LEVELS, spatial["level"]),
    )
    priority = data.get("priority", 0)
    root = data.get("is_root_cause", True)
    note = data.get("note", "")
    # a member decodes from the one string that is its value, so the
    # strings key the options, types and level
    key = (
        _exact(parent), _exact(child), _exact(priority), _exact(root),
        _exact(note), *map(_exact, margins), symptom["option"],
        diagnostic["option"], spatial["symptom_type"],
        spatial["diagnostic_type"], spatial["level"],
    )
    try:
        rule = _RULES.get(key)
    except TypeError:  # a list or object where a scalar belongs
        key, rule = None, None
    if rule is None:
        s_left, s_right, d_left, d_right = margins
        rule = DiagnosisRule(
            parent_event=parent,
            child_event=child,
            temporal=TemporalJoinRule(
                symptom=TemporalExpansion(options[0], s_left, s_right),
                diagnostic=TemporalExpansion(options[1], d_left, d_right),
            ),
            spatial=SpatialJoinRule(*types),
            priority=priority,
            is_root_cause=root,
            note=note,
        )
        if key is not None and len(_RULES) < _INTERN_CAP:
            _RULES[key] = rule
    return rule


def _expansion_to_dict(expansion: TemporalExpansion) -> SharedDict:
    return SharedDict(
        option=expansion.option.value, left=expansion.left, right=expansion.right
    )


# ---------------------------------------------------------------------------
# gaps

def gap_to_dict(gap: EvidenceGap) -> Dict[str, Any]:
    """An :class:`EvidenceGap` as a dict (infinite bounds as strings)."""
    return {
        "source": gap.source,
        "state": gap.state.value,
        "start": encode_float(gap.start),
        "end": encode_float(gap.end),
        "event": gap.event,
        "parent_event": gap.parent_event,
    }


def gap_from_dict(data: Dict[str, Any]) -> EvidenceGap:
    """Rebuild an :class:`EvidenceGap` from :func:`gap_to_dict` output."""
    return EvidenceGap(
        source=data["source"],
        state=_member(FeedState, _FEED_STATES, data["state"]),
        start=decode_float(data["start"]),
        end=decode_float(data["end"]),
        event=data["event"],
        parent_event=data["parent_event"],
    )


# ---------------------------------------------------------------------------
# the diagnosis envelope


def diagnosis_to_dict(diagnosis: Diagnosis) -> Dict[str, Any]:
    """One :class:`~repro.core.diagnosis.Diagnosis` as a JSON-ready dict."""
    evidence = diagnosis.evidence
    items: List[Dict[str, Any]] = []
    # one item document per matched instance; the items of one run share
    # its parent document (encoded once), and every run its rule's
    for rule, parent, depth, instances in evidence.runs():
        rule_doc, parent_doc = rule_to_dict(rule), instance_to_dict(parent)
        items += [
            {
                "rule": rule_doc,
                "parent_instance": parent_doc,
                "instance": instance_to_dict(instance),
                "depth": depth,
            }
            for instance in instances
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
        # derived labels repeated flat so API consumers need no logic
        "annotated_cause": diagnosis.annotated_cause,
        "is_explained": diagnosis.is_explained,
    }
    if diagnosis.trace is not None:
        document["trace"] = diagnosis.trace.to_dict()
    return document


def _decode_evidence(items: List[Dict[str, Any]], supporting: Any):
    """Item documents as :class:`Evidence` runs, plus the supporting part.

    ``supporting`` must be distinct integer indices into ``items``
    (``true`` is not an index).  Consecutive items whose rule, parent and
    depth documents are equal form one run, decoded once; a run also
    ends wherever a stretch of consecutive supporting indices starts or
    stops, so the supporting part is whole runs of the same list.
    """
    if supporting.__class__ is not list:
        raise ValueError(f"supporting indices must be a list, got {supporting!r}")
    cuts: Dict[int, bool] = {}  # item indices a run must start at
    taken: Dict[int, bool] = {}
    previous = -2  # no index before the first: its stretch starts there
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
    head_at: Dict[int, int] = {}  # item index starting a run -> its header
    head, last = 0, None
    for index, item in enumerate(items):
        # items of one encoded run share their rule and parent documents
        rule, parent = item["rule"], item["parent_instance"]
        if index in cuts or last is None or (
            (rule is not last["rule"] and rule != last["rule"])
            or (parent is not last["parent_instance"]
                and parent != last["parent_instance"])
            or item["depth"] != last["depth"]
        ):
            # the previous run (if any) ends where this one's header goes
            head = head_at[index] = head + 4 + runs[head + 3] if runs else 0
            runs += (rule_from_dict(rule), instance_from_dict(parent), item["depth"], 0)
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
    """Rebuild a :class:`~repro.core.diagnosis.Diagnosis` from its dict form.

    Raises :class:`ValueError` on any malformed payload — wrong or
    missing schema tag, truncated documents, missing evidence fields,
    dangling, repeated or non-integer supporting indices — so API
    clients see one exception type instead of raw
    ``KeyError``/``IndexError`` from deep inside the decoder.
    """
    if not isinstance(data, dict):
        raise ValueError(
            f"diagnosis payload must be a JSON object, got {type(data).__name__}"
        )
    schema = data.get("schema")
    if schema != DIAGNOSIS_SCHEMA:
        raise ValueError(
            f"unsupported diagnosis schema {schema!r}; "
            f"expected {DIAGNOSIS_SCHEMA!r}"
        )
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
            from ..obs.trace import Span

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
    except (KeyError, IndexError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(
            f"malformed {DIAGNOSIS_SCHEMA} payload: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
