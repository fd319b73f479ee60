"""The ``grca-incident/1`` JSON schema.

The incident-layer sibling of ``grca-diagnosis/1``
(:mod:`repro.core.serialize`): a stable, strict-JSON shape for
:class:`~repro.incident.aggregate.Incident` that the HTTP gateway, the
CLI export and downstream tooling (RCA-Copilot-style LLM consumers,
PAPERS.md) all agree on.  Same design constraints as the diagnosis
schema — round-trip exact, strict JSON (non-finite floats encoded via
the shared :func:`~repro.core.serialize.encode_float` guard, NaN
included), decodable without the platform.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.serialize import (
    decode_float,
    diagnosis_from_dict,
    diagnosis_to_dict,
    encode_float,
    location_from_dict,
    location_to_dict,
)

#: Schema tag stamped on every serialized incident.
INCIDENT_SCHEMA = "grca-incident/1"


def incident_to_dict(incident) -> Dict[str, Any]:
    """One :class:`~repro.incident.aggregate.Incident` as a JSON dict."""
    document = incident_envelope(incident)
    if incident.example is not None:
        document["example"] = diagnosis_to_dict(incident.example)
    return document


def incident_envelope(incident) -> Dict[str, Any]:
    """:func:`incident_to_dict` up to its last key, ``example``: what
    changes from one revision to the next."""
    return {
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


def _integer(value: Any, name: str) -> int:
    """A count as written: a JSON integer, which ``true`` and ``2.9``
    are not."""
    if value.__class__ is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def incident_from_dict(data: Dict[str, Any]):
    """Rebuild an :class:`Incident` from :func:`incident_to_dict` output.

    Raises :class:`ValueError` on any malformed payload — wrong or
    missing schema tag, truncated documents, bad embedded diagnosis,
    an ``open`` that is not a JSON boolean, a ``flap_count`` /
    ``revision`` / ``degraded_count`` that is not a JSON integer —
    matching the diagnosis decoder's contract.
    """
    from .aggregate import Incident  # local import: aggregate imports this

    if not isinstance(data, dict):
        raise ValueError(
            f"incident payload must be a JSON object, got {type(data).__name__}"
        )
    schema = data.get("schema")
    if schema != INCIDENT_SCHEMA:
        raise ValueError(
            f"unsupported incident schema {schema!r}; "
            f"expected {INCIDENT_SCHEMA!r}"
        )
    try:
        window = data["window"]
        confidence = data["confidence"]
        is_open = data["open"]
        if is_open.__class__ is not bool:
            raise ValueError(f"open must be true or false, got {is_open!r}")
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
            flap_count=_integer(data["flap_count"], "flap_count"),
            revision=_integer(data["revision"], "revision"),
            open=is_open,
            confidence_total=decode_float(confidence["total"]),
            confidence_min=decode_float(confidence["min"]),
            degraded_count=_integer(data.get("degraded_count", 0), "degraded_count"),
            gap_sources=tuple(data.get("gap_sources", [])),
            caveats=tuple(data.get("caveats", [])),
            example=example,
        )
    except ValueError:
        raise
    except (KeyError, IndexError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(
            f"malformed {INCIDENT_SCHEMA} payload: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
