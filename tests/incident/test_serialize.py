"""``grca-incident/1`` round-trip and strictness contract."""

import json
import math

import pytest

from repro.incident import (
    INCIDENT_SCHEMA,
    IncidentAggregator,
    incident_from_dict,
    incident_to_dict,
)

from .conftest import diagnosis


def strict_cycle(document):
    """Encode with strict JSON (NaN/Inf forbidden) and decode back."""
    return json.loads(json.dumps(document, allow_nan=False))


def build_incident(**kwargs):
    aggregator = IncidentAggregator(gap_seconds=600.0)
    aggregator.observe(diagnosis(t=1000.0, **kwargs))
    return aggregator.observe(diagnosis(t=1200.0, **kwargs))


class TestRoundTrip:
    def test_schema_tag(self):
        document = incident_to_dict(build_incident())
        assert document["schema"] == INCIDENT_SCHEMA
        assert document["flap_count"] == 2

    def test_round_trip_equal(self):
        incident = build_incident(
            confidence=0.75,
            caveats=("one caveat",),
            gap_sources=("snmp",),
        )
        rebuilt = incident_from_dict(strict_cycle(incident_to_dict(incident)))
        assert rebuilt == incident
        assert rebuilt.example == incident.example
        assert rebuilt.confidence_mean == incident.confidence_mean

    def test_round_trip_without_example(self):
        incident = build_incident()
        document = incident_to_dict(incident)
        del document["example"]
        rebuilt = incident_from_dict(strict_cycle(document))
        assert rebuilt.example is None
        assert rebuilt.incident_id == incident.incident_id

    def test_nan_confidence_survives_strict_json(self):
        # the shared float guard (grca-diagnosis/1's NaN fix) must cover
        # the incident encoder too: a NaN rollup may never leak into a
        # document that json.dumps(allow_nan=False) rejects
        incident = build_incident(confidence=float("nan"))
        document = strict_cycle(incident_to_dict(incident))
        assert document["confidence"]["min"] == "nan"
        rebuilt = incident_from_dict(document)
        assert math.isnan(rebuilt.confidence_min)
        assert math.isnan(rebuilt.confidence_total)


class TestStrictness:
    def test_rejects_non_dict(self):
        with pytest.raises(ValueError, match="JSON object"):
            incident_from_dict([1, 2, 3])

    def test_rejects_wrong_schema(self):
        document = incident_to_dict(build_incident())
        document["schema"] = "grca-incident/999"
        with pytest.raises(ValueError, match="unsupported incident schema"):
            incident_from_dict(document)

    def test_rejects_truncated_payload(self):
        document = incident_to_dict(build_incident())
        del document["window"]
        with pytest.raises(ValueError, match="malformed"):
            incident_from_dict(document)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("open", "false"),  # bool("false") is True
            ("open", 0),
            ("open", None),
            ("flap_count", 2.9),
            ("flap_count", 2.0),
            ("flap_count", True),
            ("flap_count", "2"),
            ("revision", "3"),
            ("revision", 3.0),
            ("revision", False),
            ("degraded_count", True),
            ("degraded_count", 1.5),
            ("degraded_count", None),
        ],
    )
    def test_rejects_malformed_scalars(self, key, value):
        document = strict_cycle(incident_to_dict(build_incident()))
        document[key] = value
        with pytest.raises(ValueError, match=key):
            incident_from_dict(document)

    def test_scalars_decode_as_written(self):
        incident = build_incident(gap_sources=("snmp",))
        document = strict_cycle(incident_to_dict(incident))
        rebuilt = incident_from_dict(document)
        assert rebuilt.open is True and rebuilt.flap_count == 2
        assert rebuilt.revision == 2 and rebuilt.degraded_count == 2
        assert json.dumps(incident_to_dict(rebuilt)) == json.dumps(document)
        del document["degraded_count"]  # optional: absent reads 0
        assert incident_from_dict(document).degraded_count == 0

    def test_rejects_bad_embedded_diagnosis(self):
        document = incident_to_dict(build_incident())
        document["example"] = {"schema": "bogus"}
        with pytest.raises(ValueError):
            incident_from_dict(document)


class TestDeterminism:
    def test_same_stream_encodes_byte_identically(self):
        def run():
            # every revision, encoded when the sink sees it
            revisions = []
            aggregator = IncidentAggregator(
                gap_seconds=600.0,
                sink=lambda incident: revisions.append(
                    json.dumps(
                        incident_to_dict(incident), sort_keys=True, allow_nan=False
                    )
                ),
            )
            for i in range(4):
                aggregator.observe(diagnosis(t=1000.0 + i * 60.0))
            aggregator.advance(5000.0)
            return revisions

        first = run()
        assert len(first) == 5  # four folds and the close
        assert first == run()
