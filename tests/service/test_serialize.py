"""Diagnosis JSON round-trip (``grca-diagnosis/1``): unit shapes plus
regression over real scenario outputs (bgp_flaps / cdn / pim).

The HTTP gateway serves ``Diagnosis.to_json()`` documents over the
wire; this suite is the contract that ``from_json`` rebuilds *equal*
diagnoses — including evidence gaps, caveats, tuple-valued info and
infinite footprint bounds — through a strict-JSON encode/decode cycle.
"""

import json

import pytest

from repro.collector.health import FeedState
from repro.core.engine import Diagnosis
from repro.core.events import EventInstance
from repro.core.locations import Location, LocationType
from repro.core.graph import DiagnosisRule
from repro.core.reasoning.rule_based import (
    EvidenceGap,
    MatchedEvidence,
    RuleBasedResult,
)
from repro.core.serialize import (
    DIAGNOSIS_SCHEMA,
    diagnosis_from_dict,
    diagnosis_to_dict,
    instance_from_dict,
    instance_to_dict,
)
from repro.core.spatial import JoinLevel, SpatialJoinRule
from repro.core.temporal import ExpandOption, TemporalExpansion, TemporalJoinRule


def strict_cycle(document):
    """Encode with strict JSON (NaN/Inf forbidden) and decode back."""
    return json.loads(json.dumps(document, allow_nan=False))


def make_rule(parent="s", child="a", priority=10, note=""):
    expansion = TemporalExpansion(ExpandOption.START_END, 30.0, 30.0)
    return DiagnosisRule(
        parent_event=parent,
        child_event=child,
        temporal=TemporalJoinRule(expansion, expansion),
        spatial=SpatialJoinRule(
            LocationType.ROUTER, LocationType.ROUTER, JoinLevel.ROUTER
        ),
        priority=priority,
        note=note,
    )


def make_instance(name="s", start=1000.0, router="nyc-per1", **info):
    return EventInstance.make(
        name, start, start + 5.0, Location.router(router), **info
    )


class TestInstanceRoundTrip:
    def test_plain_instance(self):
        instance = make_instance()
        assert instance_from_dict(strict_cycle(instance_to_dict(instance))) == instance

    def test_info_preserves_tuples_and_nesting(self):
        instance = make_instance(
            "s",
            path=("nyc-per1", "chi-per1"),
            counts=[1, 2, 3],
            nested={"pair": (1.5, "x"), "flat": "y"},
        )
        rebuilt = instance_from_dict(strict_cycle(instance_to_dict(instance)))
        assert rebuilt == instance
        info = dict(rebuilt.info)
        assert info["path"] == ("nyc-per1", "chi-per1")  # tuple, not list
        assert info["counts"] == [1, 2, 3]
        assert info["nested"]["pair"] == (1.5, "x")


class TestFloatGuard:
    def test_non_finite_floats_round_trip(self):
        import math

        from repro.core.serialize import decode_float, encode_float

        assert encode_float(float("inf")) == "inf"
        assert encode_float(float("-inf")) == "-inf"
        assert encode_float(float("nan")) == "nan"
        assert encode_float(1.5) == 1.5
        assert decode_float("inf") == float("inf")
        assert decode_float("-inf") == float("-inf")
        assert math.isnan(decode_float("nan"))
        assert decode_float(1.5) == 1.5


class TestDiagnosisRoundTrip:
    def make_diagnosis(self, **overrides):
        symptom = make_instance("s")
        cause = make_instance("a", start=990.0, reason="card reset")
        deep = make_instance("b", start=985.0)
        edge_sa = MatchedEvidence(make_rule("s", "a"), symptom, cause, depth=1)
        edge_ab = MatchedEvidence(make_rule("a", "b", 20), cause, deep, depth=2)
        evidence = [edge_sa, edge_ab]
        fields = dict(
            symptom=symptom,
            evidence=evidence,
            result=RuleBasedResult(
                root_causes=["b"], priority=20, supporting=[edge_ab]
            ),
            footprint=(("ta", 960.0, 1030.0), ("tb", 955.0, 1030.0)),
        )
        fields.update(overrides)
        return Diagnosis(**fields)

    def test_plain_diagnosis(self):
        diagnosis = self.make_diagnosis()
        rebuilt = diagnosis_from_dict(strict_cycle(diagnosis_to_dict(diagnosis)))
        assert rebuilt == diagnosis
        assert rebuilt.result.supporting == [diagnosis.evidence[1]]

    def test_gaps_and_caveats_survive(self):
        gap = EvidenceGap(
            source="syslog",
            state=FeedState.DEGRADED,
            start=960.0,
            end=1030.0,
            event="a",
            parent_event="s",
        )
        diagnosis = self.make_diagnosis(
            gaps=[gap], confidence=0.75, caveats=[gap.describe()]
        )
        rebuilt = diagnosis_from_dict(strict_cycle(diagnosis_to_dict(diagnosis)))
        assert rebuilt == diagnosis
        assert rebuilt.gaps == [gap]
        assert rebuilt.gaps[0].state is FeedState.DEGRADED
        assert rebuilt.caveats == [gap.describe()]
        assert rebuilt.confidence == 0.75

    def test_infinite_footprint_bounds_are_strict_json(self):
        diagnosis = self.make_diagnosis(
            footprint=(("ta", float("-inf"), float("inf")),)
        )
        document = strict_cycle(diagnosis_to_dict(diagnosis))  # must not raise
        assert document["footprint"] == [["ta", "-inf", "inf"]]
        rebuilt = diagnosis_from_dict(document)
        assert rebuilt.footprint == (("ta", float("-inf"), float("inf")),)
        assert rebuilt == diagnosis

    def test_infinite_gap_bounds_are_strict_json(self):
        gap = EvidenceGap(
            source="snmp", state=FeedState.DOWN,
            start=float("-inf"), end=float("inf"),
            event="b", parent_event="a",
        )
        diagnosis = self.make_diagnosis(gaps=[gap], confidence=0.6)
        rebuilt = diagnosis_from_dict(strict_cycle(diagnosis_to_dict(diagnosis)))
        assert rebuilt.gaps == [gap]

    def test_nan_values_are_strict_json(self):
        # regression: the float guard once special-cased only +/-inf, so
        # a NaN (e.g. a degenerate confidence rollup) leaked a raw float
        # that json.dumps(allow_nan=False) rejects
        import math

        nan = float("nan")
        gap = EvidenceGap(
            source="snmp", state=FeedState.DOWN,
            start=nan, end=nan, event="b", parent_event="a",
        )
        diagnosis = self.make_diagnosis(
            gaps=[gap],
            confidence=nan,
            footprint=(("ta", nan, 1030.0),),
        )
        document = strict_cycle(diagnosis_to_dict(diagnosis))  # must not raise
        assert document["confidence"] == "nan"
        assert document["footprint"] == [["ta", "nan", 1030.0]]
        rebuilt = diagnosis_from_dict(document)
        assert math.isnan(rebuilt.confidence)
        assert math.isnan(rebuilt.gaps[0].start)
        assert math.isnan(rebuilt.footprint[0][1])

    def test_unexplained_diagnosis(self):
        diagnosis = Diagnosis(
            symptom=make_instance("s"),
            evidence=[],
            result=RuleBasedResult(root_causes=[], priority=0, supporting=[]),
        )
        document = strict_cycle(diagnosis_to_dict(diagnosis))
        assert document["is_explained"] is False
        assert diagnosis_from_dict(document) == diagnosis

    def test_flat_consumer_fields(self):
        document = diagnosis_to_dict(self.make_diagnosis())
        assert document["schema"] == DIAGNOSIS_SCHEMA
        assert document["annotated_cause"] == "b"
        assert document["is_explained"] is True

    def test_wrong_schema_rejected(self):
        document = diagnosis_to_dict(self.make_diagnosis())
        document["schema"] = "grca-diagnosis/999"
        with pytest.raises(ValueError, match="unsupported diagnosis schema"):
            diagnosis_from_dict(document)
        with pytest.raises(ValueError, match="unsupported diagnosis schema"):
            diagnosis_from_dict({})

    def test_to_json_from_json_methods(self):
        diagnosis = self.make_diagnosis()
        assert Diagnosis.from_json(strict_cycle(diagnosis.to_json())) == diagnosis


class TestScenarioRegression:
    """Every diagnosis a real application produces must round-trip.

    Scenario sizes are trimmed for CI speed but cover the three stock
    applications with distinct rule graphs, location types and info
    payloads.
    """

    def roundtrip_all(self, result, app_cls, app_name):
        app = app_cls.build(result.platform())
        symptoms = app.find_symptoms(result.start, result.end)
        assert symptoms, f"{app_name}: scenario produced no symptoms"
        diagnoses = app.engine.diagnose_all(symptoms)
        explained = 0
        for diagnosis in diagnoses:
            rebuilt = Diagnosis.from_json(strict_cycle(diagnosis.to_json()))
            assert rebuilt == diagnosis, f"{app_name}: round-trip drift"
            explained += diagnosis.is_explained
        assert explained, f"{app_name}: nothing explained, test is vacuous"

    def test_bgp_flaps(self):
        from repro.apps import BgpFlapApp
        from repro.simulation import bgp_month
        from repro.topology import TopologyParams

        result = bgp_month(
            total_flaps=12, seed=5, duration_days=4,
            params=TopologyParams(
                n_pops=3, pers_per_pop=2, customers_per_per=3, seed=5
            ),
        )
        self.roundtrip_all(result, BgpFlapApp, "bgp_flaps")

    def test_cdn(self):
        from repro.apps import CdnApp
        from repro.simulation import cdn_month
        from repro.topology import TopologyParams

        result = cdn_month(
            total_degradations=10, seed=7, duration_days=4, n_clients=6,
            params=TopologyParams(
                n_pops=3, pers_per_pop=2, customers_per_per=3,
                cdn_pops=("nyc",), peering_pops=("chi",), seed=7,
            ),
        )
        self.roundtrip_all(result, CdnApp, "cdn")

    def test_pim(self):
        from repro.apps import PimApp
        from repro.simulation import pim_fortnight
        from repro.topology import TopologyParams

        result = pim_fortnight(
            total_changes=10, seed=9, duration_days=4,
            params=TopologyParams(
                n_pops=3, pers_per_pop=2, customers_per_per=3, seed=9
            ),
        )
        self.roundtrip_all(result, PimApp, "pim")


class TestMalformedPayloads:
    """Every malformed payload fails with ValueError, never KeyError."""

    def make_document(self):
        symptom = make_instance("s")
        cause = make_instance("a", start=990.0)
        edge = MatchedEvidence(make_rule("s", "a"), symptom, cause, depth=1)
        diagnosis = Diagnosis(
            symptom=symptom,
            evidence=[edge],
            result=RuleBasedResult(
                root_causes=["a"], priority=10, supporting=[edge]
            ),
            footprint=(("ta", 960.0, 1030.0),),
        )
        return strict_cycle(diagnosis_to_dict(diagnosis))

    def test_wrong_format_tag(self):
        document = self.make_document()
        document["schema"] = "grca-diagnosis/999"
        with pytest.raises(ValueError, match="unsupported diagnosis schema"):
            diagnosis_from_dict(document)

    def test_missing_format_tag(self):
        document = self.make_document()
        del document["schema"]
        with pytest.raises(ValueError, match="unsupported diagnosis schema"):
            diagnosis_from_dict(document)

    def test_non_dict_payload(self):
        with pytest.raises(ValueError, match="must be a JSON object"):
            diagnosis_from_dict(["not", "a", "diagnosis"])

    @pytest.mark.parametrize("dropped", ["symptom", "result"])
    def test_truncated_payload(self, dropped):
        document = self.make_document()
        del document[dropped]
        with pytest.raises(ValueError, match="malformed grca-diagnosis/1"):
            diagnosis_from_dict(document)

    @pytest.mark.parametrize(
        "dropped", ["rule", "parent_instance", "instance", "depth"]
    )
    def test_missing_evidence_fields(self, dropped):
        document = self.make_document()
        del document["evidence"][0][dropped]
        with pytest.raises(ValueError, match="malformed grca-diagnosis/1"):
            diagnosis_from_dict(document)

    def test_missing_instance_fields_inside_evidence(self):
        document = self.make_document()
        del document["evidence"][0]["instance"]["location"]
        with pytest.raises(ValueError, match="malformed grca-diagnosis/1"):
            diagnosis_from_dict(document)

    def test_dangling_supporting_index(self):
        document = self.make_document()
        document["result"]["supporting"] = [5]
        with pytest.raises(ValueError, match="supporting indices.*out of range"):
            diagnosis_from_dict(document)

    def test_boolean_supporting_index(self):
        # ``true == 1`` in Python: once read as item 1, re-encoded as ``1``
        document = self.make_document()
        document["result"]["supporting"] = [True]
        with pytest.raises(ValueError, match="supporting indices.*not all integers"):
            diagnosis_from_dict(document)

    def test_repeated_supporting_index(self):
        # the engine never supports with one item twice; runs cannot hold it
        document = self.make_document()
        document["result"]["supporting"] = [0, 0]
        with pytest.raises(ValueError, match="supporting indices.*repeat 0"):
            diagnosis_from_dict(document)

    def test_from_json_raises_the_same_way(self):
        document = self.make_document()
        del document["result"]
        with pytest.raises(ValueError, match="malformed grca-diagnosis/1"):
            Diagnosis.from_json(document)

    def test_valid_document_still_decodes(self):
        rebuilt = diagnosis_from_dict(self.make_document())
        assert rebuilt.primary_cause == "a"
