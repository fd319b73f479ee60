"""Tests for per-application event redefinition and engine parameters.

Section II-A: "any event defined in the Knowledge Library can be
redefined by an application", e.g. re-thresholding link congestion to
90% for a throughput analysis.  Two mechanisms exist: engine ``params``
(threshold pushdown into the shared retrieval) and a scoped library
``override`` (a wholly different retrieval).  Both must stay local to
the application.
"""

import pytest

from repro.collector import DataCollector
from repro.collector.sources.snmp import render_snmp_row
from repro.core.engine import EngineConfig, RcaEngine
from repro.core.events import EventDefinition, EventInstance, RetrievalContext
from repro.core.graph import DiagnosisGraph
from repro.core.knowledge import KnowledgeLibrary, names
from repro.core.locations import Location, LocationType

BASE = 1262692800.0


@pytest.fixture
def collector():
    c = DataCollector()
    c.ingest("snmp", [
        render_snmp_row(BASE, "r1", "link_util", "se0/0", 85.0),
        render_snmp_row(BASE, "r1", "link_util", "se0/1", 95.0),
    ])
    return c


def retrieve_congestion(collector, kb_events, **params):
    context = RetrievalContext(
        store=collector.store, start=BASE - 3600, end=BASE + 3600, params=params
    )
    return kb_events.get(names.LINK_CONGESTION).retrieve(context)


class TestParamOverride:
    def test_default_threshold_80(self, collector):
        kb = KnowledgeLibrary()
        instances = retrieve_congestion(collector, kb.events)
        assert len(instances) == 2

    def test_app_raises_threshold_to_90(self, collector):
        """The paper's web-hosting example: >= 90% utilization."""
        kb = KnowledgeLibrary()
        instances = retrieve_congestion(
            collector, kb.events, link_congestion_threshold=90.0
        )
        assert [i.location.value for i in instances] == ["r1:se0/1"]

    def test_engine_params_flow_into_retrievals(self, collector, resolver):
        kb = KnowledgeLibrary()
        graph = DiagnosisGraph(symptom_event=names.LINK_LOSS)
        graph.add_rule(kb.rules.rule(names.LINK_LOSS, names.LINK_CONGESTION, 10))
        engine = RcaEngine(
            graph, kb.events, resolver, collector.store,
            EngineConfig(params={"link_congestion_threshold": 90.0}),
        )
        # symptom at the 85% interface: its congestion is below the
        # app's stricter threshold, so no evidence joins
        symptom = EventInstance.make(
            names.LINK_LOSS, BASE - 150, BASE,
            Location.interface("r1:se0/0"),
        )
        diagnosis = engine.diagnose(symptom)
        assert diagnosis.primary_cause == "Unknown"


class TestScopedOverride:
    def test_override_stays_local_to_the_app(self, collector):
        kb = KnowledgeLibrary()
        app_events = kb.scoped_events()

        def stricter(context):
            base = kb.events.get(names.LINK_CONGESTION)
            for row in base.retrieve(context).rows():
                if dict(row[3]).get("value", 0) >= 90.0:
                    yield row

        app_events.override(
            EventDefinition(
                names.LINK_CONGESTION, LocationType.INTERFACE, stricter,
                ">= 90% link utilization", "SNMP",
            )
        )
        app_instances = retrieve_congestion(collector, app_events)
        shared_instances = retrieve_congestion(collector, kb.events)
        assert len(app_instances) == 1
        assert len(shared_instances) == 2  # the shared library is untouched

    def test_two_apps_do_not_interfere(self, collector):
        kb = KnowledgeLibrary()
        app_a = kb.scoped_events()
        app_b = kb.scoped_events()
        app_a.override(
            EventDefinition(
                names.LINK_CONGESTION, LocationType.INTERFACE,
                lambda context: [], "disabled", "SNMP",
            )
        )
        assert len(retrieve_congestion(collector, app_a)) == 0
        assert len(retrieve_congestion(collector, app_b)) == 2
