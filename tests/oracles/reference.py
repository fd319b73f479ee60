"""A reference RCA engine, written to be obvious rather than fast.

``RcaEngine`` retrieves bucketed, coalesced, cached cover windows, joins
them with bisects over sorted columns and memoized per-location
expansions, and caps matches inside a columnar spatial stage.  This
module is what all of that must be equal to: for every rule out of
every matched instance, look at *every* instance of the child event
there is, keep those the rule's public scalar ``temporal.joined`` and
``spatial.joined`` both accept, stop at the cap, walk on level by
level, and hand the evidence to ``reason()``.

No search windows, no covers, no retrieval cache, no columns: each
event is retrieved once over the whole span of the store.  Build a new
reference engine whenever the store has changed.
"""

from dataclasses import dataclass
from typing import Dict, List

from repro.core.engine import Diagnosis, RcaEngine
from repro.core.events import EventInstance, RetrievalContext
from repro.core.reasoning.rule_based import (
    MatchedEvidence,
    RuleBasedResult,
    reason,
)

#: how far past the first/last stored record a retrieval may look; only
#: has to exceed any lookback an event definition applies to its window
SPAN_MARGIN = 7 * 86400.0


@dataclass
class ReferenceDiagnosis:
    """The conclusions of a diagnosis: evidence (in order) and result."""

    symptom: EventInstance
    evidence: List[MatchedEvidence]
    result: RuleBasedResult


class ReferenceEngine:
    """Nested-loop correlation over whole-span retrievals."""

    def __init__(self, engine: RcaEngine) -> None:
        """Mirror ``engine``: same graph, events, resolver, store, config."""
        self.graph = engine.graph
        self.library = engine.library
        self.resolver = engine.resolver
        self.store = engine.store
        self.config = engine.config
        self._instances: Dict[str, List[EventInstance]] = {}

    def instances_of(self, event_name: str) -> List[EventInstance]:
        """Every instance of one event, sorted by ``(start, end)``."""
        if event_name not in self._instances:
            spans = [
                table.time_span
                for table in self.store.tables.values()
                if table.time_span is not None
            ]
            context = RetrievalContext(
                store=self.store,
                start=min(lo for lo, _hi in spans) - SPAN_MARGIN,
                end=max(hi for _lo, hi in spans) + SPAN_MARGIN,
                params=self.config.params,
                services=self.config.services,
            )
            self._instances[event_name] = list(
                self.library.get(event_name).retrieve(context)
            )
        return self._instances[event_name]

    def matches(self, rule, parent: EventInstance) -> List[EventInstance]:
        """Instances joining ``parent`` under ``rule``, capped, in order."""
        matched = []
        for instance in self.instances_of(rule.child_event):
            if len(matched) == self.config.max_matches_per_rule:
                break
            if rule.temporal.joined(
                parent.interval, instance.interval
            ) and rule.spatial.joined(
                self.resolver, parent.location, instance.location, parent.start
            ):
                matched.append(instance)
        return matched

    def diagnose(self, symptom: EventInstance) -> ReferenceDiagnosis:
        """Walk the graph level by level from one symptom, then reason."""
        evidence: List[MatchedEvidence] = []
        expanded = set()
        level = [(self.graph.symptom_event, symptom)]
        depth = 0
        while level:
            depth += 1
            next_level = []
            for event_name, parent in level:
                for rule in self.graph.rules_from(event_name):
                    for instance in self.matches(rule, parent):
                        evidence.append(
                            MatchedEvidence(rule, parent, instance, depth)
                        )
                        # an instance reached along two edges is evidence
                        # twice but is expanded once
                        if (rule.child_event, instance) not in expanded:
                            expanded.add((rule.child_event, instance))
                            next_level.append((rule.child_event, instance))
            level = next_level
        return ReferenceDiagnosis(symptom, evidence, reason(self.graph, evidence))


def assert_agrees(diagnosis: Diagnosis, reference: ReferenceDiagnosis) -> None:
    """The engine reached the reference's evidence, order and verdict."""
    assert diagnosis.symptom == reference.symptom
    assert diagnosis.evidence == reference.evidence
    assert diagnosis.result == reference.result
