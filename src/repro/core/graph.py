"""Diagnosis graphs (Section II-C, Figs. 4-6).

A diagnosis graph has the symptom event at its root and diagnostic
events at the other nodes.  Each edge is a *diagnosis rule*: the pair of
parent and child events together with their temporal and spatial joining
rules and a priority used by rule-based reasoning.  Deeper nodes are
deeper causes ("line protocol flap is typically caused by interface
flap, [so] the priority for interface flap is higher").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from .spatial import SpatialJoinRule
from .temporal import TemporalJoinRule


@dataclass(frozen=True)
class DiagnosisRule:
    """One edge: parent (symptom side) event -> child (diagnostic) event."""

    parent_event: str
    child_event: str
    temporal: TemporalJoinRule
    spatial: SpatialJoinRule
    priority: int = 0
    #: True when the child event, if deepest matched, names a root cause;
    #: False marks purely corroborating evidence that should never be
    #: reported as a cause by itself.
    is_root_cause: bool = True
    note: str = ""
    #: its shared ``grca-diagnosis/1`` document, once something encoded
    #: it (``repro.core.serialize.rule_to_dict``)
    _document: Optional[dict] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __getstate__(self) -> Dict[str, Any]:
        # a copy, or another process, starts without this process's memo
        state = dict(self.__dict__)
        state.pop("_document", None)
        return state


class GraphError(ValueError):
    """Raised for malformed diagnosis graphs."""


@dataclass
class DiagnosisGraph:
    """Symptom event at the root, diagnosis rules as edges."""

    symptom_event: str
    name: str = ""
    _rules_from: Dict[str, List[DiagnosisRule]] = field(default_factory=dict)
    #: bumped by every successful :meth:`add_rule`; an engine compares
    #: it with the revision it compiled its plan at
    revision: int = field(default=0, init=False, compare=False, repr=False)

    def add_rule(self, rule: DiagnosisRule) -> DiagnosisRule:
        """Add an edge; parent must already be reachable from the root."""
        if rule.parent_event != self.symptom_event and not self._reachable(
            rule.parent_event
        ):
            raise GraphError(
                f"parent event {rule.parent_event!r} is not reachable from "
                f"symptom {self.symptom_event!r}; add its rule first"
            )
        if rule.child_event == self.symptom_event:
            raise GraphError("the symptom event cannot be a diagnostic node")
        self._rules_from.setdefault(rule.parent_event, []).append(rule)
        if self._has_cycle():
            self._rules_from[rule.parent_event].remove(rule)
            raise GraphError(
                f"rule {rule.parent_event!r} -> {rule.child_event!r} creates a cycle"
            )
        self.revision += 1
        return rule

    # ------------------------------------------------------------------

    def rules_from(self, event: str) -> List[DiagnosisRule]:
        """Outgoing diagnosis rules of one event node."""
        return list(self._rules_from.get(event, []))

    def all_rules(self) -> List[DiagnosisRule]:
        """Every rule in the graph, in insertion order."""
        return [rule for rules in self._rules_from.values() for rule in rules]

    def events(self) -> Set[str]:
        """All event names in the graph, including the symptom."""
        names = {self.symptom_event}
        for rules in self._rules_from.values():
            for rule in rules:
                names.add(rule.parent_event)
                names.add(rule.child_event)
        return names

    def diagnostic_events(self) -> Set[str]:
        """All event names except the symptom."""
        return self.events() - {self.symptom_event}

    def leaves(self) -> Set[str]:
        """Nodes with no outgoing rules — the deepest causes modelled."""
        return {event for event in self.events() if not self._rules_from.get(event)}

    def fingerprint(self) -> str:
        """Stable content hash of the graph (the cache's "revision").

        Two graphs with the same symptom, name and rule set (including
        temporal/spatial join parameters and priorities) produce the
        same fingerprint; editing any rule changes it, so service-layer
        result caches keyed on the fingerprint never serve a diagnosis
        computed under a different rule set.
        """
        digest = hashlib.sha256()
        digest.update(f"{self.name}|{self.symptom_event}".encode())
        lines = [
            (
                f"{rule.parent_event}->{rule.child_event}"
                f"|p{rule.priority}|rc{int(rule.is_root_cause)}"
                f"|{rule.temporal!r}|{rule.spatial!r}"
            )
            for rule in self.all_rules()
        ]
        for line in sorted(lines):
            digest.update(line.encode())
        return digest.hexdigest()[:16]

    def rule_for_edge(self, parent: str, child: str) -> Optional[DiagnosisRule]:
        """The rule on a (parent, child) edge, or None."""
        for rule in self._rules_from.get(parent, []):
            if rule.child_event == child:
                return rule
        return None

    def depth_of(self, event: str) -> int:
        """Longest path length from the symptom to ``event`` (root = 0)."""
        depths = {self.symptom_event: 0}
        for parent in self._topological_order():
            for rule in self._rules_from.get(parent, []):
                candidate = depths.get(parent, 0) + 1
                if candidate > depths.get(rule.child_event, -1):
                    depths[rule.child_event] = candidate
        if event not in depths:
            raise GraphError(f"event {event!r} is not in the graph")
        return depths[event]

    # ------------------------------------------------------------------

    def _reachable(self, event: str) -> bool:
        seen = {self.symptom_event}
        stack = [self.symptom_event]
        while stack:
            node = stack.pop()
            if node == event:
                return True
            for rule in self._rules_from.get(node, []):
                if rule.child_event not in seen:
                    seen.add(rule.child_event)
                    stack.append(rule.child_event)
        return event in seen

    def _topological_order(self) -> List[str]:
        order: List[str] = []
        state: Dict[str, int] = {}

        def visit(node: str) -> None:
            state[node] = 1
            for rule in self._rules_from.get(node, []):
                if state.get(rule.child_event, 0) == 0:
                    visit(rule.child_event)
            state[node] = 2
            order.append(node)

        visit(self.symptom_event)
        for node in list(self._rules_from):
            if state.get(node, 0) == 0:
                visit(node)
        return list(reversed(order))

    def _has_cycle(self) -> bool:
        state: Dict[str, int] = {}

        def visit(node: str) -> bool:
            state[node] = 1
            for rule in self._rules_from.get(node, []):
                child_state = state.get(rule.child_event, 0)
                if child_state == 1:
                    return True
                if child_state == 0 and visit(rule.child_event):
                    return True
            state[node] = 2
            return False

        for node in list(self._rules_from):
            if state.get(node, 0) == 0 and visit(node):
                return True
        return False
