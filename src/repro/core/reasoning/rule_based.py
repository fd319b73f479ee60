"""Rule-based (priority) reasoning (Section II-D.1).

After spatial-temporal correlation places the symptom instance at the
root of the diagnosis graph and diagnostic instances at the other nodes,
the engine "starts from the root, searches through each node (if there
is a diagnostic event instance), and identifies the leaf node with the
maximum priority as the root cause.  In the case of a tie between
different leaf nodes, all of them are output as joint root causes."

"Leaf" here means leaf of the *matched* subgraph: a matched node none of
whose children matched — e.g. "eBGP HTE (due to unknown reasons)" in
Table IV is the HTE node matched with nothing deeper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ...collector.health import FeedState
from ..events import EventInstance
from ..graph import DiagnosisGraph, DiagnosisRule

#: Root-cause label when no diagnostic evidence joined the symptom.
UNKNOWN = "Unknown"

#: Annotated label when evidence may exist but its feed was impaired.
UNKNOWN_DEGRADED = "Unknown (evidence unavailable)"

#: Annotated label when evidence was genuinely absent from healthy feeds.
UNKNOWN_NO_EVIDENCE = "Unknown (no evidence found)"


@dataclass(frozen=True)
class MatchedEvidence:
    """One diagnostic instance joined along one graph edge."""

    rule: DiagnosisRule
    parent_instance: EventInstance
    instance: EventInstance
    depth: int


#: One run: the instances one rule matched out of one parent, at one depth.
Run = Tuple[DiagnosisRule, EventInstance, int, List[EventInstance]]


class Evidence(Sequence[MatchedEvidence]):
    """A diagnosis's matched evidence at rest: runs, not items.

    The walk matches a list of instances per ``(rule, parent)`` edge; a
    run keeps that list under one header.  Runs lie end to end in one
    list — ``rule, parent, depth, count``, then the ``count`` matched
    instances — so a run costs no object of its own, and ``picks``
    (header positions, in order; ``None`` for every run) lets
    :attr:`RuleBasedResult.supporting` take some runs of the same list.
    A :class:`MatchedEvidence` is built only while someone iterates or
    indexes.

    Immutable.  Equality is item-sequence equality, whatever the
    grouping, also against a plain list of items (both directions).
    Pickles as its runs.
    """

    __slots__ = ("_runs", "_picks", "_len")

    def __init__(self, runs: List[Any], picks: Optional[List[int]] = None) -> None:
        """Evidence over ``runs`` (the layout above; not copied, so not
        to be changed after), or over the runs whose headers sit at
        ``picks``, in that order."""
        self._runs = runs
        self._picks = picks
        total = 0
        if picks is None:
            p, end = 0, len(runs)
            while p < end:
                count = runs[p + 3]
                total += count
                p += 4 + count
        else:
            for p in picks:
                total += runs[p + 3]
        self._len = total

    @classmethod
    def of(cls, items: Union["Evidence", Sequence[MatchedEvidence]]) -> "Evidence":
        """``items`` as runs: consecutive items with equal rule, parent
        and depth share one."""
        if items.__class__ is Evidence:
            return items  # type: ignore[return-value]
        runs: List[Any] = []
        head = -1
        for item in items:
            if head >= 0 and runs[head] == item.rule and (
                runs[head + 1] == item.parent_instance and runs[head + 2] == item.depth
            ):
                runs[head + 3] += 1
                runs.append(item.instance)
            else:
                head = len(runs)
                runs += (item.rule, item.parent_instance, item.depth, 1, item.instance)
        return cls(runs) if runs else NO_EVIDENCE

    def __reduce__(self):
        return (Evidence, (self._runs, self._picks))

    def _heads(self) -> List[int]:
        """Header positions of the runs, in order."""
        if self._picks is not None:
            return self._picks
        runs, heads = self._runs, []
        p, end = 0, len(runs)
        while p < end:
            heads.append(p)
            p += 4 + runs[p + 3]
        return heads

    def runs(self) -> List[Run]:
        """``(rule, parent, depth, instances)`` per run, in order."""
        runs = self._runs
        if self._picks is not None:
            return [
                (runs[p], runs[p + 1], runs[p + 2], runs[p + 4:p + 4 + runs[p + 3]])
                for p in self._picks
            ]
        out: List[Run] = []
        p, end = 0, len(runs)
        while p < end:
            stop = p + 4 + runs[p + 3]
            out.append((runs[p], runs[p + 1], runs[p + 2], runs[p + 4:stop]))
            p = stop
        return out

    def offsets(self, part: "Evidence") -> List[int]:
        """Indices into this evidence of ``part``'s items, in ``part``'s
        order.  A part taken from these runs is read off the run
        offsets; one built apart (by hand) is looked up item by item,
        and raises :class:`ValueError` on an item that is not here."""
        if part is self:
            return list(range(self._len))
        runs = self._runs
        if part._runs is runs and self._picks is None:
            first: Dict[int, int] = {}
            p = offset = 0
            while offset < self._len:
                first[p] = offset
                offset += runs[p + 3]
                p += 4 + runs[p + 3]
            return [
                first[p] + k for p in part._heads() for k in range(runs[p + 3])
            ]
        items = list(self)
        return [items.index(item) for item in part]

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def __iter__(self) -> Iterator[MatchedEvidence]:
        for rule, parent, depth, instances in self.runs():
            for instance in instances:
                yield MatchedEvidence(rule, parent, instance, depth)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("evidence index out of range")
        runs = self._runs
        for p in self._heads():
            count = runs[p + 3]
            if index < count:
                instance = runs[p + 4 + index]
                return MatchedEvidence(runs[p], runs[p + 1], instance, runs[p + 2])
            index -= count
        raise AssertionError("unreachable")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Evidence):
            if self._len != other._len:
                return False
            if self._runs is other._runs and self._picks == other._picks:
                return True
            mine, theirs = self.runs(), other.runs()
            if [len(run[3]) for run in mine] == [len(run[3]) for run in theirs]:
                return mine == theirs  # the same grouping: compare run by run
        elif isinstance(other, list):
            if self._len != len(other):
                return False
        else:
            return NotImplemented
        return all(mine == theirs for mine, theirs in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Evidence({list(self)!r})"


#: Evidence of a diagnosis that matched nothing (immutable, so shared).
NO_EVIDENCE = Evidence([])


@dataclass(frozen=True)
class EvidenceGap:
    """One evidence feed found impaired inside a rule's retrieval window.

    The correlation step could not distinguish "the diagnostic event did
    not happen" from "the feed that would have carried it was not
    delivering"; reasoning must therefore discount its conclusion.
    """

    source: str  # collector feed / table name
    state: FeedState  # how impaired the feed was
    start: float  # overlap of the impairment with the window
    end: float
    event: str  # the diagnostic event whose retrieval was affected
    parent_event: str  # the rule's parent (symptom-side) event

    def describe(self) -> str:
        """Human-readable caveat line for ``Diagnosis.explain()``."""
        return (
            f"evidence source {self.source!r} was {self.state.value.upper()} "
            f"during [{self.start:.0f}, {self.end:.0f}] while matching "
            f"{self.event!r} (from {self.parent_event!r})"
        )


#: Confidence penalty per impaired feed, by severity of its worst state.
GAP_PENALTIES: Dict[FeedState, float] = {
    FeedState.LAGGING: 0.10,
    FeedState.DEGRADED: 0.25,
    FeedState.DOWN: 0.40,
}

#: Confidence never drops below this (the symptom itself was observed).
MIN_CONFIDENCE = 0.15


def assess_confidence(gaps: Sequence[EvidenceGap]) -> Tuple[float, List[str]]:
    """Confidence in [MIN_CONFIDENCE, 1.0] plus caveat strings.

    Full confidence with no gaps.  Otherwise each impaired feed charges
    one penalty for its worst observed state — several gaps on the same
    feed do not compound, but several impaired feeds do.
    """
    if not gaps:
        return 1.0, []
    worst: Dict[str, float] = {}
    for gap in gaps:
        penalty = GAP_PENALTIES.get(gap.state, 0.25)
        worst[gap.source] = max(worst.get(gap.source, 0.0), penalty)
    confidence = max(MIN_CONFIDENCE, round(1.0 - sum(worst.values()), 2))
    caveats = [gap.describe() for gap in gaps]
    return confidence, caveats


@dataclass
class RuleBasedResult:
    """Outcome of priority reasoning for one symptom."""

    root_causes: List[str]
    priority: int
    #: the winning nodes' runs of the evidence (a list of items given
    #: here is grouped into runs)
    supporting: Evidence

    def __post_init__(self) -> None:
        if self.supporting.__class__ is not Evidence:
            self.supporting = Evidence.of(self.supporting)

    @property
    def primary(self) -> str:
        """Single label for breakdowns: first cause, or ``Unknown``."""
        return self.root_causes[0] if self.root_causes else UNKNOWN


def reason(
    graph: DiagnosisGraph, evidence: Union[Evidence, Sequence[MatchedEvidence]]
) -> RuleBasedResult:
    """Apply max-priority leaf selection to correlated evidence, per run."""
    evidence = Evidence.of(evidence)
    runs, heads = evidence._runs, evidence._heads()
    by_node: Dict[str, List[int]] = {}
    for p in heads:
        by_node.setdefault(runs[p].child_event, []).append(p)

    # a matched node none of whose children matched, by its best
    # root-cause priority
    leaves: Dict[str, int] = {}
    for node in by_node:
        if any(rule.child_event in by_node for rule in graph.rules_from(node)):
            continue
        for p in by_node[node]:
            rule = runs[p]
            if rule.is_root_cause and (node not in leaves or rule.priority > leaves[node]):
                leaves[node] = rule.priority

    if not leaves:
        # nothing matched, or only corroborating evidence did
        return RuleBasedResult(root_causes=[], priority=0, supporting=evidence)
    best = max(leaves.values())
    winners = sorted([node for node in leaves if leaves[node] == best])
    # the winners' runs, out of the same list: all of it, in order, is
    # the evidence itself
    picks = [p for node in winners for p in by_node[node]]
    supporting = evidence if picks == heads else Evidence(runs, picks)
    return RuleBasedResult(winners, best, supporting)
