"""The Generic RCA Engine (Fig. 1).

For each symptom event instance the engine walks the application's
diagnosis graph breadth-first (genuinely level-order): for every rule
out of a matched node it retrieves candidate diagnostic instances from
the store (bounded by the temporal rule's search window), keeps those
that join temporally *and* spatially with the matched parent instance,
and recurses.  Before each frontier level is evaluated, a batched
retrieval planner (:meth:`RcaEngine._plan_level`) coalesces the
overlapping windows sibling rules are about to request per event, so
one store round-trip serves the whole level instead of one per (rule,
parent).  The collected evidence then goes to the reasoning module
(rule-based by default) to pick the root cause(s).

Read observation (``store-query`` tracing spans and the footprint
records the service cache invalidates on) rides the single
:class:`~repro.collector.store.ReadObserver` seam rather than dedicated
proxy classes.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from typing import Set

from ..collector.health import HealthRegistry, canonical_source
from ..collector.store import (
    DataStore,
    FootprintObserver,
    ObservedStore,
    ReadObserver,
    TraceObserver,
)
from ..obs.trace import NULL_TRACER, Span, Tracer
from .events import EventInstance, EventLibrary, RetrievalContext
from .graph import DiagnosisGraph
from .locations import Location
from .reasoning.rule_based import (
    UNKNOWN,
    UNKNOWN_DEGRADED,
    UNKNOWN_NO_EVIDENCE,
    EvidenceGap,
    MatchedEvidence,
    RuleBasedResult,
    assess_confidence,
    reason,
)
from .spatial import LocationResolver
from .temporal import IntervalColumns

#: One recorded store read: (table name, window start, window end).
#: ``-inf``/``inf`` bounds mean an unbounded scan of that table.
FootprintEntry = Tuple[str, float, float]


def merge_footprint(reads: Iterable[FootprintEntry]) -> Tuple[FootprintEntry, ...]:
    """Coalesce raw read records into per-table disjoint windows."""
    by_table: Dict[str, List[Tuple[float, float]]] = {}
    for table, lo, hi in reads:
        by_table.setdefault(table, []).append((lo, hi))
    merged: List[FootprintEntry] = []
    for table in sorted(by_table):
        windows = sorted(by_table[table])
        current_lo, current_hi = windows[0]
        for lo, hi in windows[1:]:
            if lo <= current_hi:
                current_hi = max(current_hi, hi)
            else:
                merged.append((table, current_lo, current_hi))
                current_lo, current_hi = lo, hi
        merged.append((table, current_lo, current_hi))
    return tuple(merged)


def footprint_hit(
    reads: Iterable[FootprintEntry], deltas: Dict[str, List[float]]
) -> bool:
    """Whether any delta point lands inside any of the read windows.

    ``deltas`` maps table name to *sorted* record timestamps; one bisect
    per read window.
    """
    for table, lo, hi in reads:
        points = deltas.get(table)
        if points:
            p = bisect.bisect_left(points, lo)
            if p < len(points) and points[p] <= hi:
                return True
    return False


def evidence_sources(graph: DiagnosisGraph, library: EventLibrary) -> Set[str]:
    """Collector feeds backing any event in a diagnosis graph.

    Shared by the streaming engine (watermark deferral) and the service
    scheduler (health-aware job priority): both need to know which
    ingest feeds could carry this application's evidence.
    """
    sources: Set[str] = set()
    for name in graph.events():
        source = canonical_source(library.get(name).data_source)
        if source is not None:
            sources.add(source)
    return sources


#: Retrieval windows are rounded to this bucket so nearby symptoms and
#: sibling rules share retrieval-cache entries.
RETRIEVAL_BUCKET = 60.0


def bucket_window(
    window: Tuple[float, float], bucket: float = RETRIEVAL_BUCKET
) -> Tuple[float, float]:
    """Round a window outward to bucket boundaries.

    The low edge floors, the high edge ceils; a bound already on a
    boundary stays put (no phantom extra bucket), and Python's floor
    modulo keeps the rounding direction correct for negative
    timestamps: ``(-10, -10) -> (-60, 0)`` is a superset, never a
    shifted window.
    """
    lo = window[0] - (window[0] % bucket)
    hi = window[1] + ((-window[1]) % bucket)
    return lo, hi


def coalesce_windows(
    windows: Iterable[Tuple[float, float]]
) -> List[Tuple[float, float]]:
    """Merge overlapping or touching windows into disjoint covers."""
    ordered = sorted(windows)
    if not ordered:
        return []
    merged = [ordered[0]]
    for lo, hi in ordered[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


class CandidateSet:
    """One cached retrieval cover: instances plus lazy join columns.

    The retrieval cache stores these instead of bare instance lists so
    every rule/parent hitting the same cover shares one columnar
    ``(starts, ends)`` build — and, through
    :class:`~repro.core.temporal.IntervalColumns`, one end-sorted
    permutation — for the batch temporal join.
    """

    __slots__ = (
        "instances", "_columns", "_location_parts", "_location_index",
        "_ambiguous_parts", "_expansions",
    )

    def __init__(self, instances: List[EventInstance]) -> None:
        self.instances = instances
        self._columns: Optional[IntervalColumns] = None
        self._location_parts: Optional[List[Tuple[str, ...]]] = None
        self._location_index: Optional[
            Dict[Tuple[str, ...], Tuple[Location, List[int]]]
        ] = None
        self._ambiguous_parts = False
        # (join level, topology generation) -> parts -> expansion, or
        # None when the level/locations are epoch-dynamic
        self._expansions: Dict[
            Tuple[Any, int], Optional[Dict[Tuple[str, ...], FrozenSet[str]]]
        ] = {}

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def columns(self) -> IntervalColumns:
        """Interval arrays of the instances (sorted by start); memoized."""
        if self._columns is None:
            instances = self.instances
            self._columns = IntervalColumns(
                [i.start for i in instances], [i.end for i in instances]
            )
        return self._columns

    @property
    def location_parts(self) -> List[Tuple[str, ...]]:
        """Location identity column of the instances; memoized.

        Storm covers repeat a handful of distinct locations (the same
        links/routers over and over), so the spatial stage keys one
        verdict per parts tuple instead of expanding per candidate.
        """
        if self._location_parts is None:
            self._location_parts = [
                i.location.parts for i in self.instances
            ]
        return self._location_parts

    @property
    def location_index(
        self,
    ) -> Dict[Tuple[str, ...], Tuple[Location, List[int]]]:
        """parts -> (representative location, ascending indices); memoized.

        The inverse of :attr:`location_parts`: which candidate rows
        carry each distinct location.  Index lists are ascending, so a
        contiguous survivor run can be intersected per location with
        two bisects instead of walking every survivor.
        """
        if self._location_index is None:
            index: Dict[Tuple[str, ...], Tuple[Location, List[int]]] = {}
            for k, parts in enumerate(self.location_parts):
                entry = index.get(parts)
                if entry is None:
                    index[parts] = (self.instances[k].location, [k])
                else:
                    entry[1].append(k)
                    if entry[0].type is not self.instances[k].location.type:
                        # same parts under two location types: parts
                        # are not an identity here, fall back
                        self._ambiguous_parts = True
            self._location_index = index
        return self._location_index

    def static_expansions(
        self, resolver, level, timestamp: float
    ) -> Optional[Dict[Tuple[str, ...], FrozenSet[str]]]:
        """Spatial expansions of the distinct locations, if epoch-static.

        Storm workloads join the same cover against dozens of sibling
        symptoms; for epoch-static location columns (links, routers,
        interfaces...) the expansions cannot change within a topology
        generation, so one map computed on first use serves every later
        walk without touching the resolver.  Returns ``None`` — compute
        per evaluation instead — for time-varying location types.
        """
        index = self.location_index
        if self._ambiguous_parts:
            return None
        key = (level, resolver.epoch.topology_generation)
        if key not in self._expansions:
            self._expansions[key] = resolver.expand_static_map(
                (location for location, _ in index.values()), level, timestamp
            )
        return self._expansions[key]


class CoverIndex:
    """Cached cover windows of one event, with O(log n) containment lookup.

    Windows sorted by their low edge plus a running max (and argmax) of
    the high edges: the rightmost cover starting at or before a query's
    low edge bounds the candidates, and the first prefix position whose
    running max reaches the query's high edge names a containing cover.
    Replaces a linear scan that sat on the per-rule hot path and
    degraded as covers accumulated within a job.
    """

    __slots__ = ("_los", "_his", "_max", "_arg")

    def __init__(self) -> None:
        self._los: List[float] = []
        self._his: List[float] = []
        self._max: List[float] = []
        self._arg: List[int] = []

    def __len__(self) -> int:
        return len(self._los)

    def __iter__(self):
        return iter(zip(self._los, self._his))

    def add(self, lo: float, hi: float) -> None:
        """Insert one cover window; O(n - insertion point)."""
        i = bisect.bisect_right(self._los, lo)
        self._los.insert(i, lo)
        self._his.insert(i, hi)
        # rebuild the running max/argmax from the insertion point only:
        # inserts happen once per new retrieval cover, lookups once per
        # (rule, parent)
        del self._max[i:]
        del self._arg[i:]
        best = self._max[-1] if self._max else float("-inf")
        arg = self._arg[-1] if self._arg else -1
        for p in range(i, len(self._his)):
            if self._his[p] > best:
                best = self._his[p]
                arg = p
            self._max.append(best)
            self._arg.append(arg)

    def find(self, lo: float, hi: float) -> Optional[Tuple[float, float]]:
        """A stored cover containing ``[lo, hi]``, or None; O(log n)."""
        i = bisect.bisect_right(self._los, lo) - 1
        if i < 0 or self._max[i] < hi:
            return None
        p = bisect.bisect_left(self._max, hi, 0, i + 1)
        k = self._arg[p]
        return (self._los[k], self._his[k])


@dataclass
class Diagnosis:
    """Everything the engine concluded about one symptom instance."""

    symptom: EventInstance
    evidence: List[MatchedEvidence]
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
        return [e for e in self.evidence if e.rule.child_event == event_name]

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
        for item in sorted(self.evidence, key=lambda e: e.depth):
            marker = "*" if item.rule.child_event in self.result.root_causes else " "
            lines.append(
                f" {marker} depth {item.depth} priority {item.rule.priority:>4} "
                f"{item.rule.parent_event} -> {item.instance}"
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


@dataclass
class EngineConfig:
    """Tunables shared by all diagnoses of one engine instance."""

    #: per-application retrieval parameters (thresholds etc.)
    params: Dict[str, Any] = field(default_factory=dict)
    #: substrate handles passed into retrieval contexts
    services: Dict[str, Any] = field(default_factory=dict)
    #: cap on matched instances per (rule, parent instance) to bound work
    max_matches_per_rule: int = 50
    #: feed-health registry consulted for evidence gaps (None disables)
    health: Optional[HealthRegistry] = None


class RcaEngine:
    """Correlation + reasoning over one diagnosis graph."""

    def __init__(
        self,
        graph: DiagnosisGraph,
        library: EventLibrary,
        resolver: LocationResolver,
        store: DataStore,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.graph = graph
        self.library = library
        self.resolver = resolver
        self.store = store
        self.config = config or EngineConfig()
        self._missing = [
            name for name in graph.events() if name not in library
        ]
        if self._missing:
            raise KeyError(
                f"diagnosis graph references undefined events: {self._missing}"
            )
        # retrieval cache: (event name, cover window) -> candidate set
        self._retrieval_cache: Dict[Tuple[str, float, float], CandidateSet] = {}
        # per cache entry: the store reads that produced it
        self._retrieval_reads: Dict[
            Tuple[str, float, float], frozenset
        ] = {}
        # per event: the cached cover windows, indexed for containment
        self._covers: Dict[str, CoverIndex] = {}
        # accumulator active while one diagnose() call is correlating
        self._active_reads: Optional[set] = None
        #: last store revision this engine's retrieval cache was synced
        #: to (maintained by the owner — service workers use it to drop
        #: exactly the cached windows a late record landed in)
        self.synced_revision: Optional[int] = None

    # ------------------------------------------------------------------

    def diagnose(
        self,
        symptom: EventInstance,
        tracer: Optional[Tracer] = None,
        cancel: Optional[Any] = None,
        max_depth: Optional[int] = None,
    ) -> Diagnosis:
        """Correlate and reason about one symptom instance.

        ``tracer`` opts this diagnosis into span recording: the walk
        gets one ``diagnose`` span with ``node``/``rule``/``retrieve``/
        ``store-query``/``temporal-join``/``spatial-join``/``reason``
        children, and the finished subtree is attached as
        :attr:`Diagnosis.trace`.  With the default ``None`` the no-op
        tracer is used and the hot path is unchanged.

        ``cancel`` is a cooperative cancellation token (anything with a
        ``check()`` that raises to stop — see
        :class:`repro.service.policy.CancellationToken`).  It is checked
        at stage boundaries: each frontier level, each node visit, and
        before every store fetch, so a timed-out diagnosis stops within
        one retrieval instead of running to completion.  ``max_depth``
        caps the exploration depth (evidence *at* the cap is still
        collected; nodes there are not expanded) — the service uses it
        to trim work during brownout.
        """
        if symptom.name != self.graph.symptom_event:
            raise ValueError(
                f"engine diagnoses {self.graph.symptom_event!r} symptoms, "
                f"got {symptom.name!r}"
            )
        tracer = tracer if tracer is not None else NULL_TRACER
        with tracer.span(
            "diagnose", label=symptom.name, symptom=str(symptom),
            graph=self.graph.name,
        ) as root:
            self._active_reads = set()
            try:
                evidence, gaps = self._correlate(
                    symptom, tracer, cancel=cancel, max_depth=max_depth
                )
                footprint = merge_footprint(self._active_reads)
            finally:
                self._active_reads = None
            with tracer.span("reason", label=symptom.name) as span:
                result = reason(self.graph, evidence)
                confidence, caveats = assess_confidence(gaps)
                span.annotate(
                    evidence=len(evidence),
                    root_causes=list(result.root_causes),
                    priority=result.priority,
                    gaps=len(gaps),
                )
            root.annotate(evidence=len(evidence), cause=result.primary)
        return Diagnosis(
            symptom=symptom,
            evidence=evidence,
            result=result,
            gaps=gaps,
            confidence=confidence,
            caveats=caveats,
            footprint=footprint,
            trace=root if tracer.enabled else None,
        )

    def diagnose_all(
        self, symptoms: Iterable[EventInstance], traced: bool = False
    ) -> List[Diagnosis]:
        """Diagnose a sequence of symptom instances in order.

        ``traced=True`` gives every symptom its own fresh
        :class:`~repro.obs.Tracer`, so each returned diagnosis carries
        an independent span tree.
        """
        if not traced:
            return [self.diagnose(symptom) for symptom in symptoms]
        return [self.diagnose(symptom, tracer=Tracer()) for symptom in symptoms]

    # ------------------------------------------------------------------

    def _correlate(
        self,
        symptom: EventInstance,
        tracer=NULL_TRACER,
        cancel: Optional[Any] = None,
        max_depth: Optional[int] = None,
    ) -> Tuple[List[MatchedEvidence], List[EvidenceGap]]:
        evidence: List[MatchedEvidence] = []
        gaps: List[EvidenceGap] = []
        gap_keys: set = set()
        # level entries: (event name, matched instance, depth); the walk
        # is genuinely level-order so the planner can see every window a
        # whole frontier level is about to request before any is issued
        level: List[Tuple[str, EventInstance, int]] = [
            (self.graph.symptom_event, symptom, 0)
        ]
        seen: set = set()
        while level:
            if cancel is not None:
                cancel.check()
            plan = self._plan_level(level)
            next_level: List[Tuple[str, EventInstance, int]] = []
            for event_name, parent_instance, depth in level:
                if cancel is not None:
                    cancel.check()
                # one span per graph-node visit: the trace mirrors the walk
                with tracer.span("node", label=event_name, depth=depth) as node_span:
                    matched_here = 0
                    for rule in self.graph.rules_from(event_name):
                        gaps_before = len(gaps)
                        self._note_gaps(rule, parent_instance, gaps, gap_keys)
                        if len(gaps) > gaps_before:
                            node_span.count("evidence_gaps", len(gaps) - gaps_before)
                        matches = self._match_rule(
                            rule, parent_instance, tracer, plan, cancel
                        )
                        matched_here += len(matches)
                        for instance in matches:
                            key = (rule.child_event, instance)
                            item = MatchedEvidence(
                                rule=rule,
                                parent_instance=parent_instance,
                                instance=instance,
                                depth=depth + 1,
                            )
                            evidence.append(item)
                            if key not in seen:
                                seen.add(key)
                                if max_depth is None or depth + 1 < max_depth:
                                    next_level.append(
                                        (rule.child_event, instance, depth + 1)
                                    )
                    node_span.annotate(matched=matched_here)
            level = next_level
        return evidence, gaps

    def _plan_level(
        self, level: List[Tuple[str, EventInstance, int]]
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Coalesce the retrieval windows one frontier level will want.

        Sibling rules (and sibling parents) frequently request
        overlapping windows of the same diagnostic event; issuing them
        one-by-one means near-duplicate store round-trips.  This pass
        collects every (child event, bucketed search window) the level's
        rules are about to ask for, drops the ones an existing cache
        cover already satisfies, and merges the rest into per-event
        disjoint cover windows.  The first retrieval of an event at this
        level then fetches its whole cover; the siblings hit the cache.

        Only the *prefetch* window widens — temporal/spatial joins still
        filter against each rule's exact window, so matches are
        unchanged except where a wider fetch makes boundary-straddling
        retrievals (e.g. flap pairing) more complete.
        """
        wants: Dict[str, List[Tuple[float, float]]] = {}
        for event_name, parent_instance, _depth in level:
            for rule in self.graph.rules_from(event_name):
                window = bucket_window(
                    rule.temporal.search_window(parent_instance.interval)
                )
                if self._find_cover(rule.child_event, window) is None:
                    wants.setdefault(rule.child_event, []).append(window)
        return {
            event_name: coalesce_windows(windows)
            for event_name, windows in wants.items()
        }

    def _find_cover(
        self, event_name: str, window: Tuple[float, float]
    ) -> Optional[Tuple[float, float]]:
        """A cached cover window containing ``window``, if any."""
        index = self._covers.get(event_name)
        if index is None:
            return None
        return index.find(window[0], window[1])

    def _note_gaps(
        self,
        rule,
        parent_instance: EventInstance,
        gaps: List[EvidenceGap],
        gap_keys: set,
    ) -> None:
        """Record impaired-feed overlaps with this rule's search window.

        A retrieval that comes back empty while the backing feed was
        LAGGING/DEGRADED/DOWN is indistinguishable from genuine absence
        of the diagnostic event, so every overlap is recorded and later
        discounted by :func:`assess_confidence`.
        """
        registry = self.config.health
        if registry is None:
            return
        source = canonical_source(self.library.get(rule.child_event).data_source)
        if source is None:
            return
        lo, hi = rule.temporal.search_window(parent_instance.interval)
        for interval in registry.impaired_intervals(source, lo, hi):
            key = (source, rule.child_event, interval.start)
            if key in gap_keys:
                continue
            gap_keys.add(key)
            end = hi if interval.end is None else min(hi, interval.end)
            gaps.append(
                EvidenceGap(
                    source=source,
                    state=interval.state,
                    start=max(lo, interval.start),
                    end=end,
                    event=rule.child_event,
                    parent_event=rule.parent_event,
                )
            )

    def _match_rule(
        self,
        rule,
        parent_instance: EventInstance,
        tracer=NULL_TRACER,
        plan=None,
        cancel=None,
    ) -> List[EventInstance]:
        """Evaluate one rule against one matched parent instance.

        One path serves traced and untraced evaluation: the span
        contexts are no-ops on the null tracer, and span arguments
        (labels, rule identity strings) are only built when tracing is
        on.  The stages — retrieve the cover's candidate set once, batch
        temporal mask over its sorted interval columns, then the
        columnar spatial join over temporal survivors only,
        materializing matched instances last — are identical either
        way, with the join funnel (``candidates`` /
        ``temporal_survivors`` / ``spatial_survivors``) annotated on the
        ``rule`` span.
        """
        window = rule.temporal.search_window(parent_instance.interval)
        if tracer.enabled:
            label = f"{rule.parent_event} -> {rule.child_event}"
            rule_args = dict(
                label=label,
                priority=rule.priority,
                temporal=rule.temporal.describe(),
                spatial=rule.spatial.describe(),
                window=[window[0], window[1]],
            )
            stage_args = dict(label=label)
            trace = tracer
        else:
            rule_args = {}
            stage_args = {}
            trace = None
        with tracer.span("rule", **rule_args) as rule_span:
            candidates = self._retrieve(
                rule.child_event, window, tracer, plan, cancel
            )
            with tracer.span("temporal-join", **stage_args) as span:
                survivors = rule.temporal.joined_batch(
                    parent_instance.interval, candidates.columns
                )
                span.annotate(candidates=len(candidates), joined=len(survivors))
            with tracer.span("spatial-join", **stage_args) as span:
                batch = rule.spatial.batch(
                    self.resolver,
                    parent_instance.location,
                    parent_instance.start,
                    trace=trace,
                )
                matched = self._spatial_stage(
                    rule, parent_instance, candidates, survivors, batch
                )
                span.annotate(candidates=len(survivors), joined=len(matched))
            rule_span.annotate(
                matched=len(matched),
                candidates=len(candidates),
                temporal_survivors=len(survivors),
                spatial_survivors=len(matched),
            )
        return matched

    def _spatial_stage(
        self,
        rule,
        parent_instance: EventInstance,
        candidates: CandidateSet,
        survivors: List[int],
        batch,
    ) -> List[EventInstance]:
        """Columnar spatial join over the temporal survivors.

        For epoch-static location columns the cover's expansion map
        (:meth:`CandidateSet.static_expansions`) replaces per-candidate
        resolver calls with one set intersection per distinct location;
        a contiguous survivor run — what start-anchored batch joins
        produce — is then intersected with each passing location's index
        list by bisection instead of walking every survivor.  Returns
        exactly the instances a per-candidate loop over
        :meth:`SpatialJoinRule.joined` would: ascending candidate order,
        capped at ``max_matches_per_rule``.
        """
        if not survivors:
            return []
        cap = self.config.max_matches_per_rule
        instances = candidates.instances
        expansions = candidates.static_expansions(
            self.resolver, rule.spatial.level, parent_instance.start
        )
        if expansions is None:
            # epoch-dynamic locations (routed paths, prefixes): one
            # resolver verdict per distinct location
            verdict_of = batch.joined
        else:
            symptom_set = batch.symptom_set
            lo_k, hi_k = survivors[0], survivors[-1]
            if symptom_set and hi_k - lo_k + 1 == len(survivors):
                picked: List[int] = []
                for parts, (location, idxs) in candidates.location_index.items():
                    a = bisect.bisect_left(idxs, lo_k)
                    b = bisect.bisect_right(idxs, hi_k, a)
                    if a == b:
                        continue
                    batch.check_diagnostic(location)
                    if not symptom_set.isdisjoint(expansions[parts]):
                        picked.extend(idxs[a:b])
                picked.sort()
                return [instances[k] for k in picked[:cap]]

            # non-contiguous survivors (end-anchored joins) or an empty
            # symptom expansion: verdicts straight off the expansion map
            def verdict_of(location: Location) -> bool:
                batch.check_diagnostic(location)
                return not symptom_set.isdisjoint(expansions[location.parts])

        matched: List[EventInstance] = []
        location_parts = candidates.location_parts
        verdicts: Dict[Tuple[str, ...], bool] = {}
        for k in survivors:
            parts = location_parts[k]
            verdict = verdicts.get(parts)
            if verdict is None:
                verdict = verdicts[parts] = verdict_of(instances[k].location)
            if verdict:
                matched.append(instances[k])
                if len(matched) >= cap:
                    break
        return matched

    def _retrieve(
        self,
        event_name: str,
        window: Tuple[float, float],
        tracer=NULL_TRACER,
        plan: Optional[Dict[str, List[Tuple[float, float]]]] = None,
        cancel=None,
    ) -> CandidateSet:
        # bucket windows to 60 s so nearby symptoms share cache entries
        bucketed = bucket_window(window)
        # prefer an already-cached cover; else the level plan's
        # coalesced cover for this event; else the bucketed window
        cover = self._find_cover(event_name, bucketed)
        if cover is None and plan:
            for planned in plan.get(event_name, ()):
                if planned[0] <= bucketed[0] and bucketed[1] <= planned[1]:
                    cover = planned
                    break
        if cover is None:
            cover = bucketed
        key = (event_name, cover[0], cover[1])
        with tracer.span("retrieve", label=event_name) as span:
            cached = key in self._retrieval_cache
            if not cached:
                # the store round-trip is the expensive stage; a job past
                # its deadline stops here instead of fetching more data
                if cancel is not None:
                    cancel.check()
                reads: set = set()
                observers: List[ReadObserver] = [FootprintObserver(reads.add)]
                if tracer.enabled:
                    observers.insert(0, TraceObserver(tracer))
                context = RetrievalContext(
                    store=ObservedStore(self.store, observers),
                    start=cover[0],
                    end=cover[1],
                    params=self.config.params,
                    services=self.config.services,
                )
                self._retrieval_cache[key] = CandidateSet(
                    self.library.get(event_name).retrieve(context)
                )
                self._retrieval_reads[key] = frozenset(reads)
                self._covers.setdefault(event_name, CoverIndex()).add(*cover)
            if self._active_reads is not None:
                self._active_reads |= self._retrieval_reads.get(key, frozenset())
            # the whole (superset) cover is returned; the batch temporal
            # join in _match_rule is the exact filter, so no intermediate
            # per-window candidate list is materialized
            candidates = self._retrieval_cache[key]
            span.annotate(cached=cached, records=len(candidates))
        return candidates

    def clear_cache(self) -> None:
        """Drop all cached retrievals (e.g. after new data lands)."""
        self._retrieval_cache.clear()
        self._retrieval_reads.clear()
        self._covers.clear()

    def evict_retrievals_before(self, cutoff: float) -> int:
        """Drop cached covers that end before ``cutoff``; return the count.

        Pure cache eviction — never affects results, only reuse.  The
        streaming engine calls this each advance with its re-open
        horizon: a cover entirely behind every window any future (fresh
        or re-opened) symptom can request is unreachable, and keeping it
        would make :meth:`invalidate_deltas` scan an ever-growing entry
        list on a month-scale replay.  Same threading contract as
        :meth:`invalidate_deltas`.
        """
        stale = [
            key for key in self._retrieval_cache if key[2] < cutoff
        ]
        return self._drop_retrievals(stale)

    def invalidate_deltas(self, deltas: Dict[str, List[float]]) -> int:
        """Drop cached retrievals a batch of new records may have changed.

        ``deltas`` maps table name to *sorted* record timestamps — the
        per-advance delta buffer the streaming engine drains from the
        store's insert listeners.  A cache entry goes stale when any of
        its recorded store reads contains any delta point of that table
        (:func:`footprint_hit`); everything else survives the advance.
        Returns the number of entries dropped.  Must be called from the
        thread that owns this engine (the cache is not locked).
        """
        if not deltas or not self._retrieval_reads:
            return 0
        stale = [
            key
            for key, reads in self._retrieval_reads.items()
            if footprint_hit(reads, deltas)
        ]
        return self._drop_retrievals(stale)

    def _drop_retrievals(self, stale: List[Tuple[str, float, float]]) -> int:
        """Remove cache entries, rebuild the cover indexes; return the count."""
        for key in stale:
            del self._retrieval_cache[key]
            del self._retrieval_reads[key]
        if stale:
            covers: Dict[str, CoverIndex] = {}
            for event_name, lo, hi in self._retrieval_cache:
                covers.setdefault(event_name, CoverIndex()).add(lo, hi)
            self._covers = covers
        return len(stale)

    def isolated(self) -> "RcaEngine":
        """A sibling engine with a *private* retrieval cache.

        Shares the (immutable) graph, event library, resolver, config
        and the live store — everything that is safe to share across
        threads — but owns its own retrieval cache, so parallel workers
        never contend on (or corrupt) each other's cached windows.
        """
        return RcaEngine(
            graph=self.graph,
            library=self.library,
            resolver=self.resolver,
            store=self.store,
            config=self.config,
        )
