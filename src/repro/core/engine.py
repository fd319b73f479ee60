"""The Generic RCA Engine (Fig. 1).

The application's diagnosis graph is compiled once per engine into a
flat plan (:func:`compile_plan`), and :meth:`RcaEngine.diagnose_all` is
the one evaluator: an interpreter over that plan that walks each
symptom breadth-first (genuinely level-order).  For every step out of a
matched instance it retrieves candidate diagnostic instances from the
store (bounded by the temporal rule's search window), keeps those that
join temporally *and* spatially with the matched parent, and walks on
from the matches that have rules of their own; a batched retrieval
planner (:meth:`RcaEngine._plan_level`) coalesces the windows of each
frontier level first.  The collected evidence then goes to the
reasoning module (rule-based by default) to pick the root cause(s).

A storm's sibling symptoms share their intervals, so inside one call
everything that depends only on ``(plan step, parent interval)`` — a
:class:`_Stage` — is computed once; per parent only the symptom-side
spatial expansion, the per-location verdicts and the evidence rows
remain.

Read observation (``store-query`` tracing spans and the footprint
records the service cache invalidates on) rides the single
:class:`~repro.collector.store.ReadObserver` seam rather than dedicated
proxy classes; the retrieval cache's freshness is a
:class:`~repro.core.footprint.FootprintIndex` (:meth:`RcaEngine.sync`).
"""

from __future__ import annotations

import bisect
import copy
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple,
)

from ..collector.health import HealthRegistry, canonical_source
from ..collector.store import (
    DataStore,
    FootprintObserver,
    ObservedStore,
    ReadObserver,
    TraceObserver,
)
from ..obs.trace import NULL_TRACER, Tracer
from .diagnosis import Diagnosis, FootprintEntry
from .footprint import FootprintIndex, coalesce_windows, merge_footprint
from .events import (
    CandidateSet, EventDefinition, EventInstance, EventLibrary, RetrievalContext,
)
from .graph import DiagnosisGraph, DiagnosisRule
from .reasoning.rule_based import (
    NO_EVIDENCE,
    Evidence,
    EvidenceGap,
    assess_confidence,
    reason,
)
from .spatial import JoinLevel, LocationResolver, location_runs


def evidence_sources(graph: DiagnosisGraph, library: EventLibrary) -> Set[str]:
    """Collector feeds backing any event in a diagnosis graph.

    Shared by the streaming engine (watermark deferral) and the service
    scheduler (health-aware job priority): both need to know which
    ingest feeds could carry this application's evidence.
    """
    sources = {
        canonical_source(library.get(name).data_source) for name in graph.events()
    }
    return sources - {None}


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


class CoverIndex:
    """Cached cover windows of one event, with O(log n) containment lookup.

    Windows sorted by their low edge (equal ones in the order added)
    plus a running max of the high edges: the rightmost cover starting
    at or before a query's low edge bounds the candidates, and the first
    prefix position whose running max reaches the query's high edge is
    a containing cover (the max rises there, so that cover holds it).
    """

    __slots__ = ("_los", "_his", "_max")

    def __init__(self) -> None:
        self._los: List[float] = []
        self._his: List[float] = []
        self._max: List[float] = []

    def __iter__(self):
        return iter(zip(self._los, self._his))

    def __len__(self) -> int:
        return len(self._los)

    def add(self, lo: float, hi: float) -> None:
        """Insert one cover window, after those with the same low edge;
        O(n - insertion point), in C."""
        i = bisect.bisect_right(self._los, lo)
        self._los.insert(i, lo)
        self._his.insert(i, hi)
        # _rerun(i), inline: every cached retrieval comes through here
        running = self._max
        running[i:] = itertools.accumulate(
            self._his[i:], max, initial=running[i - 1] if i else float("-inf")
        )
        del running[i]

    def remove(self, lo: float, hi: float) -> None:
        """Remove one cover window; ``ValueError`` when it is not held."""
        los = self._los
        first = bisect.bisect_left(los, lo)
        i = self._his.index(hi, first, bisect.bisect_right(los, lo, first))
        del los[i], self._his[i]
        self._rerun(i)

    def _rerun(self, i: int) -> None:
        """Recompute the running max from position ``i`` on."""
        running = self._max
        running[i:] = itertools.accumulate(
            self._his[i:], max, initial=running[i - 1] if i else float("-inf")
        )
        del running[i]  # the initial value

    def find(self, lo: float, hi: float) -> Optional[Tuple[float, float]]:
        """A stored cover containing ``[lo, hi]``, or None; O(log n)."""
        i = bisect.bisect_right(self._los, lo) - 1
        if i < 0 or self._max[i] < hi:
            return None
        p = bisect.bisect_left(self._max, hi, 0, i + 1)
        return (self._los[p], self._his[p])


class PlanStep(NamedTuple):
    """One rule out of an event, with all the walk needs resolved once."""

    #: position in the flat plan (identifies the step in shared-state keys)
    index: int
    rule: DiagnosisRule
    #: the child event's definition (its retrieval process)
    definition: EventDefinition
    #: collector feed backing the child's evidence; None when no ingest
    #: feed stands behind it (derived events)
    source: Optional[str]
    #: how far before / after the parent's expanded window a joinable
    #: child may lie (:meth:`TemporalJoinRule.reaches`)
    reach_before: float
    reach_after: float
    level: JoinLevel
    #: False for a leaf child: its matches are evidence, never walked
    expands: bool


def compile_plan(
    graph: DiagnosisGraph, library: EventLibrary
) -> Dict[str, Tuple[PlanStep, ...]]:
    """Flatten a diagnosis graph: event name -> its steps, in rule order.

    Definitions are resolved here: a library ``override`` made later
    needs a new engine.  Raises ``KeyError`` naming undefined events and
    ``ValueError`` for a rule joining on another location type than its
    parent event's (the walk builds a join only once candidates survive).
    """
    missing = [name for name in graph.events() if name not in library]
    if missing:
        raise KeyError(
            f"diagnosis graph references undefined events: {missing}"
        )
    plan: Dict[str, Tuple[PlanStep, ...]] = {}
    index = 0
    for event in sorted(graph.events()):
        steps = []
        located = library.get(event).location_type
        for rule in graph.rules_from(event):
            if rule.spatial.symptom_type is not located:
                raise ValueError(
                    f"rule {event} -> {rule.child_event} joins "
                    f"{rule.spatial.describe()}; {event} is a {located.value}"
                )
            definition = library.get(rule.child_event)
            before, after = rule.temporal.reaches()
            steps.append(
                PlanStep(
                    index, rule, definition,
                    canonical_source(definition.data_source), before, after,
                    rule.spatial.level, bool(graph.rules_from(rule.child_event)),
                )
            )
            index += 1
        plan[event] = tuple(steps)
    return plan


class _Stage:
    """What one ``(plan step, parent interval)`` evaluation shares.

    Stages live for one :meth:`RcaEngine.diagnose_all` call.  The window
    and the impaired-feed overlaps depend on nothing else.  The cover,
    the temporal survivors and the survivor run's per-location slices
    also depend on which cached cover answers the window; inside a call
    the retrieval cache is only ever added to, so that answer holds
    until a new cover of the child event is indexed —
    :meth:`RcaEngine._retrieve` then resets the event's stages.
    """

    __slots__ = ("window", "bucketed", "gaps", "candidates", "reads", "survivors", "runs")

    def __init__(self, window: Tuple[float, float], gaps: tuple) -> None:
        self.window = window
        self.bucketed = bucket_window(window)
        #: ((feed, event, impairment start), EvidenceGap) pairs
        self.gaps = gaps
        self.reset()

    def reset(self) -> None:
        self.candidates: Optional[CandidateSet] = None
        #: the store reads behind ``candidates`` (their footprint)
        self.reads: Tuple[FootprintEntry, ...] = ()
        self.survivors: Optional[List[int]] = None
        self.runs: Optional[list] = None


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
        self._compile()
        self.clear_cache()

    def _compile(self) -> None:
        self._plan = compile_plan(self.graph, self.library)
        self._plan_revision = self.graph.revision

    # ------------------------------------------------------------------

    def find_symptoms(
        self, start: float, end: float, tracer: Optional[Tracer] = None
    ) -> List[EventInstance]:
        """The graph's symptom instances in ``[start, end]``: the one
        symptom retrieval every run path shares, with the store, params
        and services evidence retrievals get; ``tracer`` records one
        ``detect`` span."""
        definition = self.library.get(self.graph.symptom_event)
        context = RetrievalContext(
            self.store, start, end, self.config.params, self.config.services
        )
        with (tracer or NULL_TRACER).span("detect", label=definition.name) as span:
            symptoms = list(definition.retrieve(context))
            span.annotate(retrieved=len(symptoms), window=[start, end])
        return symptoms

    def diagnose(
        self,
        symptom: EventInstance,
        tracer: Optional[Tracer] = None,
        cancel: Optional[Any] = None,
        max_depth: Optional[int] = None,
    ) -> Diagnosis:
        """Correlate and reason about one symptom instance: the
        one-symptom case of :meth:`diagnose_all` (same arguments)."""
        return self.diagnose_all(
            (symptom,), tracer=tracer, cancel=cancel, max_depth=max_depth
        )[0]

    def diagnose_all(
        self,
        symptoms: Iterable[EventInstance],
        traced: bool = False,
        tracer: Optional[Tracer] = None,
        cancel: Optional[Any] = None,
        max_depth: Optional[int] = None,
    ) -> List[Diagnosis]:
        """Diagnose symptom instances in order, as one group.

        Each diagnosis is exactly what diagnosing that symptom alone, at
        that point, on this engine produces — evidence order, gaps and
        footprint included; the group only shares what sibling symptoms
        on one interval repeat (:class:`_Stage`).  Rules added to the
        graph since the last call are picked up here, and so are rows
        that landed in the store since (:meth:`sync`).

        ``tracer`` opts into span recording: each symptom gets one
        ``diagnose`` span (under the tracer's current span) with
        ``node``/``rule``/``retrieve``/``store-query``/``temporal-join``/
        ``spatial-join``/``reason`` children, attached as
        :attr:`Diagnosis.trace`; ``traced=True`` gives every symptom a
        fresh :class:`~repro.obs.Tracer`, hence an independent tree.  A
        shared stage reads as a cache hit (``retrieve`` with ``cached``
        true, the same ``temporal-join`` counts) that took no time.

        ``cancel`` is a cooperative cancellation token (anything with a
        ``check()`` that raises to stop — see
        :class:`repro.service.policy.CancellationToken`), checked at
        each frontier level, each node visit and before every store
        fetch, so a timed-out diagnosis stops within one retrieval.
        ``max_depth`` caps the exploration depth (evidence *at* the cap
        is still collected; nodes there are not expanded) — the service
        uses it to trim work during brownout.
        """
        if self._plan_revision != self.graph.revision:
            self._compile()
        self.sync()
        # child event -> (step index, parent start, parent end) -> stage
        shared: Dict[str, Dict[Tuple[int, float, float], _Stage]] = {}
        diagnoses = []
        for symptom in symptoms:
            if symptom.name != self.graph.symptom_event:
                raise ValueError(
                    f"engine diagnoses {self.graph.symptom_event!r} symptoms, "
                    f"got {symptom.name!r}"
                )
            trace = Tracer() if traced else tracer or NULL_TRACER
            with trace.span(
                "diagnose", label=symptom.name, symptom=str(symptom),
                graph=self.graph.name,
            ) as root:
                evidence, gaps, footprint = self._correlate(
                    symptom, trace, cancel, max_depth, shared
                )
                with trace.span("reason", label=symptom.name) as span:
                    result = reason(self.graph, evidence)
                    confidence, caveats = assess_confidence(gaps)
                    span.annotate(
                        evidence=len(evidence),
                        root_causes=list(result.root_causes),
                        priority=result.priority,
                        gaps=len(gaps),
                    )
                root.annotate(evidence=len(evidence), cause=result.primary)
            diagnoses.append(
                Diagnosis(
                    symptom, evidence, result, gaps, confidence, caveats,
                    footprint, root if trace.enabled else None,
                )
            )
        return diagnoses

    # ------------------------------------------------------------------

    def _correlate(
        self, symptom: EventInstance, tracer, cancel, max_depth, shared
    ) -> Tuple[Evidence, List[EvidenceGap], Tuple[FootprintEntry, ...]]:
        """The level-order walk of one symptom over the compiled plan."""
        runs: list = []  # Evidence's layout: rule, parent, depth, count, matches
        gaps: List[EvidenceGap] = []
        gap_keys: set = set()
        reads: set = set()
        seen: set = set()
        # frontier entries: (the matched event's steps, instance, depth)
        level = [(self._plan[symptom.name], symptom, 0)]
        while level:
            if cancel is not None:
                cancel.check()
            staged, covers = self._plan_level(level, shared)
            next_level = []
            for (steps, parent, depth), stages in zip(level, staged):
                if cancel is not None:
                    cancel.check()
                deeper = max_depth is None or depth + 1 < max_depth
                # one span per graph-node visit: the trace mirrors the walk
                with tracer.span("node", label=parent.name, depth=depth) as node_span:
                    matched_here = 0
                    for step, stage in zip(steps, stages):
                        noted = 0
                        for key, gap in stage.gaps:
                            if key not in gap_keys:
                                gap_keys.add(key)
                                gaps.append(gap)
                                noted += 1
                        if noted:
                            node_span.count("evidence_gaps", noted)
                        matches = self._match(
                            step, stage, parent, tracer, covers, cancel, shared
                        )
                        reads.update(stage.reads)
                        if not matches:
                            continue
                        matched_here += len(matches)
                        runs += (step.rule, parent, depth + 1, len(matches))
                        runs += matches
                        # a matched leaf has no rules to evaluate: it is
                        # evidence only, never a frontier entry
                        if step.expands and deeper:
                            event = step.rule.child_event
                            for instance in matches:
                                key = (event, instance)
                                if key not in seen:
                                    seen.add(key)
                                    next_level.append(
                                        (self._plan[event], instance, depth + 1)
                                    )
                    node_span.annotate(matched=matched_here)
            level = next_level
        return Evidence(runs) if runs else NO_EVIDENCE, gaps, merge_footprint(reads)

    def _plan_level(
        self, level, shared
    ) -> Tuple[List[List[_Stage]], Dict[str, List[Tuple[float, float]]]]:
        """Resolve a frontier level's stages and coalesce its retrievals.

        Every (step, parent) gets its :class:`_Stage`: the one a sibling
        on the same interval already built, or a new one.  Sibling rules
        (and parents) often request overlapping windows of one event, so
        the bucketed windows no cached cover satisfies yet are merged
        into per-event disjoint covers: the level's first retrieval of
        an event fetches its whole cover, the siblings hit the cache.
        Only the *prefetch* widens — the joins still filter on each
        rule's exact window, so matches are unchanged except where a
        wider fetch completes boundary-straddling retrievals (e.g. flap
        pairing).
        """
        staged: List[List[_Stage]] = []
        wants: Dict[str, List[Tuple[float, float]]] = {}
        for steps, parent, _depth in level:
            stages = []
            for step in steps:
                event = step.rule.child_event
                by_key = shared.setdefault(event, {})
                key = (step.index, parent.start, parent.end)
                stage = by_key.get(key)
                if stage is None:
                    stage = by_key[key] = self._new_stage(step, parent)
                # a filled stage implies a cover containing its window
                if stage.candidates is None and (
                    self._covers[event].find(*stage.bucketed) is None
                ):
                    wants.setdefault(event, []).append(stage.bucketed)
                stages.append(stage)
            staged.append(stages)
        return staged, {
            event: coalesce_windows(windows) for event, windows in wants.items()
        }

    def _new_stage(self, step: PlanStep, parent: EventInstance) -> _Stage:
        """One step's search window from one parent interval, with the
        impaired-feed intervals overlapping it: an empty retrieval from
        a LAGGING/DEGRADED/DOWN feed is indistinguishable from genuine
        absence of the event, so every overlap is recorded and later
        discounted by :func:`assess_confidence`."""
        rule, source = step.rule, step.source
        s_lo, s_hi = rule.temporal.symptom.expand(parent.start, parent.end)
        lo, hi = s_lo - step.reach_before, s_hi + step.reach_after
        registry = self.config.health
        if registry is None or source is None:
            return _Stage((lo, hi), ())
        return _Stage(
            (lo, hi),
            tuple(
                (
                    (source, rule.child_event, impaired.start),
                    EvidenceGap(
                        source=source,
                        state=impaired.state,
                        start=max(lo, impaired.start),
                        end=hi if impaired.end is None else min(hi, impaired.end),
                        event=rule.child_event,
                        parent_event=rule.parent_event,
                    ),
                )
                for impaired in registry.impaired_intervals(source, lo, hi)
            ),
        )

    def _match(
        self, step: PlanStep, stage: _Stage, parent: EventInstance,
        tracer, covers, cancel, shared,
    ) -> List[EventInstance]:
        """Evaluate one step against one matched parent instance.

        One path serves traced and untraced evaluation (span contexts
        are no-ops on the null tracer; span arguments are only built
        when tracing is on): the cover's candidate set and the batch
        temporal mask over its sorted interval columns — both taken
        from the stage when a sibling left them there — then the
        columnar spatial join over the temporal survivors only.
        """
        rule = step.rule
        rule_args = stage_args = {}
        traced = tracer.enabled
        if traced:
            stage_args = dict(label=f"{rule.parent_event} -> {rule.child_event}")
            rule_args = dict(
                stage_args,
                priority=rule.priority,
                temporal=rule.temporal.describe(),
                spatial=rule.spatial.describe(),
                window=list(stage.window),
            )
        with tracer.span("rule", **rule_args) as rule_span:
            with tracer.span("retrieve", label=rule.child_event) as retrieve_span:
                cached = stage.candidates is not None or self._retrieve(
                    step, stage, tracer, covers, cancel, shared
                )
                candidates = stage.candidates
            with tracer.span("temporal-join", **stage_args) as temporal_span:
                survivors = stage.survivors
                if survivors is None:
                    # nothing retrieved, nothing joins
                    survivors = stage.survivors = (
                        rule.temporal.joined_batch(parent.interval, candidates.columns)
                        if candidates.starts else []
                    )
            with tracer.span("spatial-join", **stage_args) as spatial_span:
                matched = (
                    self._spatial_stage(step, stage, parent, tracer if traced else None)
                    if survivors else []
                )
            if traced:
                found, joined, kept = len(candidates), len(survivors), len(matched)
                retrieve_span.annotate(cached=cached, records=found)
                temporal_span.annotate(candidates=found, joined=joined)
                spatial_span.annotate(candidates=joined, joined=kept)
                rule_span.annotate(
                    matched=kept, candidates=found,
                    temporal_survivors=joined, spatial_survivors=kept,
                )
        return matched

    def _spatial_stage(
        self, step: PlanStep, stage: _Stage, parent: EventInstance, trace
    ) -> List[EventInstance]:
        """Columnar spatial join over the (non-empty) temporal survivors.

        For epoch-static location columns the cover's expansion map
        (:meth:`LocationResolver.static_expansions`) replaces per-candidate
        resolver calls with one set intersection per distinct location,
        over survivor rows the stage shares (``location_runs``).
        Returns exactly what a per-candidate loop over
        :meth:`SpatialJoinRule.joined` would: ascending candidate order,
        capped at ``max_matches_per_rule``.
        """
        candidates, survivors = stage.candidates, stage.survivors
        batch = step.rule.spatial.batch(
            self.resolver, parent.location, parent.start, trace=trace
        )
        cap = self.config.max_matches_per_rule
        expansions = self.resolver.static_expansions(
            candidates, step.level, parent.start
        )
        if expansions is not None:
            runs = stage.runs
            if runs is None:
                runs = stage.runs = location_runs(candidates, survivors)
                for _parts, location, _rows in runs:
                    batch.check_diagnostic(location)
            symptom_set = batch.symptom_set
            picked: List[int] = []
            for parts, _location, rows in runs:
                if not symptom_set.isdisjoint(expansions[parts]):
                    picked.extend(rows)
            picked.sort()
            return candidates.take(picked[:cap])
        # epoch-dynamic locations (routed paths, prefixes): one resolver
        # verdict per distinct location, only as far as the cap needs
        matched: List[EventInstance] = []
        verdicts: Dict[Tuple[str, ...], bool] = {}
        for k in survivors:
            location = candidates.locations[k]
            verdict = verdicts.get(location.parts)
            if verdict is None:
                verdict = verdicts[location.parts] = batch.joined(location)
            if verdict:
                matched.append(candidates[k])
                if len(matched) >= cap:
                    break
        return matched

    def _retrieve(
        self, step: PlanStep, stage: _Stage, tracer, covers, cancel, shared
    ) -> bool:
        """Fill ``stage`` with a cover's candidates; return whether that
        cover was already cached.

        Prefers an already-cached cover, else the level plan's coalesced
        cover for this event, else the bucketed window.  The whole
        (superset) cover is kept: the batch temporal join is the exact
        filter, so no per-window candidate list is materialized.
        """
        event_name, bucketed = step.rule.child_event, stage.bucketed
        cover = self._covers[event_name].find(*bucketed)
        if cover is None:
            cover = bucketed
            for planned in covers.get(event_name, ()):
                if planned[0] <= bucketed[0] and bucketed[1] <= planned[1]:
                    cover = planned
                    break
        key = (event_name, cover[0], cover[1])
        entry = self._retrieval_cache.get(key)
        cached = entry is not None
        if not cached:
            # the store round-trip is the expensive stage; a job past
            # its deadline stops here instead of fetching more data
            if cancel is not None:
                cancel.check()
            reads: List[FootprintEntry] = []
            observers: Tuple[ReadObserver, ...] = (FootprintObserver(reads.append),)
            if tracer.enabled:
                observers = (TraceObserver(tracer), *observers)
            context = RetrievalContext(
                ObservedStore(self.store, observers), cover[0], cover[1],
                self.config.params, self.config.services,
            )
            entry = self._retrieval_cache[key] = step.definition.retrieve(context)
            # deduplicated in read order; a tuple of one entry is a
            # fraction of a one-entry set's bytes, on every cached cover
            self._footprints.add(key, tuple(dict.fromkeys(reads)))
            self._covers[event_name].add(*cover)
            # a new cover may answer this event's later lookups
            for other in shared[event_name].values():
                other.reset()
        stage.candidates, stage.reads = entry, self._footprints.reads[key]
        return cached

    def sync(self) -> int:
        """Catch the retrieval cache up with the store's change log.

        Drops the cached retrievals whose recorded store reads contain
        the timestamp of a row that landed in that table since the last
        sync (:meth:`FootprintIndex.catch_up`) — all of them when the log
        no longer reaches back that far — and returns how many.  Every
        :meth:`diagnose_all` starts here; call it only from the thread
        that owns this engine (the cache is not locked), between calls.
        """
        return self._drop_retrievals(self._footprints.catch_up())

    def clear_cache(self) -> None:
        """Drop all cached retrievals (freshness is :meth:`sync`'s job:
        this only gives the memory back)."""
        # retrieval cache: (event name, cover window) -> candidate set
        self._retrieval_cache: Dict[Tuple[str, float, float], CandidateSet] = {}
        # the same keys -> the store reads behind them, fresh as of now
        # (an empty cache is fresh at any revision); a cover ends at hi
        self._footprints = FootprintIndex(self.store, lambda key, _reads: key[2])
        # per event: the cached cover windows, indexed for containment
        # (looking an event up files an empty index for it)
        self._covers: Dict[str, CoverIndex] = defaultdict(CoverIndex)

    def evict_retrievals_before(self, cutoff: float) -> int:
        """Drop cached covers that end before ``cutoff``; return the count.

        Pure cache eviction — never affects results, only reuse.  The
        streaming engine calls this each advance with its re-open
        horizon: a cover behind every window any future (fresh or
        re-opened) symptom can request is unreachable, and keeping it
        would make :meth:`sync` scan an ever-growing list.  Same
        threading contract as :meth:`sync`.
        """
        return self._drop_retrievals(self._footprints.forget_before(cutoff))

    def _drop_retrievals(self, stale: List[Tuple[str, float, float]]) -> int:
        """Remove cache entries and their covers; return the count."""
        covers = self._covers
        for key in stale:
            del self._retrieval_cache[key]
            self._footprints.discard(key)
            event_name, lo, hi = key
            index = covers[event_name]
            index.remove(lo, hi)
            if not index:
                del covers[event_name]
        return len(stale)

    def isolated(self) -> "RcaEngine":
        """A sibling engine with a *private* retrieval cache.

        Shares the graph, its compiled plan, the event library, resolver,
        config and the live store — everything that is safe to share
        across threads — so parallel workers never contend on (or
        corrupt) each other's cached windows.
        """
        sibling = copy.copy(self)
        sibling.clear_cache()
        return sibling
