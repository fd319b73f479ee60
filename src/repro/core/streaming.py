"""Real-time root cause analysis (the paper's Section VI future work:
"we want to support real-time root cause applications").

The batch engine diagnoses historical symptoms over a closed window.
:class:`StreamingRca` runs the same engine *incrementally*: telemetry
is ingested continuously, and each call to :meth:`advance` detects the
symptom instances that have newly become *settled* — old enough that
their diagnostic evidence (which may lag the symptom by protocol timers
and polling intervals) has arrived — and diagnoses them.

Design points:

* **Settle delay** — a symptom is only diagnosed once
  ``now - settle_seconds`` has passed its end, bounding how long late
  evidence is waited for.  The default covers the eBGP hold timer plus
  one SNMP poll.
* **Reorder slack** — retrieval windows reach back ``REORDER_SLACK``
  before the previous watermark so out-of-order feed arrivals are not
  lost; already-diagnosed instances are de-duplicated by identity.
* **Incremental cache discipline** — the engine's retrieval cache is
  *not* cleared per advance: the engine drops exactly the cached covers
  a record that landed since falls in (:meth:`RcaEngine.sync`); covers
  behind the data frontier stay warm across advances, and covers behind
  the re-open horizon are evicted.
* **Delta-driven re-diagnosis** — settled symptoms are held in a
  :class:`~repro.core.footprint.FootprintIndex` by their footprints: a
  late or out-of-order record that lands inside a settled diagnosis's
  read footprint triggers exactly that symptom's
  re-diagnosis (bounded by ``max_reopen_per_advance`` and
  ``reopen_horizon``, keyed by ``instance_key``; when the log cannot
  say what landed, every settled symptom is a candidate).  A
  re-diagnosis whose conclusion changed is re-emitted through
  ``on_diagnosis``; unchanged ones are absorbed silently.
* **Watermark deferral** — when the engine has a feed-health registry
  and a required evidence feed is ``LAGGING``, settling is deferred to
  that feed's watermark (bounded by ``max_watermark_defer``) so slow
  feeds produce *late* diagnoses instead of wrong ones.  ``DOWN`` feeds
  never defer — waiting on a dead feed would stall the pipeline; their
  absence is annotated on the diagnosis instead.
"""

from __future__ import annotations

import bisect
import gc
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..collector.health import FeedState
from ..obs.trace import NULL_TRACER
from .engine import Diagnosis, RcaEngine, evidence_sources
from .events import EventInstance, InstanceKey, instance_key
from .footprint import FootprintIndex, _Retained

DiagnosisCallback = Callable[[Diagnosis], None]

#: how far before the previous watermark symptom retrieval reaches back,
#: seconds, so out-of-order feed arrivals are not lost
REORDER_SLACK = 120.0


@dataclass
class StreamingConfig:
    """Tunables for incremental diagnosis."""

    #: wait this long past a symptom's end before diagnosing it
    settle_seconds: float = 420.0
    #: forget de-duplication keys older than this (memory bound)
    dedupe_horizon: float = 7200.0
    #: cap on how long a LAGGING feed may hold back settling
    max_watermark_defer: float = 1800.0
    #: how far back a late record may re-open a settled symptom (the
    #: retention horizon of the re-open set; memory bound — one entry
    #: per symptom, so a day costs little and covers feed outages)
    reopen_horizon: float = 86400.0
    #: cap on re-opened symptoms per advance (excess re-opens are
    #: dropped oldest-first and stay at their previous diagnosis)
    max_reopen_per_advance: int = 64


class StreamingRca:
    """Incremental symptom detection and diagnosis over a live store."""

    def __init__(
        self,
        engine: RcaEngine,
        config: Optional[StreamingConfig] = None,
        on_diagnosis: Optional[DiagnosisCallback] = None,
        start: Optional[float] = None,
    ) -> None:
        """``start`` sets where the first advance begins looking for
        symptoms; omit it to stream "from now" (the first advance covers
        one settle window only, ignoring older backlog)."""
        self.engine = engine
        self.config = config or StreamingConfig()
        self.on_diagnosis = on_diagnosis
        self._start = start
        self._watermark: Optional[float] = None
        #: de-duplication keys of retrieved symptoms -> the instance's end
        self._seen: Dict[InstanceKey, float] = _Retained(lambda _key, end: end)
        self.diagnosed_count = 0
        self._required_sources: Optional[Set[str]] = None
        # --- delta state -----------------------------------------------
        #: settled symptoms eligible for re-opening: identity -> the
        #: instance and its latest diagnosis
        self._settled: Dict[InstanceKey, Tuple[EventInstance, Diagnosis]] = {}
        #: the same identities -> their diagnoses' footprints (the
        #: re-open trigger surface); a symptom ends with its instance
        settled = self._settled
        self._footprints = FootprintIndex(
            engine.store, lambda key, _footprint: settled[key][0].end
        )
        #: cache entries dropped by delta invalidation (cumulative)
        self.invalidated_count = 0
        #: settled symptoms re-opened by a delta (cumulative)
        self.reopened_count = 0
        #: re-diagnoses whose conclusion changed and were re-emitted
        self.reemitted_count = 0
        #: cache entries evicted behind the re-open horizon (cumulative)
        self.evicted_count = 0
        # set-up ends here: topology, routing state, the compiled plan
        # and this object live as long as the stream does, so full
        # collections during it need not walk them
        gc.freeze()
        self._frozen = True

    def close(self) -> None:
        """Hand what :meth:`__init__` froze back to the collector
        (idempotent).  Nothing else holds on to a stream."""
        if self._frozen:
            self._frozen = False
            gc.unfreeze()

    @property
    def watermark(self) -> Optional[float]:
        """End of the last settled region that has been diagnosed."""
        return self._watermark

    def _select_reopens(self) -> List[Tuple[InstanceKey, EventInstance, Diagnosis]]:
        """Settled symptoms whose read footprint a row that landed since
        the last advance hits — all of them when the log cannot say.

        Sound because every record that can change a diagnosis lands in
        some window that diagnosis read (its footprint — recorded even
        on cache hits): evidence the walk never reached is covered
        transitively, since reaching it requires a parent match whose
        own window the record must first land in.
        """
        hits = [(key, *self._settled[key]) for key in self._footprints.catch_up()]
        hits.sort(key=lambda item: (item[1].start, item[0]))
        # over the cap, keep the most recent symptoms: late data skews recent
        return hits[max(0, len(hits) - self.config.max_reopen_per_advance):]

    def advance(self, now: float, tracer=None) -> List[Diagnosis]:
        """Diagnose symptoms that settled since the last call.

        ``now`` is the wall-clock frontier of ingested data.  Returns
        the new diagnoses — plus re-emitted diagnoses of
        previously-settled symptoms whose conclusion a late record
        changed (also delivered to ``on_diagnosis``).

        ``tracer`` (a :class:`repro.obs.Tracer`, optional) records one
        ``advance`` span covering the whole call, with the engine's
        ``detect`` child for symptom retrieval and one ``diagnose``
        subtree per settled symptom, each also attached to its
        :attr:`Diagnosis.trace`.  The ``advance`` span carries
        ``fresh`` / ``invalidated`` / ``reopened`` / ``evicted``
        counters.
        """
        tracer = tracer if tracer is not None else NULL_TRACER
        config = self.config
        with tracer.span("advance", label=f"now={now:g}") as adv:
            registry = self.engine.config.health
            if registry is not None:
                registry.tick(now)
            settled_until = self._defer_for_lagging_feeds(
                now - config.settle_seconds
            )
            adv.annotate(settled_until=settled_until)
            if self._footprints.behind():  # rows landed, or the log cannot say
                invalidated = self.engine.sync()
                self.invalidated_count += invalidated
                adv.annotate(invalidated=invalidated)
            reopens = self._select_reopens()
            fresh: List[EventInstance] = []
            if self._watermark is not None and settled_until <= self._watermark:
                # nothing newly settled, but memory bounds still apply —
                # and what landed may still re-open settled symptoms
                self._forget(max(settled_until, self._watermark))
                adv.annotate(fresh=0)
                if not reopens:
                    return []
            else:
                if self._watermark is not None:
                    window_start = self._watermark - REORDER_SLACK
                elif self._start is not None:
                    window_start = self._start
                else:
                    window_start = settled_until - config.settle_seconds
                for instance in self.engine.find_symptoms(
                    window_start, settled_until, tracer
                ):
                    if instance.end > settled_until:
                        continue  # not settled yet; next advance takes it
                    key = instance_key(instance)
                    if key in self._seen:
                        continue
                    self._seen[key] = instance.end
                    fresh.append(instance)
                self._watermark = settled_until
                self._forget(settled_until)
                # covers behind every window a fresh or re-opened
                # symptom can still request are pure memory (and
                # invalidation-scan) cost; the slack generously bounds
                # rule search-window lookback
                evicted = self.engine.evict_retrievals_before(
                    settled_until - config.reopen_horizon - 3600.0
                )
                self.evicted_count += evicted
                if evicted:
                    adv.annotate(evicted=evicted)
                adv.annotate(fresh=len(fresh))
            if reopens:
                self.reopened_count += len(reopens)
                adv.annotate(reopened=len(reopens))
            emitted = self._diagnose(fresh, reopens, tracer)
            if self.on_diagnosis is not None:
                for diagnosis in emitted:
                    self.on_diagnosis(diagnosis)
            return emitted

    def _diagnose(
        self,
        fresh: List[EventInstance],
        reopens: List[Tuple[InstanceKey, EventInstance, Diagnosis]],
        tracer,
    ) -> List[Diagnosis]:
        """Run fresh + re-opened symptoms; return what should be emitted.

        Fresh symptoms are always emitted.  Re-opened symptoms are
        re-diagnosed against the (selectively invalidated) cache; the
        stored diagnosis is replaced either way, but only a *changed*
        conclusion is re-emitted.
        """
        previous = {key: diagnosis for key, _instance, diagnosis in reopens}
        to_run = fresh + [instance for _key, instance, _diag in reopens]
        if not to_run:
            return []
        # one group: a storm's siblings share their stage work
        produced = self.engine.diagnose_all(to_run, tracer=tracer)
        emitted: List[Diagnosis] = []
        for diagnosis in produced:
            key = instance_key(diagnosis.symptom)
            self._settled[key] = (diagnosis.symptom, diagnosis)
            self._footprints.add(key, diagnosis.footprint)
            if key not in previous:
                self.diagnosed_count += 1
                emitted.append(diagnosis)
            elif diagnosis != previous[key]:
                self.reemitted_count += 1
                emitted.append(diagnosis)
        return emitted

    def _defer_for_lagging_feeds(self, settled_until: float) -> float:
        """Hold settling back to the slowest LAGGING evidence feed.

        Only feeds that are LAGGING (still delivering, just behind)
        defer — a DOWN feed would hold the watermark forever, and a
        never-observed feed is not expected to deliver at all.  The
        deferral is bounded by ``max_watermark_defer``.
        """
        registry = self.engine.config.health
        if registry is None:
            return settled_until
        floor = settled_until - self.config.max_watermark_defer
        deferred = settled_until
        for source in self._evidence_sources():
            feed = registry.feeds.get(source)
            if feed is None or feed.state is not FeedState.LAGGING:
                continue
            if feed.watermark is not None and feed.watermark < deferred:
                deferred = max(floor, feed.watermark)
        return deferred

    def _evidence_sources(self) -> Set[str]:
        """Collector feeds backing any event in the diagnosis graph."""
        if self._required_sources is None:
            self._required_sources = evidence_sources(
                self.engine.graph, self.engine.library
            )
        return self._required_sources

    def _forget(self, settled_until: float) -> None:
        """Memory bounds: drop dedupe keys and re-openable symptoms that
        ended before their horizons."""
        self._seen.forget_before(settled_until - self.config.dedupe_horizon)
        horizon = settled_until - self.config.reopen_horizon
        for key in self._footprints.forget_before(horizon):
            del self._settled[key]


class _Column:
    """One source's undelivered lines, in arrival order."""

    __slots__ = ("stamps", "lines", "position")

    def __init__(self, stamps: array, lines: List[str]) -> None:
        self.stamps = stamps
        self.lines = lines
        #: first undelivered line
        self.position = 0


class FeedReplayer:
    """Replays a (time, source, line) stream into a collector in steps.

    A test/demo harness standing in for live feed transports: call
    :meth:`deliver_until` to push everything stamped at or before a
    cutoff through the Data Collector's parsers, then advance the
    :class:`StreamingRca` with the same cutoff.

    The stream is kept per source, in arrival order: the stamps in an
    ``array('d')`` and the lines in a list, so the caller's tuples are
    not kept.  Lines are delivered in ``(time, source)`` order, equal
    stamps of one source in stream order.  A column drops what it has
    delivered once that is half of it or more (all of it when the source
    is delivered to its end), so the replayer holds the undelivered
    lines and at most as many delivered ones.

    An item is refused at construction, with a ``ValueError`` naming
    it, when its source has no parser in the collector or its stamp is
    not finite (NaN, ±inf): no line of such a stream is delivered.
    """

    def __init__(self, collector, stream: Iterable[Tuple[float, str, str]]) -> None:
        self.collector = collector
        self._columns = self._split(collector.parsers, stream)
        self._pending = sum(len(column.lines) for column in self._columns.values())

    @staticmethod
    def _split(parsers, stream: Iterable[Tuple[float, str, str]]) -> Dict[str, _Column]:
        by_source: Dict[str, Tuple[List[float], List[str]]] = {}
        for stamp, source, line in stream:
            try:
                stamps, lines = by_source[source]
            except KeyError:
                if source not in parsers:
                    item = (stamp, source, line)
                    raise ValueError(
                        f"stream item {item!r}: no parser for source {source!r}"
                    ) from None
                stamps, lines = by_source[source] = ([], [])
            stamps.append(stamp)
            lines.append(line)
        columns = {}
        for source, (stamps, lines) in by_source.items():
            if not math.isfinite(sum(stamps)):  # NaN and ±inf survive the sum
                for stamp, line in zip(stamps, lines):
                    if not math.isfinite(stamp):
                        item = (stamp, source, line)
                        raise ValueError(f"stream item {item!r}: timestamp is not finite")
            ordered = sorted(stamps)
            if ordered != stamps:  # stable: equal stamps keep stream order
                order = sorted(range(len(stamps)), key=stamps.__getitem__)
                lines = [lines[k] for k in order]
            columns[source] = _Column(array("d", ordered), lines)
        return columns

    @property
    def pending(self) -> int:
        return self._pending

    def deliver_until(self, cutoff: float) -> int:
        """Ingest every line stamped at or before ``cutoff``."""
        due = []
        for source, column in self._columns.items():
            position = column.position
            end = bisect.bisect_right(column.stamps, cutoff, position)
            if end > position:
                due.append((column.stamps[position], source, column, end))
        due.sort()  # by first due stamp, then by name (names are unique)
        batches = []
        for _first, source, column, end in due:
            batches.append((source, column.lines[column.position:end]))
            if 2 * end >= len(column.lines):
                del column.stamps[:end], column.lines[:end]
                column.position = 0
            else:
                column.position = end
        delivered = sum(len(lines) for _source, lines in batches)
        self._pending -= delivered
        for source, lines in batches:
            # the cutoff is the observation clock: feeds whose newest
            # record trails it are genuinely behind
            self.collector.ingest(source, lines, now=cutoff)
        return delivered
