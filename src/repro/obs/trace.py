"""Diagnosis tracing: span trees mirroring the diagnosis-graph walk.

The paper sells G-RCA on *explainability*: every conclusion is the
product of inspectable steps — a walk over the diagnosis graph, a
six-parameter temporal-join evaluation per rule (Fig. 3), location
conversions to a join level (Fig. 2), and a priority-reasoning pass
(Section II-D).  Once diagnoses run on a concurrent worker pool (PR 2)
those steps disappear into threads; this module makes them observable
again without giving up the hot path.

A :class:`Tracer` records a tree of :class:`Span` objects — one span
per diagnosis-graph node visit, with child spans for store queries,
temporal joins, spatial joins and reasoning — each carrying timing,
record counts and rule identity.  Tracing is strictly opt-in: the
default :data:`NULL_TRACER` is a no-op whose ``span()`` returns one
shared context-manager singleton, so untraced diagnoses allocate
nothing and time nothing.

Span kinds emitted by the engine stack (the trace "schema"):

========== =============================================================
kind        meaning
========== =============================================================
run         one whole CLI/benchmark run (root; covers every diagnosis)
job         one service job executed by a worker (root on that path)
advance     one streaming advance (root on the streaming path)
detect      symptom retrieval (``RcaEngine.find_symptoms``, every path)
diagnose    one symptom diagnosed by the engine
node        one diagnosis-graph node visit (the BFS frontier pop)
rule        one diagnosis rule (edge) evaluated out of a node
retrieve    one candidate retrieval (engine retrieval cache in front)
store-query one Data Collector table read issued by a retrieval
temporal-join  the Fig. 3 six-parameter joins for one rule's candidates
spatial-join   the Fig. 2 location conversions/joins for the survivors
reason      the rule-based reasoning / confidence scoring pass
========== =============================================================

Determinism: span *shape* (kinds, labels, order, counts — everything
except timings) is a pure function of the store contents and the
diagnosis graph, so golden tests pin :meth:`Span.shape`; timings are
deterministic too when the tracer is built with a fixed clock such as
:class:`SteppingClock`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Version tag embedded in every exported trace document.
TRACE_SCHEMA = "grca-trace/1"


@dataclass
class Span:
    """One timed step of a diagnosis, with children for its sub-steps.

    ``meta`` carries structural detail (record counts, rule identity,
    windows, priorities) — everything a golden test may pin; ``start``
    and ``end`` are clock readings and are excluded from
    :meth:`shape`.  Spans compare by value but tracing never relies on
    equality; identity matters only for leak tests.
    """

    kind: str
    label: str = ""
    start: float = 0.0
    end: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Inclusive wall time of this span (never negative)."""
        return max(0.0, self.end - self.start)

    @property
    def self_seconds(self) -> float:
        """Exclusive time: duration minus the children's durations.

        Summing ``self_seconds`` over a whole tree never exceeds the
        root's duration, which is what makes per-stage breakdowns add
        up (the acceptance property of ``diagnose --trace``).
        """
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def count(self, key: str, amount: int = 1) -> None:
        """Increment an integer counter in this span's ``meta``."""
        self.meta[key] = self.meta.get(key, 0) + amount

    def annotate(self, **meta: Any) -> None:
        """Merge keyword details into this span's ``meta``."""
        self.meta.update(meta)

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, kind: str) -> List["Span"]:
        """Every span of one kind in this subtree, in walk order."""
        return [span for span in self.walk() if span.kind == kind]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON export (see :data:`TRACE_SCHEMA`)."""
        return {
            "kind": self.kind,
            "label": self.label,
            "start": self.start,
            "duration": self.duration,
            "meta": dict(self.meta),
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        """Rebuild a span tree from its :meth:`to_dict` form."""
        return cls(
            kind=data["kind"],
            label=data.get("label", ""),
            start=data.get("start", 0.0),
            end=data.get("start", 0.0) + data.get("duration", 0.0),
            meta=dict(data.get("meta", {})),
            children=[cls.from_dict(child) for child in data.get("children", [])],
        )

    def shape(self) -> Dict[str, Any]:
        """The timing-free structure golden tests pin.

        Node order, kinds, labels and ``meta`` (rule ids, priorities,
        record counts, windows) are kept; ``start``/``duration`` are
        dropped — a golden trace must not depend on the machine.
        """
        return {
            "kind": self.kind,
            "label": self.label,
            "meta": dict(self.meta),
            "children": [child.shape() for child in self.children],
        }


class _NullSpan:
    """The span all no-op contexts yield: accepts and discards detail."""

    __slots__ = ()
    kind = ""
    label = ""
    meta: Dict[str, Any] = {}
    children: List[Span] = []

    def count(self, key: str, amount: int = 1) -> None:
        """Discard a counter increment."""

    def annotate(self, **meta: Any) -> None:
        """Discard annotations."""


class _NullSpanContext:
    """Reusable context manager yielding the shared null span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """The default tracer: does nothing, allocates nothing.

    Every tracing call site in the engine stack goes through this
    object when tracing is off; its methods return shared singletons so
    the per-call cost is one attribute lookup and one no-op call.
    """

    enabled = False

    @property
    def root(self) -> Optional[Span]:
        """Always ``None`` — nothing was recorded."""
        return None

    @property
    def roots(self) -> List[Span]:
        """Always empty."""
        return []

    def span(self, kind: str, label: str = "", **meta: Any) -> _NullSpanContext:
        """A no-op context manager (one shared instance)."""
        return _NULL_CONTEXT

    def count(self, key: str, amount: int = 1) -> None:
        """Discard a counter increment."""

    def annotate(self, **meta: Any) -> None:
        """Discard annotations."""

    def current(self) -> Optional[Span]:
        """No active span, ever."""
        return None


#: Shared no-op tracer used wherever tracing is off.
NULL_TRACER = NullTracer()


class _SpanContext:
    """Context manager pairing one ``begin`` with its ``finish``."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc: Any) -> bool:
        self._tracer.finish(self._span)
        return False


class Tracer:
    """Records a span tree for one unit of work.

    A tracer is *not* thread-safe and is never shared across jobs:
    every traced diagnosis (or service job, or streaming advance) gets
    its own instance, and the finished tree travels with the result —
    that is how spans survive thread and fork workers without
    cross-job leakage.

    ``clock`` is injectable; pass :class:`SteppingClock` for
    deterministic timings in tests.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    @property
    def root(self) -> Optional[Span]:
        """The first top-level span recorded (usually the only one)."""
        return self.roots[0] if self.roots else None

    def span(self, kind: str, label: str = "", **meta: Any) -> _SpanContext:
        """Open a child span of the current span (context manager)."""
        return _SpanContext(self, self.begin(kind, label, **meta))

    def begin(self, kind: str, label: str = "", **meta: Any) -> Span:
        """Start a span explicitly; pair with :meth:`finish`."""
        span = Span(kind=kind, label=label, start=self.clock(), meta=dict(meta))
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def finish(self, span: Optional[Span] = None) -> Span:
        """Close the current span (which must be ``span`` when given)."""
        if not self._stack:
            raise RuntimeError("no span is open")
        top = self._stack.pop()
        if span is not None and top is not span:
            raise RuntimeError(
                f"span nesting violated: closing {span.kind!r} but "
                f"{top.kind!r} is open"
            )
        top.end = self.clock()
        return top

    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def count(self, key: str, amount: int = 1) -> None:
        """Increment a counter on the innermost open span (if any)."""
        if self._stack:
            self._stack[-1].count(key, amount)

    def annotate(self, **meta: Any) -> None:
        """Merge details into the innermost open span (if any)."""
        if self._stack:
            self._stack[-1].meta.update(meta)


class SteppingClock:
    """A deterministic clock: each reading advances by a fixed step.

    Gives golden tests and doc examples reproducible timings —
    ``SteppingClock()`` reads 0, 1, 2, ... on successive calls.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        self._now = start
        self.step = step

    def __call__(self) -> float:
        """Return the current reading, then advance by ``step``."""
        now = self._now
        self._now += self.step
        return now
