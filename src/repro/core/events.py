"""Event model: definitions, instances and the definition library.

Section II-A: an *event definition* is a tuple (event-name, location
type, retrieval process, additional descriptive information); the
retrieval process "points to the actual scripts/queries needed to obtain
the matching event instances".  An *event instance* is (event-name,
start-time, end-time, location, additional info).

Here the retrieval process is a callable taking a
:class:`RetrievalContext` (the store plus a time range and tunable
parameters) and yielding plain rows ``(start, end, location, info)``,
``info`` being ``(key, value)`` pairs sorted by key; anything else (an
``EventInstance`` too) is a ``ValueError`` naming the definition.
:meth:`EventDefinition.retrieve` checks every row, stamps the
definition's name and returns one :class:`CandidateSet`: the rows as
columns, an instance built only for a row someone reads.  Definitions
live in an :class:`EventLibrary`; applications may *redefine* any
library event ("the event 'link congestion alarm' ... can be easily
redefined as '>= 90% link utilization'") by registering an override.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..collector.store import DataStore
from .locations import Location, LocationType
from .temporal import IntervalColumns


_INF = float("inf")


def check_interval(name: str, start: float, end: float) -> None:
    """The one interval rule of an event: finite ``start <= end`` (a NaN
    or infinite bound would file an unbounded engine search window)."""
    if not -_INF < start <= end < _INF:
        raise ValueError(
            f"event {name!r} needs finite start <= end, got [{start}, {end}]"
        )


@dataclass(frozen=True, slots=True)
class EventInstance:
    """One occurrence of an event: when, where and extra detail."""

    name: str
    start: float
    end: float
    location: Location
    info: Tuple[Tuple[str, Any], ...] = ()
    #: the hash of the five fields above, once something asked for it
    _hash: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_interval(self.name, self.start, self.end)

    def __hash__(self) -> int:
        # instances sit in dedupe sets and cache keys on the diagnosis
        # hot path; the generated frozen-dataclass hash would re-hash
        # the nested location/info tuple on every lookup
        value = self._hash
        if value is None:
            value = hash(
                (self.name, self.start, self.end, self.location, self.info)
            )
            object.__setattr__(self, "_hash", value)
        return value

    @classmethod
    def make(
        cls,
        name: str,
        start: float,
        end: float,
        location: Location,
        **info: Any,
    ) -> "EventInstance":
        return cls(name, start, end, location, tuple(sorted(info.items())))

    @property
    def interval(self) -> Tuple[float, float]:
        return (self.start, self.end)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def get(self, key: str, default: Any = None) -> Any:
        """Field value by name, with a default when absent."""
        for name, value in self.info:
            if name == key:
                return value
        return default

    def __str__(self) -> str:
        return f"{self.name}@{self.location} [{self.start:.0f},{self.end:.0f}]"


@dataclass(slots=True)
class RetrievalContext:
    """What a retrieval process gets: the store, a window, parameters.

    ``params`` carries per-application overrides (thresholds, flap
    pairing windows); ``services`` carries shared substrate handles that
    some retrievals need (e.g. the OSPF weight history for cost-in/out
    inference).
    """

    store: DataStore
    start: float
    end: float
    params: Dict[str, Any] = field(default_factory=dict)
    services: Dict[str, Any] = field(default_factory=dict)

    def param(self, key: str, default: Any = None) -> Any:
        """Retrieval parameter by key, with a default."""
        return self.params.get(key, default)

    def service(self, key: str) -> Any:
        """Substrate handle by key; raises with the available keys."""
        try:
            return self.services[key]
        except KeyError:
            raise KeyError(
                f"retrieval requires service {key!r}; "
                f"available: {sorted(self.services)}"
            ) from None


#: What a retrieval process yields: ``(start, end, location, info)``.
Row = Tuple[float, float, Location, Tuple[Tuple[str, Any], ...]]

RetrievalProcess = Callable[[RetrievalContext], Iterable[Row]]

#: the order retrieved rows are kept in: by ``(start, end)``, stably
_BY_INTERVAL = itemgetter(0, 1)

#: parts -> (the location, ascending row indices)
LocationIndex = Dict[Tuple[str, ...], Tuple[Location, List[int]]]

#: An instance's canonical identity: (name, location parts, start rounded
#: to 0.1 s).  Hashable and order-insensitive to retrieval jitter.
InstanceKey = Tuple[str, Tuple[str, ...], float]


def instance_key(instance: EventInstance) -> InstanceKey:
    """Canonical identity of an event instance.

    Two retrievals of the same underlying occurrence must map to the
    same key even when float arithmetic wobbles in the sub-decisecond
    range.  This single definition backs both the streaming engine's
    de-duplication and the service layer's result cache — they must
    agree, or a symptom deduped by one would be re-diagnosed by the
    other.
    """
    return (instance.name, instance.location.parts, round(instance.start, 1))


class CandidateSet:
    """One event's retrieved rows as index-aligned columns, sorted by
    ``(start, end)`` with ties in retrieval order.

    Row ``k`` becomes an :class:`EventInstance` — once, memoized — only
    when someone reads it (``candidates[k]``, iteration).  The joins read
    the columns: every rule/parent joining one cached cover shares its
    :attr:`columns` (and their end-sorted permutation), its
    :attr:`location_index` and its locations' spatial :attr:`expansions`.
    """

    __slots__ = (
        "name", "starts", "ends", "locations", "infos", "columns", "expansions",
        "_instances", "_location_index",
    )

    def __init__(self, name: str, starts=(), ends=(), locations=(), infos=()) -> None:
        self.name = name
        self.starts, self.ends, self.locations, self.infos = starts, ends, locations, infos
        self.columns = IntervalColumns(starts, ends)
        self._instances: Dict[int, EventInstance] = {}
        self._location_index: Optional[LocationIndex] = None
        #: :meth:`~repro.core.spatial.LocationResolver.static_expansions`'
        #: memo: (join level, topology generation) -> parts -> expansion
        self.expansions: Dict[Tuple[Any, int], Any] = {}

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, k: int) -> EventInstance:
        """Row ``k`` as an instance, built on first read."""
        return self._instances.get(k) or self._build(k)

    def take(self, ks: Iterable[int]) -> List[EventInstance]:
        """Rows ``ks`` as instances: ``[self[k] for k in ks]``."""
        get, build = self._instances.get, self._build
        return [get(k) or build(k) for k in ks]

    def _build(self, k: int) -> EventInstance:
        instance = self._instances[k] = EventInstance(
            self.name, self.starts[k], self.ends[k], self.locations[k], self.infos[k]
        )
        return instance

    def __iter__(self):
        return iter(self.take(range(len(self.starts))))

    def rows(self) -> Iterable[Row]:
        """The rows as a retrieval yields them — no instance is built."""
        return zip(self.starts, self.ends, self.locations, self.infos)

    @property
    def location_index(self) -> LocationIndex:
        """parts -> (the location, ascending row indices); memoized.

        Storm covers repeat a handful of distinct locations, so the
        spatial stage decides once per location, not per candidate.  A
        set holds one event's rows, hence one location type, so the
        parts identify the location.
        """
        if self._location_index is None:
            index: LocationIndex = {}
            for k, location in enumerate(self.locations):
                entry = index.get(location.parts)
                if entry is None:
                    index[location.parts] = (location, [k])
                else:
                    entry[1].append(k)
            self._location_index = index
        return self._location_index


#: What every retrieval that found nothing returns: no rows, no lists.
EMPTY = CandidateSet("")


@dataclass(frozen=True)
class EventDefinition:
    """(event-name, location type, retrieval process, description)."""

    name: str
    location_type: LocationType
    retrieval: RetrievalProcess
    description: str = ""
    data_source: str = ""

    def retrieve(self, context: RetrievalContext) -> CandidateSet:
        """Run the retrieval process; check every row, sort stably by
        ``(start, end)`` and keep the rows as columns."""
        rows = list(self.retrieval(context))
        if not rows:
            return EMPTY
        located = self.location_type
        for row in rows:
            try:
                start, end, location, _info = row
            except (TypeError, ValueError):
                raise ValueError(
                    f"{self.name!r} retrieval yielded a non-row {row!r}"
                ) from None
            if location.type is not located:
                raise ValueError(
                    f"event {self.name!r} declares location type "
                    f"{located.value} but produced {location.type.value}"
                )
            check_interval(self.name, start, end)
        rows.sort(key=_BY_INTERVAL)
        return CandidateSet(self.name, *zip(*rows))

    def redefined(self, retrieval: RetrievalProcess, description: str = "") -> "EventDefinition":
        """A copy of this definition with a replacement retrieval."""
        return replace(
            self, retrieval=retrieval, description=description or self.description
        )


class EventLibrary:
    """Named event definitions with application-level overrides.

    The base layer is the shared Knowledge Library; each application may
    stack overrides on top without mutating the shared definitions.
    """

    def __init__(self, base: Optional["EventLibrary"] = None) -> None:
        self._base = base
        self._definitions: Dict[str, EventDefinition] = {}

    def register(self, definition: EventDefinition) -> EventDefinition:
        """Register a new definition; duplicates are rejected."""
        if definition.name in self._definitions:
            raise ValueError(f"event {definition.name!r} already registered")
        self._definitions[definition.name] = definition
        return definition

    def override(self, definition: EventDefinition) -> EventDefinition:
        """Register or replace — the application-redefinition path."""
        self._definitions[definition.name] = definition
        return definition

    def get(self, name: str) -> EventDefinition:
        """Definition by name, consulting base libraries; raises KeyError."""
        if name in self._definitions:
            return self._definitions[name]
        if self._base is not None:
            return self._base.get(name)
        raise KeyError(f"no event definition named {name!r}")

    def __contains__(self, name: str) -> bool:
        if name in self._definitions:
            return True
        return self._base is not None and name in self._base

    def names(self) -> List[str]:
        """All definition names visible from this library."""
        collected = set(self._definitions)
        if self._base is not None:
            collected.update(self._base.names())
        return sorted(collected)

    def scoped(self) -> "EventLibrary":
        """A child library that sees this one but keeps its own overrides."""
        return EventLibrary(base=self)


def retrieve_events(
    library: EventLibrary,
    names: Iterable[str],
    context: RetrievalContext,
) -> Dict[str, CandidateSet]:
    """Retrieve the candidates of several event definitions at once."""
    return {name: library.get(name).retrieve(context) for name in names}
