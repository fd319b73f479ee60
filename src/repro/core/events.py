"""Event model: definitions, instances and the definition library.

Section II-A: an *event definition* is a tuple (event-name, location
type, retrieval process, additional descriptive information); the
retrieval process "points to the actual scripts/queries needed to obtain
the matching event instances".  An *event instance* is (event-name,
start-time, end-time, location, additional info).

Here the retrieval process is a callable taking a
:class:`RetrievalContext` (the store plus a time range and tunable
parameters) and yielding :class:`EventInstance` objects.  Definitions
live in an :class:`EventLibrary`; applications may *redefine* any library
event ("the event 'link congestion alarm' ... can be easily redefined as
'>= 90% link utilization'") by registering an override.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..collector.store import DataStore
from .locations import Location, LocationType


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
        if self.end < self.start:
            raise ValueError(
                f"event {self.name!r} ends ({self.end}) before start ({self.start})"
            )

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
    inference).  ``location_hint`` optionally narrows retrieval to
    locations relevant to one symptom — a pushdown, never a correctness
    requirement.
    """

    store: DataStore
    start: float
    end: float
    params: Dict[str, Any] = field(default_factory=dict)
    services: Dict[str, Any] = field(default_factory=dict)
    location_hint: Optional[Dict[str, Any]] = None

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


RetrievalProcess = Callable[[RetrievalContext], Iterable[EventInstance]]

#: the order retrieved instances are kept in: by ``(start, end)``
_BY_INTERVAL = attrgetter("start", "end")

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


@dataclass(frozen=True)
class EventDefinition:
    """(event-name, location type, retrieval process, description)."""

    name: str
    location_type: LocationType
    retrieval: RetrievalProcess
    description: str = ""
    data_source: str = ""

    def retrieve(self, context: RetrievalContext) -> List[EventInstance]:
        """Run the retrieval process, validating instance conformance."""
        instances = []
        for instance in self.retrieval(context):
            if instance.name != self.name:
                raise ValueError(
                    f"retrieval for {self.name!r} produced instance named "
                    f"{instance.name!r}"
                )
            if instance.location.type is not self.location_type:
                raise ValueError(
                    f"event {self.name!r} declares location type "
                    f"{self.location_type.value} but produced "
                    f"{instance.location.type.value}"
                )
            instances.append(instance)
        instances.sort(key=_BY_INTERVAL)
        return instances

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
) -> Dict[str, List[EventInstance]]:
    """Retrieve instances for several event definitions at once."""
    return {name: library.get(name).retrieve(context) for name in names}
