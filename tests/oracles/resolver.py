"""A reference location resolver: every expansion recomputed, nothing cached.

``LocationResolver`` memoizes expansions in an LRU keyed by the routing
epoch each one reads.  This subclass is what the cache must be invisible
against: same handlers, same unresolvable-location rule, but no epoch
keys, no LRU and no counters — the routing state is re-simulated on
every call.
"""

from typing import FrozenSet

from repro.core.locations import Location
from repro.core.spatial import (
    _HANDLERS,
    _LEVEL_CANONICAL,
    JoinLevel,
    LocationResolver,
)


class ReferenceResolver(LocationResolver):
    """``LocationResolver`` minus the resolution cache."""

    def expand(
        self, location: Location, level: JoinLevel, timestamp: float, trace=None
    ) -> FrozenSet[str]:
        level = _LEVEL_CANONICAL.get(level, level)
        if level is JoinLevel.NETWORK:
            return frozenset({"network"})
        if level is JoinLevel.SAME_LOCATION:
            return frozenset({str(location)})
        return self._compute(_HANDLERS[location.type], location, level, timestamp)
