"""Location model (Fig. 2): the location types an event can carry.

Every event definition names a *location type*; every event instance
carries a concrete :class:`Location` of that type.  The spatial join
converts symptom and diagnostic locations to a common *join level* (see
:mod:`repro.core.spatial`), so applications never manipulate topology or
routing state directly.

The ``A:B`` pair notation of the paper ("Ingress:Egress") maps to the
pair-valued location types below.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


class LocationType(enum.Enum):
    """Location types of the spatial model (Fig. 2)."""

    ROUTER = "router"
    INTERFACE = "interface"
    LINE_CARD = "line-card"
    LOGICAL_LINK = "logical-link"
    PHYSICAL_LINK = "physical-link"
    LAYER1_DEVICE = "layer1-device"
    #: a router paired with a (typically external) BGP/PIM neighbor IP
    ROUTER_NEIGHBOR = "router:neighbor-ip"
    #: end-to-end, both endpoints outside the ISP
    SOURCE_DESTINATION = "source:destination"
    SOURCE_INGRESS = "source:ingress"
    INGRESS_DESTINATION = "ingress:destination"
    INGRESS_EGRESS = "ingress:egress"
    EGRESS_DESTINATION = "egress:destination"
    #: a routed prefix (used by BGP egress-change events)
    PREFIX = "prefix"
    #: a CDN cache server
    SERVER = "server"

    @property
    def arity(self) -> int:
        """Number of parts a location of this type carries."""
        return _ARITY[self]


_ARITY = {
    LocationType.ROUTER: 1,
    LocationType.INTERFACE: 1,
    LocationType.LINE_CARD: 1,
    LocationType.LOGICAL_LINK: 1,
    LocationType.PHYSICAL_LINK: 1,
    LocationType.LAYER1_DEVICE: 1,
    LocationType.ROUTER_NEIGHBOR: 2,
    LocationType.SOURCE_DESTINATION: 2,
    LocationType.SOURCE_INGRESS: 2,
    LocationType.INGRESS_DESTINATION: 2,
    LocationType.INGRESS_EGRESS: 2,
    LocationType.EGRESS_DESTINATION: 2,
    LocationType.PREFIX: 1,
    LocationType.SERVER: 1,
}


@dataclass(frozen=True, slots=True)
class Location:
    """A concrete location: a type plus its identifier part(s).

    Single-part examples: ``Location.router("nyc-per1")``,
    ``Location.interface("nyc-per1:se1/0")``.  Pair examples:
    ``Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "chi-per1")``.
    """

    type: LocationType
    parts: Tuple[str, ...]
    #: the hash of the two fields above, once something asked for it
    _hash: Optional[int] = field(default=None, init=False, compare=False, repr=False)
    #: its shared ``grca-diagnosis/1`` document, once something encoded
    #: it (``repro.core.serialize.location_to_dict``)
    _document: Optional[dict] = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if len(self.parts) != self.type.arity:
            raise ValueError(
                f"location type {self.type.value} takes {self.type.arity} "
                f"part(s), got {self.parts!r}"
            )
        if any(not part for part in self.parts):
            raise ValueError(f"empty location part in {self.parts!r}")

    def __hash__(self) -> int:
        # locations key resolver caches, verdict maps and dedupe sets;
        # the generated frozen-dataclass hash would re-hash the parts
        # tuple (and the enum) on every lookup
        value = self._hash
        if value is None:
            value = hash((self.type, self.parts))
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self):
        # a copy, or another process, starts without this process's
        # memos: a ``str`` hash is salted per process
        return Location, (self.type, self.parts)

    # -- constructors --------------------------------------------------

    @classmethod
    def _interned(
        cls, location_type: LocationType, name: str, other: Optional[str] = None
    ) -> "Location":
        """Constructor through a bounded intern table: one part, or a
        pair's two (``other`` is the second).

        Retrieval processes mint the same few hundred locations over
        and over (one per record or episode), and decoded diagnoses
        repeat them as well; handing back one shared instance keeps
        allocations — and the cached hash and encoded document —
        amortized across the whole run.  Parts are
        strings: ``1``, ``1.0`` and ``True`` would share one key.
        """
        if other is None:
            key: tuple = (location_type, name)
        else:
            key = (location_type, name, other)
        location = _INTERNED.get(key)
        if location is None:
            location = cls(location_type, key[1:])
            if len(_INTERNED) < _INTERN_CAP:
                _INTERNED[key] = location
        return location

    @classmethod
    def router(cls, name: str) -> "Location":
        """Look up a router by name."""
        return cls._interned(LocationType.ROUTER, name)

    @classmethod
    def interface(cls, fqname: str) -> "Location":
        if ":" not in fqname:
            raise ValueError(f"interface location must be router:ifname, got {fqname!r}")
        return cls._interned(LocationType.INTERFACE, fqname)

    @classmethod
    def line_card(cls, fqname: str) -> "Location":
        return cls._interned(LocationType.LINE_CARD, fqname)

    @classmethod
    def logical_link(cls, name: str) -> "Location":
        """Look up a logical link by name."""
        return cls._interned(LocationType.LOGICAL_LINK, name)

    @classmethod
    def physical_link(cls, name: str) -> "Location":
        """Look up a physical circuit by name."""
        return cls._interned(LocationType.PHYSICAL_LINK, name)

    @classmethod
    def layer1_device(cls, name: str) -> "Location":
        return cls._interned(LocationType.LAYER1_DEVICE, name)

    @classmethod
    def router_neighbor(cls, router: str, neighbor_ip: str) -> "Location":
        return cls._interned(LocationType.ROUTER_NEIGHBOR, router, neighbor_ip)

    @classmethod
    def pair(cls, location_type: LocationType, a: str, b: str) -> "Location":
        return cls._interned(location_type, a, b)

    @classmethod
    def prefix(cls, prefix: str) -> "Location":
        return cls._interned(LocationType.PREFIX, prefix)

    @classmethod
    def server(cls, name: str) -> "Location":
        return cls._interned(LocationType.SERVER, name)

    # -- accessors ------------------------------------------------------

    @property
    def value(self) -> str:
        """Single-part value (raises for pair locations)."""
        if len(self.parts) != 1:
            raise ValueError(f"{self.type.value} location has {len(self.parts)} parts")
        return self.parts[0]

    @property
    def router_part(self) -> str:
        """The router component, where the type has an obvious one."""
        if self.type in (LocationType.ROUTER,):
            return self.parts[0]
        if self.type in (LocationType.INTERFACE, LocationType.LINE_CARD):
            return self.parts[0].partition(":")[0]
        if self.type is LocationType.ROUTER_NEIGHBOR:
            return self.parts[0]
        raise ValueError(f"no router part in {self.type.value} location")

    def __str__(self) -> str:
        return f"{self.type.value}[{':'.join(self.parts)}]"


#: intern table for locations (see ``Location._interned``);
#: bounded so adversarial name churn cannot grow it without limit
_INTERNED: dict = {}
_INTERN_CAP = 4096
