"""Derived (refined) event signatures.

Section IV-B hits the limit of evidence-based diagnosis on a *cyclic*
causal relationship: "BGP flap causes CPU overload" and "CPU overload
causes BGP session timeout".  The paper's way out is "further refined
signatures such as searching for other potential causes of the high CPU
events to identify those that were not BGP-flap-induced" — and
Section VI lists dealing with such cycles as future work.

These combinators build refined signatures compositionally:

* :func:`exclude_preceded_by` — keep base instances *not* preceded by a
  suppressor event at the same router (e.g. "CPU high (spike), not
  explained by a preceding BGP flap burst": the exogenous CPU events
  that can legitimately explain a flap);
* :func:`require_preceded_by` — the complement, for drilling into the
  suppressed population.
"""

from __future__ import annotations

from typing import Callable, Iterable

from ..events import CandidateSet, EventDefinition, RetrievalContext, Row
from ..locations import Location


def _same_scope(a: Location, b: Location) -> bool:
    """Same router where determinable, else same exact location."""
    try:
        return a.router_part == b.router_part
    except ValueError:
        return a == b


def _preceded(
    start: float,
    location: Location,
    suppressors: CandidateSet,
    window: float,
    slack: float,
) -> bool:
    for suppressed_at, scope in zip(suppressors.starts, suppressors.locations):
        if not _same_scope(location, scope):
            continue
        lead = start - suppressed_at
        if -slack <= lead <= window:
            return True
    return False


def _combined_retrieval(
    base: EventDefinition,
    suppressor: EventDefinition,
    window: float,
    slack: float,
    keep_preceded: bool,
) -> Callable[[RetrievalContext], Iterable[Row]]:
    def retrieve(context: RetrievalContext) -> Iterable[Row]:
        wide = RetrievalContext(
            store=context.store,
            start=context.start - window - slack,
            end=context.end + slack,
            params=context.params,
            services=context.services,
        )
        suppressors = suppressor.retrieve(wide)
        # the base's rows; ``retrieve`` stamps this definition's name
        for row in base.retrieve(context).rows():
            if _preceded(row[0], row[2], suppressors, window, slack) == keep_preceded:
                yield row

    return retrieve


def exclude_preceded_by(
    name: str,
    base: EventDefinition,
    suppressor: EventDefinition,
    window: float,
    slack: float = 5.0,
    description: str = "",
) -> EventDefinition:
    """Base instances NOT preceded by a same-router suppressor instance.

    ``window`` is how far back a suppressor can be and still explain the
    base event; ``slack`` tolerates timestamp noise around simultaneity.
    """
    return EventDefinition(
        name=name,
        location_type=base.location_type,
        retrieval=_combined_retrieval(base, suppressor, window, slack, False),
        description=description
        or f"{base.name} not preceded by {suppressor.name} within {window:.0f}s",
        data_source=base.data_source,
    )


def require_preceded_by(
    name: str,
    base: EventDefinition,
    suppressor: EventDefinition,
    window: float,
    slack: float = 5.0,
    description: str = "",
) -> EventDefinition:
    """Base instances that ARE preceded by a same-router suppressor."""
    return EventDefinition(
        name=name,
        location_type=base.location_type,
        retrieval=_combined_retrieval(base, suppressor, window, slack, True),
        description=description
        or f"{base.name} preceded by {suppressor.name} within {window:.0f}s",
        data_source=base.data_source,
    )
