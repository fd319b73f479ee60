"""``CandidateSet`` against the eager instance list it stands for.

A retrieval process yields plain rows ``(start, end, location, info)``;
``EventDefinition.retrieve`` checks each, sorts them by ``(start, end)``
— a key, so rows with equal intervals stay in retrieval order — and
keeps them as columns, and a row becomes an ``EventInstance`` only when
someone reads it.  That must be invisible.  For every event definition
the three paper applications and the Knowledge Library register (and
the two derived combinators over library events), the materialized set
is, field by field and in order, the eager list ``retrieve`` returned
when retrievals built their own instances: one instance per row,
sorted by ``attrgetter("start", "end")``.  Checked on the paper apps'
seeded worlds and a provisioning storm (whose digests below were taken
from that eager list, before retrievals yielded rows), and on
hypothesis worlds: ``test_differential.py``'s generated libraries and
bare row lists full of equal intervals.

Each of these mutations fails the tests named after it:

* the sort compares whole rows instead of the ``(start, end)`` key: the
  seeded worlds with tied rows (bgp, cdn, storm) and both hypothesis
  tests;
* the sort keys on ``start`` alone: the bgp world and both hypothesis
  tests;
* the memo hands back a neighbouring row's instance (in ``take`` or in
  ``__getitem__``): every test;
* the location-type check skipped: every seeded world and
  ``test_generated_rows`` (a definition claiming another type must be
  refused).
"""

import dataclasses
import hashlib
from operator import attrgetter

import pytest
from hypothesis import given, settings, strategies as st

from repro.collector.store import DataStore
from repro.core.events import EventDefinition, EventInstance, RetrievalContext
from repro.core.knowledge import names
from repro.core.knowledge.derived import exclude_preceded_by, require_preceded_by
from repro.core.locations import Location, LocationType

from .storm import mvpn_storm
from .test_differential import PAPER_APPS, draw_world

#: sha256 over every (definition, window) of :func:`seeded_retrievals`:
#: a ``"<event> <lo> <hi>"`` line, then one ``repr`` line per instance
#: of the eager sorted list — taken from the retrievals that built one
#: ``EventInstance`` per row themselves.
DIGESTS = {
    "bgp-month": "1d3f99be82b09074f93b326836b59ce54b313f721eba82677b544287cfc5cee1",
    "cdn-month": "403caa7eae0e470415eb0808870cc9c237ad678254270415cccfe559f25ddfe5",
    "pim-fortnight": "bf944b311d3b2ea1cc92914077c0de430011b5a96982dbf3041919f27a95502f",
    "mvpn-storm": "f7948042bdc2dc16a21e026cd802f6bbcbfdd27329f89cf7e341223cda4b7b23",
}

#: how many rows each seeded world retrieves over all its windows, and
#: how many of them follow a row with an equal interval (the ties a
#: stable sort must keep in retrieval order)
ROWS = {
    "bgp-month": (1201, 25),
    "cdn-month": (290, 129),
    "pim-fortnight": (1197, 0),
    "mvpn-storm": (21845, 21469),
}


def eager(definition, context):
    """What ``retrieve`` returned when a retrieval built its instances:
    one per row, sorted by interval, ties in retrieval order."""
    instances = [
        EventInstance(definition.name, *row) for row in definition.retrieval(context)
    ]
    instances.sort(key=attrgetter("start", "end"))
    return instances


def fields(instance):
    return (
        instance.name, instance.start, instance.end, instance.location, instance.info
    )


def assert_materializes_as(candidates, instances):
    """The set reads as ``instances``: iterated, indexed in any order,
    and column by column."""
    assert len(candidates) == len(instances)
    assert [fields(i) for i in candidates] == [fields(i) for i in instances]
    backwards = [candidates[k] for k in reversed(range(len(instances)))]
    assert backwards == instances[::-1]
    assert all(a is b for a, b in zip(candidates, backwards[::-1]))  # memoized
    assert list(candidates.starts) == [i.start for i in instances]
    assert list(candidates.ends) == [i.end for i in instances]
    assert list(candidates.locations) == [i.location for i in instances]
    assert list(candidates.rows()) == [fields(i)[1:] for i in instances]


def another_type(location_type):
    return (
        LocationType.SERVER if location_type is not LocationType.SERVER
        else LocationType.ROUTER
    )


# ---------------------------------------------------------------------------
# seeded worlds


def seeded_world(name):
    """``(app, start, end)`` of one seeded world."""
    if name == "mvpn-storm":
        app, _symptoms, action = mvpn_storm()
        return app, action - 3600.0, action + 3600.0
    simulate, app_cls = PAPER_APPS[name]
    result = simulate()
    return app_cls.build(result.platform()), result.start, result.end


def definitions(library):
    """Every definition the library registers, plus the two derived
    combinators over two of its events."""
    for event in library.names():
        yield library.get(event)
    base, suppressor = library.get(names.INTERFACE_FLAP), library.get(names.LINEPROTO_FLAP)
    for combine in (exclude_preceded_by, require_preceded_by):
        name = f"derived {combine.__name__}"
        yield combine(name, base, suppressor, window=300.0)


def seeded_retrievals(app, start, end):
    """``(definition, context)`` over the whole span and around the
    first dozen symptoms."""
    engine = app.engine
    windows = [(start, end)]
    for symptom in app.find_symptoms(start, end)[:12]:
        windows += [
            (symptom.start - 1800.0, symptom.end + 1800.0),
            (symptom.start - 60.0, symptom.start + 60.0),
        ]
    for lo, hi in windows:
        for definition in definitions(engine.library):
            context = RetrievalContext(
                engine.store, lo, hi, engine.config.params, engine.config.services
            )
            yield definition, context


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seeded_worlds_materialize_the_eager_list(name):
    app, start, end = seeded_world(name)
    digest, rows, ties = hashlib.sha256(), 0, 0
    for definition, context in seeded_retrievals(app, start, end):
        instances = eager(definition, context)
        candidates = definition.retrieve(context)
        assert_materializes_as(candidates, instances)
        digest.update(f"{definition.name} {context.start!r} {context.end!r}\n".encode())
        for i in instances:
            line = (i.name, i.start, i.end, i.location.type.value, i.location.parts, i.info)
            digest.update(repr(line).encode() + b"\n")
        rows += len(instances)
        ties += sum(
            a.interval == b.interval for a, b in zip(instances, instances[1:])
        )
        if instances:
            claimed = dataclasses.replace(
                definition, location_type=another_type(definition.location_type)
            )
            with pytest.raises(ValueError, match="location type"):
                claimed.retrieve(context)
    assert (rows, ties) == ROWS[name]
    assert digest.hexdigest() == DIGESTS[name]


# ---------------------------------------------------------------------------
# hypothesis worlds


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_generated_libraries(small_topology, data):
    engine, _symptoms = draw_world(small_topology, data)
    for _ in range(3):
        lo = float(data.draw(st.integers(-100, 600), label="lo"))
        hi = lo + data.draw(st.integers(0, 700), label="length")
        context = RetrievalContext(engine.store, lo, hi)
        for event in engine.library.names():
            definition = engine.library.get(event)
            assert_materializes_as(
                definition.retrieve(context), eager(definition, context)
            )


LOCATIONS = [Location.router(name) for name in ("r3", "r1", "r2")]

generated_rows = st.lists(
    st.tuples(
        st.integers(0, 4).map(float),  # few starts: many equal intervals
        st.sampled_from([0.0, 0.0, 1.0]),
        st.sampled_from(LOCATIONS),
        st.sampled_from([(), (("k", 1),), (("a", 2), ("k", 0))]),
    ).map(lambda t: (t[0], t[0] + t[1], t[2], t[3])),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(generated_rows)
def test_generated_rows(rows):
    definition = EventDefinition("e", LocationType.ROUTER, lambda context: list(rows))
    context = RetrievalContext(DataStore(), 0.0, 10.0)
    candidates = definition.retrieve(context)
    assert_materializes_as(candidates, eager(definition, context))
    # ties in retrieval order: a stable sort of the rows on (start, end)
    assert list(candidates.rows()) == sorted(rows, key=lambda row: row[:2])
    if rows:
        claimed = dataclasses.replace(definition, location_type=LocationType.SERVER)
        with pytest.raises(ValueError, match="location type"):
            claimed.retrieve(context)
