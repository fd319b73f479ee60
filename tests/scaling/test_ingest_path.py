"""Parse + ingest costs the same per line, per source, at any size.

A scale sweep counted rather than timed (see ``tests/budget.py``), over
every workload of ``SCENARIOS``: each scenario's raw lines are captured
through its ``feed_faults`` hook — the raw text surfaces nowhere else —
at ×1 / ×2 / ×4 of its size keyword (flaps, losses, degradations,
changes), with the days grown alongside so the polled feeds grow too.
Each source's lines are then ingested into a fresh ``DataCollector``,
and the profile events per accepted line are fitted as a log-log slope
over the scale: ≤ 0.15 is "a constant per line".  A per-line scan of
anything that grows with the feed (the pending batch, the table) makes
that cost linear, slope ≈ 1.

The gate covers, per scenario, the sources whose line count the sweep
grows at least threefold; a source that stays the same size (the
``layer1`` feed of ``bgp-month``, most of ``cdn-month``'s) is ingested
and checked for rejects but not gated.  ``SOURCES`` pins which sources
each scenario emits and ``SWEPT`` which of them the sweep grows, so a
builder that drops, adds or stops growing a feed shows here.

Mutation-checked: a per-line ``any(t > timestamp for t in timestamps)``
scan of the pending batch in ``SourceParser.ingest`` fails the gate for
every scenario.
"""

import pytest

from repro.collector import DataCollector
from repro.simulation import SCENARIOS

from ..budget import loglog_slope, profile_events

SCALES = (1, 2, 4)
#: per scenario: its size keyword's value and the days at ×1.  A polled
#: feed (perfmon, snmp) stays under ``FLUSH_ROWS`` lines at ×1, so a
#: cost that grows with the pending batch grows over the sweep too
SIZES = {
    "backbone-month": (10, 0.5),
    "bgp-month": (40, 5.0),
    "bgp-storm": (24, 3.0),
    "cdn-month": (20, 1.0),
    "pim-fortnight": (40, 2.0),
}
#: per scenario: the sources its build emits, each ingested and checked
#: for rejects
SOURCES = {
    "backbone-month": ["ospfmon", "perfmon", "snmp"],
    "bgp-month": ["layer1", "snmp", "syslog"],
    "bgp-storm": ["snmp", "syslog"],
    "cdn-month": [
        "bgpmon", "cdn", "netflow", "ospfmon", "perfmon", "snmp", "syslog",
    ],
    "pim-fortnight": ["ospfmon", "snmp", "syslog", "tacacs", "workflow"],
}
#: per scenario: the sources the sweep grows, hence gates
SWEPT = {
    "backbone-month": ["ospfmon", "perfmon", "snmp"],
    "bgp-month": ["snmp", "syslog"],
    "bgp-storm": ["snmp", "syslog"],
    "cdn-month": ["perfmon"],
    "pim-fortnight": ["ospfmon", "snmp", "syslog", "tacacs", "workflow"],
}
#: "per-line constant": the log-log slope of a cost over the scale
CONSTANT = 0.15


def captured_lines(scenario, scale):
    """A scenario's raw lines per source at ``scale`` × its size and
    days, and its topology (the collector needs the device time
    zones)."""
    size, days = SIZES[scenario]
    captured = []
    result = SCENARIOS[scenario].build(
        size * scale, seed=7, duration_days=days * scale,
        feed_faults=lambda injector: captured.append(injector.buffers),
    )
    (buffers,) = captured
    return result.topology, {s: buffers.lines(s) for s in buffers.sources()}


def events_per_line(topology, feeds):
    collector = DataCollector()
    for router in topology.network.routers.values():
        collector.registry.register_device(router.name, router.timezone)
    costs = {}
    for source, lines in sorted(feeds.items()):
        with profile_events() as events:
            stats = collector.ingest(source, lines)
        assert stats.accepted == len(lines) and stats.rejected == 0, source
        costs[source] = (events.total / stats.accepted, stats.accepted)
    return costs


def test_every_scenario_is_swept():
    assert sorted(SIZES) == sorted(SOURCES) == sorted(SWEPT) == sorted(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_events_per_accepted_line_stay_flat_per_source(scenario):
    sweep = [events_per_line(*captured_lines(scenario, scale)) for scale in SCALES]
    sources = sorted(sweep[0])
    assert sources == SOURCES[scenario]
    assert all(sorted(costs) == sources for costs in sweep)
    # gate only what the sweep grows: a fixed feed shows no slope
    swept = [s for s in sources if sweep[2][s][1] >= 3 * sweep[0][s][1]]
    lines = {s: [costs[s][1] for costs in sweep] for s in sources}
    assert swept == SWEPT[scenario], lines
    for source in swept:
        per_line = [costs[source][0] for costs in sweep]
        assert loglog_slope(SCALES, per_line) <= CONSTANT, (source, per_line)
