"""Parse + ingest costs the same per line, per source, at any size.

A scale sweep counted rather than timed (see ``tests/budget.py``):
``bgp_month``'s raw lines are captured through its ``feed_faults`` hook
— the raw text surfaces nowhere else — at ×1 / ×2 / ×4 flaps, set by
the size keyword ``SCENARIOS`` gives the scenario, with the days grown
alongside so the polled feed grows too.  Each source's lines are then
ingested into a fresh ``DataCollector``, and the profile events per
accepted line are fitted as a log-log slope over the scale: ≤ 0.15 is
"a constant per line".  A per-line scan of anything that grows with
the feed (the pending batch, the table) makes that cost linear,
slope ≈ 1.

The gate covers the sources whose line count grows with the scale:
``syslog`` (flaps) and ``snmp`` (days).  ``layer1`` is three lines at
every scale, so it is ingested and checked for rejects but not gated.
"""

from repro.collector import DataCollector
from repro.simulation import SCENARIOS

from ..budget import loglog_slope, profile_events

SCALES = (1, 2, 4)
FLAPS = 40
DAYS = 5.0
#: "per-line constant": the log-log slope of a cost over the scale
CONSTANT = 0.15


def captured_lines(scale):
    """``bgp_month``'s raw lines per source at ``scale`` × the flaps and
    the days, and its topology (the collector needs the device time
    zones)."""
    captured = []
    result = SCENARIOS["bgp-month"].build(
        FLAPS * scale, seed=7, duration_days=DAYS * scale,
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


def test_events_per_accepted_line_stay_flat_per_source():
    sweep = [events_per_line(*captured_lines(scale)) for scale in SCALES]
    sources = sorted(sweep[0])
    assert sources == ["layer1", "snmp", "syslog"]
    assert all(sorted(costs) == sources for costs in sweep)
    # gate only what the sweep grows: a fixed feed shows no slope
    swept = [s for s in sources if sweep[2][s][1] >= 3 * sweep[0][s][1]]
    lines = {s: [costs[s][1] for costs in sweep] for s in sources}
    assert swept == ["snmp", "syslog"], lines
    for source in swept:
        per_line = [costs[source][0] for costs in sweep]
        assert loglog_slope(SCALES, per_line) <= CONSTANT, (source, per_line)
