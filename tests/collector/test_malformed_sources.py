"""Per-parser malformed-input coverage.

For every source parser: garbage lines, NaN/infinite/out-of-range
epochs and unknown devices must be *counted* rejects (with a bounded
reason counter) or gracefully normalized — never an exception, and
never a poisoned row that breaks neighbouring good records.
"""

import math

import pytest

from repro.collector import DataCollector
from repro.collector.sources.base import MAX_REJECT_REASONS, ParseStats
from repro.collector.sources.bgpmon import render_bgpmon_row
from repro.collector.sources.misc import (
    render_cdn_row,
    render_layer1_row,
    render_netflow_row,
    render_perfmon_row,
    render_tacacs_row,
    render_workflow_row,
)
from repro.collector.sources.ospfmon import render_ospfmon_row
from repro.collector.sources.snmp import render_snmp_row
from repro.collector.sources.syslog import render_syslog_line

T0 = 1262692800.0


@pytest.fixture
def collector():
    c = DataCollector()
    c.registry.register_device("nyc-per1", "US/Eastern")
    return c


#: per-source (malformed lines, one known-good line) fixtures
BAD_EPOCHS = ["nan", "inf", "-inf", "-5", "5e12", "1e400", "what"]
#: metric values float() accepts but no detector survives
NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity", "1e400"]

MALFORMED = {
    "syslog": [
        "Jan  5 10:25:00 nyc-per1 no-percent-code here",
        "Feb 31 25:99:99 nyc-per1 %LINK-3-UPDOWN: bad clock",
        "%LINK-3-UPDOWN: missing timestamp and host",
    ],
    "snmp": [
        "2010-01-05 10:25:00|nyc-per1|cpu_util_5min|72",  # 4 fields
        "2010-01-05 10:25:00|nyc-per1|made_up_metric||72",
        "2010-01-05 10:25:00|nyc-per1|cpu_util_5min||not-a-float",
        "9999-99-99 99:99:99|nyc-per1|cpu_util_5min||72",
    ]
    + [f"2010-01-05 10:25:00|nyc-per1|cpu_util_5min||{raw}" for raw in NON_FINITE],
    "ospfmon": [f"{raw}|nyc-cr1--chi-cr1:10.0.0.0|65535" for raw in BAD_EPOCHS]
    + [
        "1262692800.0||65535",  # empty link
        "1262692800.0|l:1|-3",  # negative weight
        "1262692800.0|l:1|65535|extra",
    ],
    "bgpmon": [f"{raw}|A|10.0.0.0/8|nyc-cr1|192.0.2.1|100|3" for raw in BAD_EPOCHS]
    + [
        "1262692800.0|X|10.0.0.0/8|nyc-cr1|192.0.2.1|100|3",  # bad kind
        "1262692800.0|A|no-slash-prefix|nyc-cr1|192.0.2.1|100|3",
        "1262692800.0|A|10.0.0.0/8|nyc-cr1|192.0.2.1|p|3",  # bad pref
    ],
    "tacacs": [
        "2010-01-05 10:25:00|nyc-cr1|op17",  # 3 fields
        "not a timestamp|nyc-cr1|op17|conf t",
    ],
    "layer1": [f"{raw}|adm-1|sonet_restoration|c-1" for raw in BAD_EPOCHS]
    + ["1262692800.0|adm-1|made_up_event|c-1"],
    "perfmon": [f"{raw}|a|b|delay_ms|3.5" for raw in BAD_EPOCHS]
    + [
        "1262692800.0|a|b|made_up_metric|3.5",
        "1262692800.0|a|b|delay_ms|fast",
    ]
    + [f"1262692800.0|a|b|delay_ms|{raw}" for raw in NON_FINITE],
    "netflow": [f"{raw}|agent|198.51.100.9|nyc-per1" for raw in BAD_EPOCHS]
    + ["1262692800.0|agent|198.51.100.9"],
    "workflow": [
        "2010-01-05 10:25:00|nyc-per1||ticket-1",  # empty activity
        "garbage-time|nyc-per1|provisioning.x|t",
    ],
    "cdn": [f"{raw}|srv1|load|0.5" for raw in BAD_EPOCHS]
    + [
        "1262692800.0|srv1|made_up_kind|x",
        "1262692800.0|srv1|load|heavy",
    ]
    + [f"1262692800.0|srv1|load|{raw}" for raw in NON_FINITE],
}

#: every numeric field of every feed, one template each ("12" is good in all)
NUMERIC_FIELDS = {
    "syslog": [
        "Jan  5 10:25:00 nyc-per1 %SYS-3-CPUHOG: CPU utilization for five seconds: {}%",
        "Jan  5 10:25:00 nyc-per1 %OIR-3-CRASH: Card in slot {} crashed",
    ],
    "snmp": [
        "2010-01-05 10:25:00|nyc-per1|cpu_util_5min||{}",
        "{}|nyc-per1|cpu_util_5min||72",  # epoch seconds are a timestamp spelling
    ],
    "ospfmon": ["{}|l:1|10", "1262692800.0|l:1|{}"],
    "bgpmon": [
        "{}|A|10.0.0.0/8|nyc-cr1|192.0.2.1|100|3",
        "1262692800.0|A|10.0.0.0/8|nyc-cr1|192.0.2.1|{}|3",
        "1262692800.0|A|10.0.0.0/8|nyc-cr1|192.0.2.1|100|{}",
    ],
    "tacacs": ["{}|nyc-cr1|op17|conf t"],
    "layer1": ["{}|adm-1|sonet_restoration|c-1"],
    "perfmon": ["{}|a|b|rtt_ms|3.5", "1262692800.0|a|b|rtt_ms|{}"],
    "netflow": ["{}|agent|198.51.100.9|nyc-per1"],
    "workflow": ["{}|nyc-per1|provisioning.x|t"],
    "cdn": ["{}|srv1|load|0.5", "1262692800.0|srv1|load|{}"],
}
LITERAL_SYNTAX = ["1_0", "１２", "1２"]

GOOD = {
    "syslog": render_syslog_line(T0, "nyc-per1", "US/Eastern", "LINK-3-UPDOWN",
                                 "Interface Serial1/0, changed state to down"),
    "snmp": render_snmp_row(T0, "nyc-per1", "cpu_util_5min", "", 72.0),
    "ospfmon": render_ospfmon_row(T0, "nyc-cr1--chi-cr1:10.0.0.0", 65535),
    "bgpmon": render_bgpmon_row(T0, "A", "10.0.0.0/8", "nyc-cr1"),
    "tacacs": render_tacacs_row(T0, "nyc-cr1", "op17", "conf t; shutdown"),
    "layer1": render_layer1_row(T0, "adm-1", "sonet_restoration", "c-1"),
    "perfmon": render_perfmon_row(T0, "nyc-per1", "chi-per1", "delay_ms", 31.5),
    "netflow": render_netflow_row(T0, "agent-bos", "198.51.100.9", "nyc-per1"),
    "workflow": render_workflow_row(T0, "nyc-per1", "provisioning.add_customer", "t-1"),
    "cdn": render_cdn_row(T0, "dc-nyc-srv1", "load", 0.93),
}


class TestMalformedPerSource:
    @pytest.mark.parametrize("source", sorted(MALFORMED))
    def test_rejects_counted_never_raised(self, collector, source):
        bad = MALFORMED[source]
        stats = collector.ingest(source, bad)
        assert stats.rejected == len(bad)
        assert stats.accepted == 0
        assert stats.reason_counts  # reasons were recorded
        assert sum(stats.reason_counts.values()) == len(bad)

    @pytest.mark.parametrize("source", sorted(MALFORMED))
    def test_good_line_survives_surrounding_garbage(self, collector, source):
        bad = MALFORMED[source]
        lines = bad[:1] + [GOOD[source]] + bad[1:]
        stats = collector.ingest(source, lines)
        assert stats.accepted == 1
        assert stats.rejected == len(bad)
        assert len(collector.store.table(source)) == 1
        assert stats.watermark == pytest.approx(T0, abs=5.0)

    @pytest.mark.parametrize("source", sorted(MALFORMED))
    def test_rejects_land_in_dead_letters(self, collector, source):
        bad = MALFORMED[source]
        collector.ingest(source, bad)
        assert len(collector.dead_letters.entries(source)) == len(bad)

    def test_nan_epochs_never_become_watermarks(self, collector):
        for source in ("ospfmon", "bgpmon", "perfmon", "netflow", "cdn"):
            stats = collector.ingest(source, [f"nan|{'x|' * 5}".rstrip("|")])
            assert stats.watermark is None or not math.isnan(stats.watermark)

    @pytest.mark.parametrize(
        "source,template",
        [
            ("snmp", "2010-01-05 10:25:00|nyc-per1|link_util|se1/0|{}"),
            ("perfmon", "1262692800.0|a|b|delay_ms|{}"),
            ("cdn", "1262692800.0|srv1|load|{}"),
        ],
    )
    def test_non_finite_values_are_rejected_not_stored(self, collector, source, template):
        lines = [template.format(raw) for raw in NON_FINITE]
        stats = collector.ingest(source, lines)
        assert (stats.accepted, stats.rejected) == (0, len(lines))
        assert stats.reason_counts == {"non-finite value": len(lines)}
        assert len(collector.store.table(source)) == 0
        assert stats.watermark is None
        letters = collector.dead_letters.entries(source)
        assert [letter.line for letter in letters] == lines
        assert {letter.reason for letter in letters} == {"non-finite value"}

    @pytest.mark.parametrize(
        "source,template,literal",
        [
            (source, template, literal)
            for source in sorted(NUMERIC_FIELDS)
            for template in NUMERIC_FIELDS[source]
            for literal in LITERAL_SYNTAX
            # a syslog body is searched for digits: of "1_0" it finds "0"
            if not (source == "syslog" and "_" in literal)
        ],
    )
    def test_python_literal_syntax_is_not_feed_syntax(
        self, collector, source, template, literal
    ):
        # int() and float() would read these as 10, 10.5, 12 and 12.5
        line = template.format(literal)
        stats = collector.ingest(source, [line, template.format("12")])
        assert (stats.accepted, stats.rejected) == (1, 1), stats.last_error
        assert len(collector.store.table(source)) == 1
        assert [letter.line for letter in collector.dead_letters.entries(source)] == [line]

    def test_unknown_devices_normalized_not_rejected(self, collector):
        """A router the registry has never seen still ingests (UTC)."""
        line = render_snmp_row(T0, "GHOST-ROUTER.example.NET", "cpu_util_5min", "", 5.0)
        stats = collector.ingest("snmp", [line])
        assert stats.rejected == 0
        (record,) = collector.store.table("snmp").scan()
        assert record["router"] == "ghost-router"


class TestParseStatsReasonCounter:
    def test_reasons_are_briefed_and_counted(self):
        stats = ParseStats()
        stats.reject("unknown metric 'junk-a'", line="l1")
        stats.reject("unknown metric 'junk-b'", line="l2")
        assert stats.reason_counts["unknown metric <…>"] == 2
        assert stats.last_error == "unknown metric 'junk-b' in 'l2'"

    def test_counter_is_bounded(self):
        stats = ParseStats()
        for i in range(MAX_REJECT_REASONS * 3):
            stats.reject(f"reason-{i}")  # every reason distinct
        assert len(stats.reason_counts) <= MAX_REJECT_REASONS

    def test_eviction_keeps_the_common_reasons(self):
        stats = ParseStats()
        for _ in range(50):
            stats.reject("very common failure")
        for i in range(MAX_REJECT_REASONS * 2):
            stats.reject(f"rare-{i}")
        top_reason, top_count = stats.top_reasons(1)[0]
        assert top_reason == "very common failure"
        assert top_count == 50

    def test_top_reasons_ordering(self):
        stats = ParseStats()
        for count, reason in ((3, "a"), (5, "b"), (1, "c")):
            for _ in range(count):
                stats.reject(reason)
        assert stats.top_reasons(2) == [("b", 5), ("a", 3)]

    def test_reject_ratio(self):
        stats = ParseStats()
        stats.note_insert(T0)
        stats.accepted = 3
        stats.reject("x")
        assert stats.reject_ratio == 0.25
