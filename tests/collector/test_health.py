"""Feed-health machinery: state machine, retry/backoff reader, circuit
breaker and dead-letter buffer — all driven by a fake clock, no sleeps."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.collector import DataCollector
from repro.collector.health import (
    CircuitOpenError,
    DeadLetter,
    DeadLetterBuffer,
    FeedHealth,
    FeedReadError,
    FeedReader,
    FeedState,
    HealthConfig,
    HealthRegistry,
    canonical_source,
)
from repro.collector.sources.snmp import render_snmp_row
from repro.resilience import CircuitBreaker, RetryPolicy

T0 = 1262692800.0


class FakeClock:
    """A manually advanced clock standing in for ``time.time``."""

    def __init__(self, now=T0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class FlakyTransport:
    """Raises for the first ``failures`` calls, then yields batches."""

    def __init__(self, failures, batch=("line-1", "line-2")):
        self.failures = failures
        self.batch = list(batch)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise ConnectionError(f"transient #{self.calls}")
        return list(self.batch)


# ---------------------------------------------------------------------------
# state machine


class TestFeedStateMachine:
    def test_fresh_feed_healthy(self):
        feed = FeedHealth("syslog")
        assert feed.observe(T0, accepted=10, rejected=0, watermark=T0) is FeedState.HEALTHY
        assert feed.staleness == 0.0
        assert feed.history() == []

    def test_stale_watermark_lagging_then_down(self):
        feed = FeedHealth("syslog", HealthConfig(lag_seconds=600, down_seconds=3600))
        feed.observe(T0, 5, 0, watermark=T0)
        assert feed.reassess(T0 + 700.0) is FeedState.LAGGING
        assert feed.reassess(T0 + 3600.0) is FeedState.DOWN
        # intervals recorded per state, backdated to where data stopped
        states = [i.state for i in feed.history()]
        assert states == [FeedState.LAGGING, FeedState.DOWN]
        assert feed.history()[0].start == T0
        assert feed.history()[0].end == T0 + 3600.0

    def test_recovery_closes_interval(self):
        feed = FeedHealth("syslog")
        feed.observe(T0, 5, 0, watermark=T0)
        feed.reassess(T0 + 700.0)
        assert feed.state is FeedState.LAGGING
        feed.observe(T0 + 710.0, 5, 0, watermark=T0 + 705.0)
        assert feed.state is FeedState.HEALTHY
        (interval,) = feed.history()
        assert interval.end == T0 + 710.0

    def test_reject_ratio_degraded(self):
        config = HealthConfig(reject_degraded_ratio=0.25, min_window_lines=20)
        feed = FeedHealth("snmp", config)
        assert feed.observe(T0, accepted=30, rejected=10, watermark=T0) is FeedState.DEGRADED
        assert feed.reject_ratio() == 0.25

    def test_too_few_lines_never_degraded(self):
        feed = FeedHealth("snmp", HealthConfig(min_window_lines=20))
        # 100% rejects but only 5 lines: not enough signal
        assert feed.observe(T0, accepted=0, rejected=5) is FeedState.HEALTHY

    def test_window_slides(self):
        feed = FeedHealth("snmp", HealthConfig(window_seconds=3600))
        feed.observe(T0, 0, 30, watermark=None)
        feed.observe(T0 + 4000.0, 30, 0, watermark=T0 + 4000.0)
        assert feed.window_counts() == (30, 0)

    def test_forced_down_overrides_everything(self):
        feed = FeedHealth("bgpmon")
        feed.observe(T0, 100, 0, watermark=T0)
        feed.force_down(T0 + 1.0)
        assert feed.state is FeedState.DOWN
        feed.clear_forced_down(T0 + 2.0)
        assert feed.state is FeedState.HEALTHY
        (interval,) = feed.history()
        assert interval.state is FeedState.DOWN
        assert interval.end == T0 + 2.0

    def test_record_outage_and_overlap_query(self):
        feed = FeedHealth("cdn")
        feed.record_outage(T0, T0 + 100.0, FeedState.DOWN)
        assert feed.impaired_intervals(T0 + 50.0, T0 + 200.0)
        assert not feed.impaired_intervals(T0 + 101.0, T0 + 200.0)
        assert not feed.impaired_intervals(T0 - 50.0, T0 - 1.0)

    def test_open_ended_interval_overlaps_forever(self):
        feed = FeedHealth("cdn")
        feed.record_outage(T0, None)
        assert feed.impaired_intervals(T0 + 1e6, T0 + 2e6)


class TestImpairedIntervalLookup:
    """The bisect lookup answers what a scan of the history would."""

    OUTAGES = st.lists(
        st.tuples(
            st.integers(0, 500),
            st.one_of(st.none(), st.integers(0, 300)),  # None: still open
            st.sampled_from([FeedState.LAGGING, FeedState.DEGRADED, FeedState.DOWN]),
        ),
        max_size=12,
    )
    QUERIES = st.lists(st.tuples(st.integers(-50, 900), st.integers(0, 400)), max_size=8)

    @settings(max_examples=200, deadline=None)
    @given(outages=OUTAGES, live=st.lists(st.integers(1, 900), max_size=6), queries=QUERIES)
    def test_matches_the_linear_scan(self, outages, live, queries):
        feed = FeedHealth("syslog", HealthConfig(lag_seconds=100, down_seconds=400))
        clock = 1000.0

        def check():
            history = feed.history()
            assert [i.start for i in history] == sorted(i.start for i in history)
            for lo, span in queries:
                scan = [i for i in history if i.overlaps(lo, lo + span)]
                found = feed.impaired_intervals(lo, lo + span)
                assert [id(i) for i in found] == [id(i) for i in scan]

        # overlapping, nested and open-ended recorded outages, in any order,
        # queried between mutations so a stale index would show
        for start, length, state in outages:
            feed.record_outage(start, None if length is None else start + length, state)
            check()
        # then the live state machine on a forward clock: its transitions
        # close the open interval and append new ones
        feed.observe(clock, 5, 0, watermark=clock)
        for step in live:
            clock += step
            if step % 2:
                feed.observe(clock, 5, 0, watermark=clock)
            else:
                feed.reassess(clock)
            check()

    def test_registry_signature_unchanged(self):
        registry = HealthRegistry()
        registry.record_outage("cdn", T0, T0 + 10.0)
        (interval,) = registry.impaired_intervals("cdn", T0 + 5.0, T0 + 6.0)
        assert (interval.start, interval.end) == (T0, T0 + 10.0)


class TestHealthRegistry:
    def test_unknown_source_is_healthy(self):
        registry = HealthRegistry()
        assert registry.state("syslog") is FeedState.HEALTHY
        assert registry.impaired_intervals("syslog", T0, T0 + 1) == []

    def test_tick_reassesses_all(self):
        registry = HealthRegistry()
        registry.observe("syslog", T0, 5, 0, watermark=T0)
        registry.observe("snmp", T0, 5, 0, watermark=T0)
        registry.tick(T0 + 700.0)
        assert registry.summary() == {
            "snmp": FeedState.LAGGING,
            "syslog": FeedState.LAGGING,
        }

    def test_mark_down_and_restored(self):
        registry = HealthRegistry()
        registry.mark_down("bgpmon", T0)
        assert registry.state("bgpmon") is FeedState.DOWN
        registry.mark_restored("bgpmon", T0 + 60.0)
        assert registry.state("bgpmon") is FeedState.HEALTHY


class TestCanonicalSource:
    def test_known_labels(self):
        assert canonical_source("SNMP") == "snmp"
        assert canonical_source("OSPF monitor") == "ospfmon"
        assert canonical_source("layer-1 device log") == "layer1"
        assert canonical_source("server logs") == "cdn"
        assert canonical_source("CDN control plane") == "cdn"

    def test_unknown_labels_are_none(self):
        assert canonical_source("traffic monitor") is None
        assert canonical_source("") is None
        assert canonical_source(None) is None


# ---------------------------------------------------------------------------
# retry / backoff / circuit breaker


def make_reader(transport, clock, registry=None, breaker=None, **overrides):
    """A FeedReader with fake clock/sleep and a seeded rng."""
    retry = dict(
        max_attempts=4,
        backoff_base=1.0,
        backoff_factor=2.0,
        backoff_max=60.0,
        jitter=0.1,
    )
    trip = dict(failure_threshold=8, reset_timeout=300.0)
    for key, value in overrides.items():
        (retry if key in retry else trip)[key] = value
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        clock.advance(seconds)

    reader = FeedReader(
        "syslog",
        transport,
        retry=RetryPolicy(rng=random.Random(42), **retry),
        breaker=breaker or CircuitBreaker(clock=clock, **trip),
        sleep=fake_sleep,
        registry=registry,
    )
    return reader, sleeps


class TestFeedReader:
    def test_recovers_from_three_transient_failures(self):
        """The acceptance case: >=3 consecutive failures, then recovery
        via backoff — the batch is delivered intact, nothing lost."""
        clock = FakeClock()
        transport = FlakyTransport(failures=3, batch=["a", "b", "c"])
        reader, sleeps = make_reader(transport, clock)
        assert reader.poll() == ["a", "b", "c"]
        assert transport.calls == 4
        assert reader.breaker.consecutive_failures == 0
        assert not reader.breaker.open
        # three backoffs, exponential with bounded jitter, no real sleeps
        assert len(sleeps) == 3
        for base, actual in zip([1.0, 2.0, 4.0], sleeps):
            assert base <= actual <= base * 1.1
        assert sleeps[0] < sleeps[1] < sleeps[2]

    def test_backoff_capped(self):
        clock = FakeClock()
        transport = FlakyTransport(failures=5, batch=["x"])
        reader, sleeps = make_reader(
            transport, clock, max_attempts=6, backoff_max=3.0, jitter=0.0
        )
        assert reader.poll() == ["x"]
        assert sleeps == [1.0, 2.0, 3.0, 3.0, 3.0]

    def test_all_attempts_fail_raises_feed_read_error(self):
        clock = FakeClock()
        reader, sleeps = make_reader(FlakyTransport(failures=99), clock)
        with pytest.raises(FeedReadError):
            reader.poll()
        assert len(sleeps) == 3  # no sleep after the final attempt
        assert reader.breaker.consecutive_failures == 4

    def test_circuit_opens_at_threshold_and_marks_feed_down(self):
        clock = FakeClock()
        registry = HealthRegistry()
        reader, _ = make_reader(
            FlakyTransport(failures=99), clock, registry=registry
        )
        with pytest.raises(FeedReadError):
            reader.poll()  # failures 1..4
        with pytest.raises(CircuitOpenError):
            reader.poll()  # failures 5..8 -> threshold hit
        assert reader.breaker.open
        assert registry.state("syslog") is FeedState.DOWN

    def test_open_circuit_fails_fast(self):
        clock = FakeClock()
        transport = FlakyTransport(failures=99)
        reader, sleeps = make_reader(transport, clock, registry=HealthRegistry())
        for _ in range(2):
            with pytest.raises((FeedReadError, CircuitOpenError)):
                reader.poll()
        calls_before = transport.calls
        sleeps_before = len(sleeps)
        with pytest.raises(CircuitOpenError):
            reader.poll()  # fast-fail: no transport call, no backoff
        assert transport.calls == calls_before
        assert len(sleeps) == sleeps_before

    def test_half_open_probe_failure_keeps_circuit_open(self):
        clock = FakeClock()
        transport = FlakyTransport(failures=99)
        reader, _ = make_reader(transport, clock, reset_timeout=300.0)
        for _ in range(2):
            with pytest.raises((FeedReadError, CircuitOpenError)):
                reader.poll()
        clock.advance(301.0)
        calls_before = transport.calls
        with pytest.raises(CircuitOpenError):
            reader.poll()  # one probe attempt, fails, re-opens
        assert transport.calls == calls_before + 1
        assert reader.breaker.open

    def test_half_open_probe_success_restores_feed(self):
        clock = FakeClock()
        registry = HealthRegistry()
        transport = FlakyTransport(failures=8, batch=["back"])
        reader, _ = make_reader(transport, clock, registry=registry)
        for _ in range(2):
            with pytest.raises((FeedReadError, CircuitOpenError)):
                reader.poll()
        assert registry.state("syslog") is FeedState.DOWN
        clock.advance(301.0)
        assert reader.poll() == ["back"]
        assert not reader.breaker.open
        assert reader.breaker.consecutive_failures == 0
        assert registry.state("syslog") is FeedState.HEALTHY

    def test_feed_defaults_are_the_module_constants(self):
        reader = FeedReader("syslog", FlakyTransport(failures=0))
        assert (reader.retry.max_attempts, reader.retry.backoff_base,
                reader.retry.backoff_max) == (4, 1.0, 60.0)
        assert (reader.breaker.failure_threshold,
                reader.breaker.reset_timeout) == (8, 300.0)

    def test_breaker_shared_between_two_readers_opens_for_both(self):
        """Two transports of one upstream fail together: the reader that
        trips the shared breaker also stops the other, untouched."""
        clock = FakeClock()
        registry = HealthRegistry()
        shared = CircuitBreaker(failure_threshold=8, reset_timeout=300.0,
                                clock=clock)
        primary, _ = make_reader(
            FlakyTransport(failures=99), clock, registry=registry, breaker=shared
        )
        standby_transport = FlakyTransport(failures=0, batch=["ok"])
        standby, sleeps = make_reader(
            standby_transport, clock, registry=registry, breaker=shared
        )
        for _ in range(2):
            with pytest.raises((FeedReadError, CircuitOpenError)):
                primary.poll()
        assert shared.open
        with pytest.raises(CircuitOpenError):
            standby.poll()  # refused without touching its healthy transport
        assert standby_transport.calls == 0 and sleeps == []
        assert registry.state("syslog") is FeedState.DOWN
        # either reader's successful half-open probe closes it for both
        clock.advance(301.0)
        assert standby.poll() == ["ok"]
        assert not shared.open
        assert registry.state("syslog") is FeedState.HEALTHY


# ---------------------------------------------------------------------------
# dead letters


class TestDeadLetterBuffer:
    def test_bounded_with_dropped_counter(self):
        buffer = DeadLetterBuffer(capacity=3)
        for i in range(5):
            buffer.append(DeadLetter("syslog", f"line-{i}", "bad"))
        assert len(buffer) == 3
        assert buffer.dropped == 2
        assert [e.line for e in buffer.entries()] == ["line-2", "line-3", "line-4"]

    def test_reason_counts_and_source_filter(self):
        buffer = DeadLetterBuffer()
        buffer.append(DeadLetter("syslog", "x", "bad timestamp"))
        buffer.append(DeadLetter("snmp", "y", "bad timestamp"))
        buffer.append(DeadLetter("snmp", "z", "unknown metric"))
        assert buffer.reason_counts()["bad timestamp"] == 2
        assert len(buffer.entries("snmp")) == 2

    def test_drain_empties(self):
        buffer = DeadLetterBuffer()
        buffer.append(DeadLetter("syslog", "x", "bad"))
        assert [e.line for e in buffer.drain()] == ["x"]
        assert len(buffer) == 0

    def test_replay_into_collector(self):
        collector = DataCollector()
        collector.registry.register_device("nyc-per1", "US/Eastern")
        good = render_snmp_row(T0, "nyc-per1", "cpu_util_5min", "", 55.0)
        # a line that failed transiently (e.g. device registered late)
        collector.dead_letters.append(
            DeadLetter("snmp", good, "late registration")
        )
        outcome = collector.replay_dead_letters()
        assert outcome == {"snmp": (1, 0)}
        assert len(collector.dead_letters) == 0
        assert len(collector.store.table("snmp")) == 1

    def test_replay_refailing_lines_are_recaptured_not_looped(self):
        collector = DataCollector()
        collector.ingest("snmp", ["garbage|line"])
        assert len(collector.dead_letters) == 1
        outcome = collector.replay_dead_letters()
        assert outcome == {"snmp": (0, 1)}
        # re-captured once, not duplicated by the replay loop
        assert len(collector.dead_letters) == 1


# ---------------------------------------------------------------------------
# collector integration


class TestCollectorHealthIntegration:
    def test_batch_ingest_uses_watermark_clock(self):
        """Clean historical replays must never look stale."""
        collector = DataCollector()
        collector.registry.register_device("nyc-per1", "US/Eastern")
        old = T0 - 10 * 86400.0  # ten-day-old data
        collector.ingest(
            "snmp", [render_snmp_row(old, "nyc-per1", "cpu_util_5min", "", 10.0)]
        )
        assert collector.health.state("snmp") is FeedState.HEALTHY

    def test_streaming_ingest_observes_arrival_clock(self):
        collector = DataCollector()
        collector.registry.register_device("nyc-per1", "US/Eastern")
        line = render_snmp_row(T0, "nyc-per1", "cpu_util_5min", "", 10.0)
        collector.ingest("snmp", [line], now=T0 + 700.0)
        assert collector.health.state("snmp") is FeedState.LAGGING
        collector.tick(T0 + 4000.0)
        assert collector.health.state("snmp") is FeedState.DOWN

    def test_feed_stats_lines_report_state_and_rejects(self):
        collector = DataCollector()
        collector.registry.register_device("nyc-per1", "US/Eastern")
        collector.ingest(
            "snmp",
            [render_snmp_row(T0, "nyc-per1", "cpu_util_5min", "", 10.0), "junk"],
        )
        lines = collector.feed_stats_lines()
        stats_line = next(line for line in lines if "snmp" in line)
        assert "accepted=1" in stats_line and "rejected=1" in stats_line
        assert "top-rejects:" in stats_line
        assert any("dead-letters" in line for line in lines)
