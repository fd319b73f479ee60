"""Tests for the read-path circuit breaker around storage backends.

:class:`BreakerBackend` wraps any :class:`StorageBackend`; the fault
source is :class:`repro.service.faults.FlakyBackend`, so a "wedged
database" is a deterministic injection, not a real broken disk.  All
timing runs on a manual clock.
"""

import pytest

from repro.collector.backends import (
    BreakerBackend,
    MemoryBackend,
    StorageUnavailable,
    backend_name,
    breaker_backend,
    memory_backend,
)
from repro.collector.store import Record
from repro.resilience import CircuitBreaker, TransientError, is_transient
from repro.service.faults import FlakyBackend

from ..oracles.read_path import rows_of


class ManualClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def guarded(failure_threshold=2, reset_timeout=10.0, clock=None):
    """A breaker-wrapped flaky memory backend plus its layers."""
    inner = MemoryBackend(("router",))
    flaky = FlakyBackend(inner)
    breaker = BreakerBackend(
        flaky,
        CircuitBreaker(
            failure_threshold=failure_threshold,
            reset_timeout=reset_timeout,
            clock=clock or ManualClock(),
        ),
    )
    return breaker, flaky, inner


class TestBreakerBackend:
    def test_reads_delegate_while_healthy(self):
        breaker, flaky, inner = guarded()
        breaker.insert_many((Record.make(1.0, router="r1"),))
        assert [r.timestamp for r in rows_of(breaker)] == [1.0]
        assert rows_of(breaker) == rows_of(inner)
        assert breaker.distinct("router") == ["r1"]
        assert breaker.time_span() == (1.0, 1.0)
        assert len(breaker) == 1
        assert breaker.name == "memory+flaky+breaker"

    def test_failures_are_wrapped_with_the_cause_attached(self):
        breaker, flaky, _ = guarded()
        flaky.fail_reads(1, error=lambda: ConnectionError("disk gone"))
        with pytest.raises(StorageUnavailable) as excinfo:
            rows_of(breaker)
        assert isinstance(excinfo.value.__cause__, ConnectionError)
        assert "query_columns failed" in str(excinfo.value)

    def test_circuit_opens_after_threshold_and_fails_fast(self):
        breaker, flaky, _ = guarded(failure_threshold=2)
        flaky.fail_reads(2)
        for _ in range(2):
            with pytest.raises(StorageUnavailable):
                rows_of(breaker)
        # the inner backend is healthy again, but the circuit is open:
        # reads are refused without ever reaching it
        with pytest.raises(StorageUnavailable, match="circuit open"):
            rows_of(breaker)
        assert flaky.failed_reads == 2  # fail-fast never touched the inner
        assert breaker.breaker.times_opened == 1

    def test_success_resets_the_failure_streak(self):
        breaker, flaky, _ = guarded(failure_threshold=2)
        flaky.fail_reads(1)
        with pytest.raises(StorageUnavailable):
            rows_of(breaker)
        rows_of(breaker)  # success: streak back to zero
        flaky.fail_reads(1)
        with pytest.raises(StorageUnavailable):
            rows_of(breaker)
        assert breaker.breaker.state() == "closed"

    def test_half_open_probe_success_closes_the_circuit(self):
        clock = ManualClock()
        breaker, flaky, _ = guarded(failure_threshold=1, reset_timeout=10.0,
                                    clock=clock)
        flaky.fail_reads(1)
        with pytest.raises(StorageUnavailable):
            rows_of(breaker)
        clock.advance(10.0)  # probe window
        assert rows_of(breaker) == []  # probe succeeds
        assert breaker.breaker.state() == "closed"
        rows_of(breaker)  # and stays closed

    def test_half_open_probe_failure_reopens(self):
        clock = ManualClock()
        breaker, flaky, _ = guarded(failure_threshold=1, reset_timeout=10.0,
                                    clock=clock)
        flaky.fail_reads(2)
        with pytest.raises(StorageUnavailable):
            rows_of(breaker)
        clock.advance(10.0)
        with pytest.raises(StorageUnavailable):  # the probe itself fails
            rows_of(breaker)
        with pytest.raises(StorageUnavailable, match="circuit open"):
            rows_of(breaker)  # timer restarted: fail-fast again
        assert breaker.breaker.times_opened == 1  # reopened, not re-counted

    def test_writes_pass_through_while_the_circuit_is_open(self):
        breaker, flaky, inner = guarded(failure_threshold=1)
        flaky.fail_reads(1)
        with pytest.raises(StorageUnavailable):
            rows_of(breaker)
        breaker.insert_many((Record.make(2.0, router="r2"),))  # ingest unharmed
        assert len(inner) == 1

    def test_stats_surface_breaker_state(self):
        breaker, flaky, _ = guarded(failure_threshold=1)
        stats = breaker.stats()
        assert stats["backend"] == "memory+flaky+breaker"
        assert stats["breaker"] == "closed"
        assert stats["breaker_opened"] == 0
        flaky.fail_reads(1)
        with pytest.raises(StorageUnavailable):
            rows_of(breaker)
        stats = breaker.stats()
        assert stats["breaker"] == "open"
        assert stats["breaker_opened"] == 1

    def test_storage_unavailable_is_transient_for_the_retry_policy(self):
        # the whole point of the wrapper type: job-level retries treat a
        # broken read path as worth retrying, not as a rule bug
        assert is_transient(StorageUnavailable("wedged"))
        assert issubclass(StorageUnavailable, TransientError)
        assert issubclass(StorageUnavailable, ConnectionError)


class TestBreakerFactory:
    def test_each_table_gets_an_independent_breaker(self):
        flakies = {}

        def flaky_factory(table_name, indexed_columns):
            flakies[table_name] = FlakyBackend(MemoryBackend(indexed_columns))
            return flakies[table_name]

        factory = breaker_backend(
            inner=flaky_factory,
            breaker=lambda: CircuitBreaker(failure_threshold=1),
        )
        ta = factory("ta", ("router",))
        tb = factory("tb", ("router",))
        flakies["ta"].fail_reads(1)
        with pytest.raises(StorageUnavailable):
            rows_of(ta)
        with pytest.raises(StorageUnavailable, match="circuit open"):
            rows_of(ta)
        assert rows_of(tb) == []  # a wedged table never opens a healthy one

    def test_factory_name_composes_with_the_inner_backend(self):
        factory = breaker_backend(inner=memory_backend())
        assert backend_name(factory) == "memory+breaker"
        assert factory("t", ()).name == "memory+breaker"


class TestFlakyBackend:
    def test_read_latency_injection_uses_the_given_sleeper(self):
        slept = []
        flaky = FlakyBackend(MemoryBackend(), sleep=slept.append)
        flaky.read_latency = 0.5
        rows_of(flaky)
        assert slept == [0.5]

    def test_fail_reads_budget_is_consumed_per_read(self):
        flaky = FlakyBackend(MemoryBackend())
        flaky.fail_reads(2)
        for _ in range(2):
            with pytest.raises(ConnectionError):
                rows_of(flaky)
        assert rows_of(flaky) == []  # budget spent: healthy again
        assert flaky.failed_reads == 2
        assert flaky.stats()["failed_reads"] == 2

    def test_columnar_reads_are_gated_and_stay_on_the_inner_columnar_path(self):
        flaky = FlakyBackend(MemoryBackend())
        flaky.insert_many((Record.make(1.0, router="r1"),))
        assert flaky.query_columns(None, None, {}).zero_copy
        flaky.fail_reads(1)
        with pytest.raises(ConnectionError):
            flaky.query_columns(None, None, {})
