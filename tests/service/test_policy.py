"""Tests for the fault-containment policy layer.

Everything here runs on manual clocks and seeded RNGs — no real time,
no real threads — so the deadline, retry, breaker and brownout state
machines are pinned exactly.
"""

import sqlite3

import pytest

from repro.collector.health import CircuitOpenError, FeedReadError
from repro.resilience import (
    CircuitBreaker,
    PermanentError,
    RetryPolicy,
    TransientError,
    is_transient,
)
from repro.service.metrics import ServiceMetrics
from repro.service.policy import (
    BrownoutConfig,
    BrownoutController,
    CancellationToken,
    DeadlineExceeded,
    OperationCancelled,
    ServiceHealth,
)


class ManualClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCancellationToken:
    def test_check_passes_until_cancelled(self):
        token = CancellationToken()
        token.check()  # no deadline, not cancelled
        token.cancel("operator said stop")
        assert token.cancelled
        with pytest.raises(OperationCancelled, match="operator said stop"):
            token.check()

    def test_first_cancel_reason_wins(self):
        token = CancellationToken()
        token.cancel("first")
        token.cancel("second")
        assert token.reason == "first"

    def test_deadline_expiry_raises_deadline_exceeded(self):
        clock = ManualClock(100.0)
        token = CancellationToken(deadline=105.0, clock=clock)
        token.check()
        assert token.remaining() == pytest.approx(5.0)
        assert not token.expired
        clock.advance(6.0)
        assert token.expired
        with pytest.raises(DeadlineExceeded):
            token.check()

    def test_deadline_exceeded_is_a_cancellation(self):
        # one except clause catches both cooperative stop reasons
        assert issubclass(DeadlineExceeded, OperationCancelled)

    def test_no_deadline_never_expires(self):
        token = CancellationToken()
        assert token.remaining() is None
        assert not token.expired


class TestErrorClassification:
    @pytest.mark.parametrize(
        "error",
        [
            TransientError("flaky"),
            ConnectionError("reset"),
            TimeoutError("slow"),
            InterruptedError("signal"),
            sqlite3.OperationalError("database is locked"),
            OSError("I/O error"),
            CircuitOpenError("open"),
            FeedReadError("read failed"),
        ],
    )
    def test_transient_family(self, error):
        assert is_transient(error)

    @pytest.mark.parametrize(
        "error",
        [
            PermanentError("rule bug"),
            ValueError("bad config"),
            TypeError("wrong type"),
            KeyError("missing"),
            AttributeError("nope"),
            NotImplementedError("todo"),
            RuntimeError("unclassified"),  # unknown defaults to permanent
        ],
    )
    def test_permanent_family(self, error):
        assert not is_transient(error)

    def test_cancellation_is_never_transient(self):
        assert not is_transient(OperationCancelled("stop"))
        assert not is_transient(DeadlineExceeded("late"))


class TestRetryPolicy:
    def test_should_retry_bounded_by_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        error = TransientError("flaky")
        assert policy.should_retry(error, 1)
        assert policy.should_retry(error, 2)
        assert not policy.should_retry(error, 3)

    def test_permanent_errors_never_retried(self):
        policy = RetryPolicy(max_attempts=5)
        assert not policy.should_retry(ValueError("bug"), 1)

    def test_single_attempt_disables_retries(self):
        policy = RetryPolicy(max_attempts=1)
        assert not policy.should_retry(TransientError("flaky"), 1)

    def test_backoff_grows_exponentially_to_the_cap(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5, jitter=0.0
        )
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)
        assert policy.delay(4) == pytest.approx(0.5)  # capped
        assert policy.delay(10) == pytest.approx(0.5)

    def test_jitter_is_deterministic_and_bounded(self):
        import random

        a = RetryPolicy(jitter=0.1, rng=random.Random(7))
        b = RetryPolicy(jitter=0.1, rng=random.Random(7))
        delays_a = [a.delay(1) for _ in range(5)]
        delays_b = [b.delay(1) for _ in range(5)]
        assert delays_a == delays_b  # same seed, same schedule
        for delay in delays_a:
            assert a.backoff_base <= delay <= a.backoff_base * 1.1


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=30.0, clock=clock)
        assert breaker.state() == "closed"
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.record_failure()  # third opens
        assert breaker.open
        assert breaker.state() == "open"
        assert not breaker.allow()
        assert breaker.times_opened == 1

    def test_success_resets_the_failure_streak(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=2, clock=clock)
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()  # streak restarted
        assert breaker.state() == "closed"

    def test_half_open_probe_after_reset_timeout(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state() == "half-open"
        assert breaker.allow()  # one probe allowed

    def test_successful_probe_closes_the_circuit(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(10.0)
        breaker.record_success()
        assert breaker.state() == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens_and_restarts_the_timer(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=10.0, clock=clock)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.record_failure()  # probe failed
        assert breaker.state() == "open"
        clock.advance(9.0)
        assert not breaker.allow()  # timer restarted at the probe
        clock.advance(1.0)
        assert breaker.allow()

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class _Counter:
    def __init__(self, value=0):
        self.value = value


class _Wait:
    def __init__(self, p99=0.0):
        self.p99 = p99

    def percentile(self, q):
        return self.p99


class StubMetrics:
    """Just the signal surface BrownoutController reads."""

    def __init__(self):
        self.queue_wait = _Wait()
        self.jobs_timed_out = _Counter()
        self.jobs_completed = _Counter()
        self.jobs_failed = _Counter()


class TestBrownoutController:
    def test_starts_ok(self):
        controller = BrownoutController()
        assert controller.state is ServiceHealth.OK
        assert not controller.degraded

    def test_queue_wait_p99_trips_the_brownout(self):
        controller = BrownoutController(BrownoutConfig(queue_wait_p99=5.0))
        metrics = StubMetrics()
        metrics.queue_wait.p99 = 4.9
        assert controller.evaluate(metrics, 1.0) is ServiceHealth.OK
        metrics.queue_wait.p99 = 5.0
        assert controller.evaluate(metrics, 2.0) is ServiceHealth.DEGRADED
        assert controller.transitions == 1
        assert controller.last_transition_at == 2.0

    def test_recovery_has_hysteresis(self):
        controller = BrownoutController(
            BrownoutConfig(queue_wait_p99=5.0, recover_factor=0.5)
        )
        metrics = StubMetrics()
        metrics.queue_wait.p99 = 6.0
        controller.evaluate(metrics, 1.0)
        assert controller.degraded
        # below the entry threshold but above recover_factor * threshold:
        # still degraded (no flapping around the line)
        metrics.queue_wait.p99 = 3.0
        assert controller.evaluate(metrics, 2.0) is ServiceHealth.DEGRADED
        metrics.queue_wait.p99 = 2.0
        assert controller.evaluate(metrics, 3.0) is ServiceHealth.OK
        assert controller.transitions == 2

    def test_deadline_miss_rate_trips_with_min_finished_gate(self):
        config = BrownoutConfig(deadline_miss_rate=0.25, min_finished=8)
        controller = BrownoutController(config)
        metrics = StubMetrics()
        # 4 finished, all missed: below the min_finished gate, no verdict
        metrics.jobs_timed_out.value = 4
        metrics.jobs_completed.value = 0
        assert controller.evaluate(metrics, 1.0) is ServiceHealth.OK
        # now 8 finished since the start, 4 of them missed: 50% >= 25%
        metrics.jobs_completed.value = 4
        assert controller.evaluate(metrics, 2.0) is ServiceHealth.DEGRADED

    def test_miss_rate_uses_deltas_not_cumulative_counts(self):
        config = BrownoutConfig(deadline_miss_rate=0.25, min_finished=4)
        controller = BrownoutController(config)
        metrics = StubMetrics()
        # a bad early history...
        metrics.jobs_timed_out.value = 4
        metrics.jobs_completed.value = 4
        assert controller.evaluate(metrics, 1.0) is ServiceHealth.DEGRADED
        # ...followed by a clean recent window recovers, even though the
        # cumulative miss rate is still high
        metrics.jobs_completed.value = 104
        assert controller.evaluate(metrics, 2.0) is ServiceHealth.OK

    def test_real_service_metrics_satisfy_the_signal_surface(self):
        # the controller runs against the real ServiceMetrics in prod;
        # pin the duck-typed surface so a rename cannot silently break it
        controller = BrownoutController()
        metrics = ServiceMetrics()
        assert controller.evaluate(metrics, 1.0) is ServiceHealth.OK
