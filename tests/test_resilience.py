"""The shared fault-tolerance kit (:mod:`repro.resilience`).

The retry/breaker/classification pins live with the layers that compose
them (``tests/service/test_policy.py``, ``tests/collector/test_health.py``,
``tests/collector/test_breaker_backend.py``); this module covers what is
the kit's own: the bounded buffer both layers park failures in, and the
fact that collector errors classify without the classifier knowing them.
"""

import sys
import threading

from repro.collector.backends import StorageUnavailable
from repro.collector.health import CircuitOpenError, DeadLetterBuffer, FeedReadError
from repro.resilience import BoundedBuffer, CircuitBreaker, TransientError, is_transient


class TestBoundedBuffer:
    def test_fifo_eviction_counts_drops(self):
        buffer = BoundedBuffer(capacity=3)
        for i in range(5):
            buffer.append(i)
        assert buffer.entries() == [2, 3, 4]
        assert (len(buffer), buffer.dropped, buffer.capacity) == (3, 2, 3)
        assert buffer.drain() == [2, 3, 4]
        assert buffer.entries() == [] and buffer.dropped == 2

    def test_dead_letter_buffer_is_the_same_buffer(self):
        assert issubclass(DeadLetterBuffer, BoundedBuffer)
        assert DeadLetterBuffer.append is BoundedBuffer.append
        assert DeadLetterBuffer.drain is BoundedBuffer.drain

    def test_concurrent_appends_lose_no_accounting(self):
        """8 writers on 2 cores with a 10 µs switch interval: every
        append is either still buffered or counted as dropped."""
        buffer = BoundedBuffer(capacity=64)
        writers, per_writer = 8, 2_000
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(
                    target=lambda: [buffer.append(i) for i in range(per_writer)]
                )
                for _ in range(writers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(buffer) + buffer.dropped == writers * per_writer
        assert len(buffer) == 64


class TestLayerErrorsOptIn:
    def test_collector_errors_are_transient_by_inheritance(self):
        for error_type in (FeedReadError, CircuitOpenError, StorageUnavailable):
            assert issubclass(error_type, TransientError)
            assert is_transient(error_type("down"))

    def test_breaker_views_agree(self):
        now = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                 clock=lambda: now[0])
        assert (breaker.state(), breaker.open, breaker.allow()) == ("closed", False, True)
        breaker.record_failure()
        assert (breaker.state(), breaker.open, breaker.allow()) == ("open", True, False)
        now[0] = 5.0
        assert (breaker.state(), breaker.open, breaker.allow()) == ("half-open", False, True)
