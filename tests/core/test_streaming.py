"""Tests for the streaming (real-time) RCA extension."""

import gc
import random
import weakref
import zlib

import pytest

from repro.apps.bgp_flaps import BgpFlapApp
from repro.collector import DataCollector
from repro.core import footprint as footprint_module
from repro.core.footprint import FootprintIndex, footprint_hit
from repro.core.streaming import FeedReplayer, StreamingConfig, StreamingRca
from repro.platform import GrcaPlatform
from repro.simulation.faults import FaultInjector
from repro.simulation.telemetry import BASE_EPOCH, TelemetryEmitter
from repro.topology import TopologyParams, build_topology


def make_live_setup(edit=None):
    """A topology, a stream of injected telemetry, and a streaming app.

    Deterministic: two calls build byte-identical pipelines, so tests
    can hold an incremental run against an independent full-replay
    oracle.  ``edit`` maps the telemetry stream (a list of ``(time,
    source, line)``) to the one the replayer is built over."""
    topo = build_topology(
        TopologyParams(n_pops=3, pers_per_pop=2, customers_per_per=4, seed=88)
    )
    emitter = TelemetryEmitter(topo, random.Random(1), syslog_jitter=1.0)
    injector = FaultInjector(topo, emitter, random.Random(2))
    customers = sorted(topo.customer_attachments)

    truths = []
    t = BASE_EPOCH + 3600.0
    truths += injector.bgp_interface_flap(t, customers[0])
    truths += injector.bgp_cpu_spike(t + 3600.0, customers[1])
    truths += injector.bgp_unknown(t + 7200.0, customers[2])
    truths += injector.bgp_customer_reset(t + 10800.0, customers[3])

    collector = DataCollector()
    for router in topo.network.routers.values():
        collector.registry.register_device(router.name, router.timezone)
    platform = GrcaPlatform.from_collector(topo, collector, config_time=BASE_EPOCH)
    app = BgpFlapApp.build(platform)
    stream = emitter.buffers.replay_order()
    if edit is not None:
        stream = edit(stream)
    replayer = FeedReplayer(collector, stream)
    return topo, app, replayer, truths, t


@pytest.fixture
def live_setup():
    return make_live_setup()


class TestStreamingRca:
    def test_incremental_matches_batch(self, live_setup):
        topo, app, replayer, truths, t0 = live_setup
        streaming = StreamingRca(app.engine, StreamingConfig(settle_seconds=420.0))
        collected = []
        now = t0 - 600.0
        while replayer.pending or (streaming.watermark or 0) < t0 + 14400.0:
            now += 900.0
            replayer.deliver_until(now)
            collected.extend(streaming.advance(now))
            if now > t0 + 20000.0:
                break
        assert len(collected) == len(truths)
        causes = sorted(d.primary_cause for d in collected)
        assert causes == sorted(t.cause for t in truths)

    def test_no_duplicate_diagnoses(self, live_setup):
        _topo, app, replayer, truths, t0 = live_setup
        replayer.deliver_until(t0 + 20000.0)
        streaming = StreamingRca(app.engine, start=t0 - 600.0)
        first = streaming.advance(t0 + 20000.0)
        again = streaming.advance(t0 + 20001.0)
        more = streaming.advance(t0 + 30000.0)
        assert len(first) == len(truths)
        assert again == []
        assert more == []

    def test_unsettled_symptom_deferred(self, live_setup):
        _topo, app, replayer, truths, t0 = live_setup
        streaming = StreamingRca(app.engine, StreamingConfig(settle_seconds=420.0))
        streaming._start = t0 - 600.0
        # deliver everything, but advance only to just after the first flap
        replayer.deliver_until(t0 + 20000.0)
        early = streaming.advance(t0 + 100.0)  # flap not settled yet
        assert early == []
        later = streaming.advance(t0 + 20000.0)
        assert len(later) == len(truths)

    def test_callback_invoked(self, live_setup):
        _topo, app, replayer, truths, t0 = live_setup
        replayer.deliver_until(t0 + 20000.0)
        seen = []
        streaming = StreamingRca(app.engine, on_diagnosis=seen.append, start=t0 - 600.0)
        streaming.advance(t0 + 20000.0)
        assert len(seen) == len(truths)
        assert streaming.diagnosed_count == len(truths)

    def test_late_evidence_still_joins(self, live_setup):
        """Evidence delivered after the symptom (but before settling)
        must be used — the point of the settle delay."""
        topo, app, replayer, truths, t0 = live_setup
        streaming = StreamingRca(app.engine, StreamingConfig(settle_seconds=420.0))
        # deliver only up to the middle of the first flap's message burst
        replayer.deliver_until(t0 + 1.0)
        assert streaming.advance(t0 + 2.0) == []
        replayer.deliver_until(t0 + 20000.0)
        diagnoses = streaming.advance(t0 + 20000.0)
        first = min(diagnoses, key=lambda d: d.symptom.start)
        assert first.primary_cause == "Interface flap"

    def test_watermark_monotonic(self, live_setup):
        _topo, app, replayer, _truths, t0 = live_setup
        streaming = StreamingRca(app.engine)
        streaming.advance(t0)
        w1 = streaming.watermark
        streaming.advance(t0 - 5000.0)  # time going backwards: no-op
        assert streaming.watermark == w1


class TestFeedReplayer:
    def test_delivery_in_time_order(self, live_setup):
        _topo, app, replayer, _truths, t0 = live_setup
        total = replayer.pending
        first = replayer.deliver_until(t0 + 1800.0)
        second = replayer.deliver_until(t0 + 20000.0)
        assert first + second == total
        assert replayer.pending == 0

    def test_nothing_delivered_before_start(self, live_setup):
        _topo, _app, replayer, _truths, t0 = live_setup
        assert replayer.deliver_until(t0 - 7200.0) == 0

    def test_a_source_without_a_parser_is_refused_before_anything_lands(self):
        # the replayer used to find out inside deliver_until, after its
        # cursor had passed the whole tick: the ospfmon line sharing the
        # tick never landed, and a second call delivered nothing
        from repro.collector.sources.ospfmon import render_ospfmon_row

        collector = DataCollector()
        line = render_ospfmon_row(10.0, "nyc-per1:se0/0~chi-per1:se0/0", 20)
        stream = [(10.0, "ospfmon", line), (10.0, "nosuch", "x y z")]
        with pytest.raises(ValueError, match=r"\(10\.0, 'nosuch', 'x y z'\).*'nosuch'"):
            FeedReplayer(collector, stream)
        replayer = FeedReplayer(collector, stream[:1])
        assert replayer.deliver_until(10.0) == 1
        assert len(collector.store.table("ospfmon")) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_a_stamp_that_is_not_finite_is_refused(self, bad):
        # a NaN stamp broke the sort: [5.0, nan, 1.0] stayed in that order
        collector = DataCollector()
        stream = [(5.0, "ospfmon", "a"), (bad, "ospfmon", "b"), (1.0, "ospfmon", "c")]
        with pytest.raises(ValueError, match=rf"\({bad}, 'ospfmon', 'b'\).*not finite"):
            FeedReplayer(collector, stream)


class TestPlatformRefresh:
    def test_refresh_routing_picks_up_new_feeds(self):
        topo = build_topology(TopologyParams(n_pops=2, pers_per_pop=1, seed=9))
        collector = DataCollector()
        platform = GrcaPlatform.from_collector(topo, collector)
        link = sorted(topo.network.logical_links)[0]
        assert platform.paths.ospf.history.weights_at(1e9).get(link, 10) == 10
        from repro.collector.sources.ospfmon import render_ospfmon_row
        from repro.collector.sources.bgpmon import render_bgpmon_row

        collector.ingest("ospfmon", [render_ospfmon_row(100.0, link, 65535)])
        collector.ingest(
            "bgpmon", [render_bgpmon_row(100.0, "A", "198.51.100.0/24", "chi-per1")]
        )
        platform.refresh_routing()
        assert platform.paths.ospf.history.weights_at(200.0)[link] == 65535
        decision = platform.paths.bgp.best_egress("nyc-per1", "198.51.100.4", 200.0)
        assert decision.egress_router == "chi-per1"


class TestGcFreeze:
    def test_set_up_is_frozen_from_construction_to_close(self, live_setup):
        _topo, app, replayer, truths, t0 = live_setup
        gc.unfreeze()  # the platform's own freeze, and earlier tests'
        streaming = StreamingRca(app.engine, start=t0 - 600.0)
        frozen = gc.get_freeze_count()
        assert frozen > 0
        # what full collections walk no longer includes the set-up
        assert all(obj is not app.engine for obj in gc.get_objects())
        collected = []
        now = t0 - 600.0
        while now < t0 + 20000.0:
            now += 900.0
            replayer.deliver_until(now)
            collected.extend(streaming.advance(now))
            gc.collect()
            assert gc.get_freeze_count() >= frozen
        assert len(collected) == len(truths)
        streaming.close()
        assert gc.get_freeze_count() == 0
        streaming.close()  # idempotent: a second close unfreezes nothing new


class TestDedupePruning:
    def test_keys_older_than_horizon_pruned_on_advance(self, live_setup):
        _topo, app, replayer, truths, t0 = live_setup
        config = StreamingConfig(settle_seconds=420.0, dedupe_horizon=3600.0)
        streaming = StreamingRca(app.engine, config, start=t0 - 600.0)
        replayer.deliver_until(t0 + 20000.0)
        # all symptoms end well before (t0 + 20000 - 420) - 3600: they
        # are diagnosed, recorded for dedupe, and immediately pruned
        assert len(streaming.advance(t0 + 20000.0)) == len(truths)
        assert streaming._seen == {}

    def test_stale_keys_pruned_even_on_idle_advance(self, live_setup):
        """Regression: the early-return path (nothing newly settled)
        must still enforce the dedupe_horizon memory bound."""
        _topo, app, replayer, _truths, t0 = live_setup
        config = StreamingConfig(settle_seconds=420.0, dedupe_horizon=3600.0)
        streaming = StreamingRca(app.engine, config, start=t0 - 600.0)
        replayer.deliver_until(t0 + 20000.0)
        streaming.advance(t0 + 20000.0)
        # seed a synthetic stale key ending before the horizon
        streaming._seen[("ghost", ("r",), 0.0)] = t0
        # time has not moved: this advance takes the early-return path
        assert streaming.advance(t0 + 20000.0) == []
        assert ("ghost", ("r",), 0.0) not in streaming._seen

    def test_fresh_keys_survive_pruning(self, live_setup):
        _topo, app, replayer, truths, t0 = live_setup
        config = StreamingConfig(settle_seconds=420.0, dedupe_horizon=30000.0)
        streaming = StreamingRca(app.engine, config, start=t0 - 600.0)
        replayer.deliver_until(t0 + 20000.0)
        streaming.advance(t0 + 20000.0)
        assert len(streaming._seen) == len(truths)
        streaming.advance(t0 + 20001.0)  # idle advance, horizon far away
        assert len(streaming._seen) == len(truths)


class TestWatermarkDeferral:
    def test_lagging_feed_defers_settling(self, live_setup):
        _topo, app, replayer, _truths, t0 = live_setup
        streaming = StreamingRca(app.engine, StreamingConfig(settle_seconds=420.0))
        registry = app.engine.config.health
        # the snmp feed (backing "CPU high (average)") trails by 700 s
        registry.observe("snmp", t0, 1, 0, watermark=t0 - 700.0)
        streaming.advance(t0)
        assert streaming.watermark == t0 - 700.0  # not t0 - 420

    def test_deferral_bounded(self, live_setup):
        _topo, app, _replayer, _truths, t0 = live_setup
        config = StreamingConfig(settle_seconds=420.0, max_watermark_defer=300.0)
        streaming = StreamingRca(app.engine, config)
        registry = app.engine.config.health
        registry.observe("snmp", t0, 1, 0, watermark=t0 - 3000.0)
        streaming.advance(t0)
        # still LAGGING (staleness 3000 < down_seconds) but capped
        assert streaming.watermark == t0 - 420.0 - 300.0

    def test_down_feed_never_stalls_pipeline(self, live_setup):
        _topo, app, _replayer, _truths, t0 = live_setup
        streaming = StreamingRca(app.engine, StreamingConfig(settle_seconds=420.0))
        registry = app.engine.config.health
        registry.observe("snmp", t0, 1, 0, watermark=t0 - 5000.0)
        assert registry.state("snmp").value == "down"
        streaming.advance(t0)
        assert streaming.watermark == t0 - 420.0

    def test_unobserved_feeds_do_not_defer(self, live_setup):
        _topo, app, _replayer, _truths, t0 = live_setup
        streaming = StreamingRca(app.engine, StreamingConfig(settle_seconds=420.0))
        streaming.advance(t0)
        assert streaming.watermark == t0 - 420.0

    def test_advance_ticks_the_registry(self, live_setup):
        _topo, app, _replayer, _truths, t0 = live_setup
        streaming = StreamingRca(app.engine, StreamingConfig(settle_seconds=420.0))
        registry = app.engine.config.health
        registry.observe("snmp", t0 - 5000.0, 1, 0, watermark=t0 - 5000.0)
        assert registry.state("snmp").value == "healthy"
        streaming.advance(t0)  # silence since t0-5000 noticed here
        assert registry.state("snmp").value == "down"


def withholding(predicate, held):
    """A :func:`make_live_setup` edit: keeps the telemetry lines that
    match ``predicate`` out of the replay and appends them to ``held``,
    for the caller to deliver late by hand."""

    def edit(stream):
        held.extend(entry for entry in stream if predicate(entry))
        return [entry for entry in stream if not predicate(entry)]

    return edit


def delaying(delay):
    """A :func:`make_live_setup` edit: ``delay`` maps a telemetry entry
    to how many seconds late (and so out of order) the replay delivers
    it."""
    return lambda stream: [
        (entry[0] + delay(entry),) + entry[1:] for entry in stream
    ]


def _staged_run(setup, config, clear_everything=False):
    """Drive a streaming run in 900 s ticks; return (rca, diagnoses).

    ``clear_everything`` empties the engine's retrieval cache before
    every advance: the obviously-correct cache discipline (nothing
    cached can be stale) that delta invalidation and horizon eviction
    must be indistinguishable from.
    """
    _topo, app, replayer, _truths, t0 = setup
    streaming = StreamingRca(app.engine, config, start=t0 - 600.0)
    collected = []
    now = t0 - 600.0
    while now < t0 + 20000.0:
        now += 900.0
        replayer.deliver_until(now)
        if clear_everything:
            app.engine.clear_cache()
        collected.extend(streaming.advance(now))
    return streaming, collected


class TestIncrementalRediagnosis:
    """The tentpole contract: delta-driven invalidation plus bounded
    re-diagnosis must converge to exactly what a full replay produces —
    late and out-of-order records included."""

    def test_incremental_equals_legacy_discipline(self):
        # same staged delivery, two cache disciplines: selective
        # invalidation must be observationally identical to a twin that
        # clears everything before every advance
        legacy, by_legacy = _staged_run(
            make_live_setup(), StreamingConfig(), clear_everything=True
        )
        incremental, by_incremental = _staged_run(
            make_live_setup(), StreamingConfig()
        )
        # the twin never had a cached cover to invalidate or evict
        assert legacy.invalidated_count == legacy.evicted_count == 0
        assert by_incremental == by_legacy  # byte-identical diagnoses

    def test_frontier_check_skips_no_sweep_that_would_hit(self, monkeypatch):
        # two evidence lines in three arrive 20 or 40 minutes late, behind
        # what cached covers and settled footprints already reach, so
        # sweeps must run; the twin sweeps on every delta it is handed
        # (and caches nothing)
        def delay(entry):
            _time, source, line = entry
            if source == "bgpmon":
                return 0.0  # the symptoms themselves arrive on time
            return (1200.0, 0.0, 2400.0)[zlib.crc32(line.encode()) % 3]

        with monkeypatch.context() as patch:
            patch.setattr(FootprintIndex, "_reached", lambda self, table, oldest: True)
            twin, by_twin = _staged_run(
                make_live_setup(delaying(delay)), StreamingConfig(),
                clear_everything=True,
            )
        streaming, collected = _staged_run(
            make_live_setup(delaying(delay)), StreamingConfig()
        )
        assert collected == by_twin  # re-emitted corrections included
        assert streaming.reopened_count == twin.reopened_count > 0
        assert streaming.reemitted_count == twin.reemitted_count
        assert streaming.invalidated_count > 0

    def test_in_order_replay_never_sweeps(self, monkeypatch):
        # in-order deltas lie past everything cached or settled: the
        # frontier check alone answers, no footprint is looked at
        swept = []

        def counted(reads, deltas):
            swept.append(reads)
            return footprint_hit(reads, deltas)

        monkeypatch.setattr(footprint_module, "footprint_hit", counted)
        streaming, collected = _staged_run(make_live_setup(), StreamingConfig())
        assert len(collected) == 4
        assert streaming.invalidated_count == streaming.reopened_count == 0
        assert swept == []

    def test_covers_behind_the_horizon_evicted_without_effect(self):
        # a tight re-open horizon lets the loop drop covers that no
        # fresh or re-opened symptom can ever request again; eviction
        # is pure cache policy, so the stream must stay byte-identical
        _legacy, by_legacy = _staged_run(
            make_live_setup(), StreamingConfig(), clear_everything=True
        )
        streaming, collected = _staged_run(
            make_live_setup(), StreamingConfig(reopen_horizon=900.0)
        )
        assert streaming.evicted_count > 0
        assert collected == by_legacy
        # whatever survives in the cache still ends inside the slack
        # of the final cutoff
        cutoff = (
            streaming.watermark - streaming.config.reopen_horizon - 3600.0
        )
        assert all(
            hi >= cutoff for _name, _lo, hi in streaming.engine._retrieval_cache
        )

    def test_late_evidence_reopens_and_corrects(self):
        # withhold the CPU spike's only evidence line; the symptom
        # settles with the wrong conclusion, and the late arrival must
        # re-open exactly that diagnosis and re-emit the corrected one
        # the oracle runs the same staged delivery schedule with nothing
        # withheld (feed-health history depends on the schedule, and the
        # diagnoses legitimately reflect it)
        oracle_setup = make_live_setup()
        _topo, _oracle_app, _oracle_replayer, truths, t0 = oracle_setup
        _oracle_rca, oracle_diagnoses = _staged_run(
            oracle_setup, StreamingConfig()
        )
        by_oracle = {d.symptom.interval: d for d in oracle_diagnoses}

        held = []
        setup = make_live_setup(withholding(lambda e: "CPUHOG" in e[2], held))
        _topo2, app, replayer, _truths, _t0 = setup
        assert len(held) == 1
        streaming, collected = _staged_run(setup, StreamingConfig())
        assert len(collected) == len(truths)
        cpu_truth = next(t for t in truths if t.cause == "CPU high (spike)")
        wrong = next(
            d for d in collected
            if abs(d.symptom.start - cpu_truth.time) < 120.0
        )
        assert wrong.primary_cause != "CPU high (spike)"
        assert wrong.symptom.interval in by_oracle

        # deliver the withheld line late (out of order by hours)
        emitted = []
        streaming.on_diagnosis = emitted.append
        FeedReplayer(replayer.collector, held).deliver_until(t0 + 20000.0)
        corrected = streaming.advance(t0 + 20900.0)
        assert streaming.reopened_count >= 1
        assert streaming.reemitted_count == 1
        assert corrected == emitted
        (fixed,) = corrected
        assert fixed.symptom.interval == wrong.symptom.interval
        assert fixed.primary_cause == "CPU high (spike)"
        # the corrected diagnosis is byte-identical to the full-replay
        # oracle's (footprint and trace are provenance, excluded)
        assert fixed == by_oracle[fixed.symptom.interval]

    def test_reopen_works_even_when_nothing_new_settles(self):
        # the early-return path (watermark unchanged) must still drain
        # deltas and process re-opens: a late record with no new symptom
        # is exactly the hard case
        held = []
        setup = make_live_setup(withholding(lambda e: "CPUHOG" in e[2], held))
        _topo, app, replayer, truths, t0 = setup
        streaming, collected = _staged_run(setup, StreamingConfig())
        assert len(collected) == len(truths)
        watermark = streaming.watermark
        FeedReplayer(replayer.collector, held).deliver_until(t0 + 20000.0)
        corrected = streaming.advance(watermark)  # time has not moved
        assert streaming.watermark == watermark
        assert [d.primary_cause for d in corrected] == ["CPU high (spike)"]

    def test_unrelated_deltas_do_not_reopen(self):
        setup = make_live_setup()
        _topo, app, replayer, truths, t0 = setup
        streaming, collected = _staged_run(setup, StreamingConfig())
        assert len(collected) == len(truths)
        # a record far outside every settled footprint
        app.engine.store.insert("syslog", t0 - 90000.0, router="chi-per1")
        assert streaming.advance(streaming.watermark) == []
        assert streaming.reopened_count == 0
        assert streaming.reemitted_count == 0

    def test_unchanged_rediagnosis_is_absorbed_silently(self):
        # a delta inside a settled footprint that does not change the
        # conclusion re-opens but must not re-emit
        setup = make_live_setup()
        _topo, app, replayer, truths, t0 = setup
        streaming, collected = _staged_run(setup, StreamingConfig())
        assert len(collected) == len(truths)
        flap = next(d for d in collected if d.primary_cause == "Interface flap")
        # a syslog record (the table every walk reads) from a router no
        # detector knows, inside the settled symptom's read windows
        app.engine.store.insert(
            "syslog", flap.symptom.start, router="ghost-per9"
        )
        assert streaming.advance(streaming.watermark) == []
        assert streaming.reopened_count >= 1
        assert streaming.reemitted_count == 0

    def test_reopen_cap_bounds_work_per_advance(self):
        setup = make_live_setup()
        _topo, app, replayer, truths, t0 = setup
        streaming, collected = _staged_run(
            setup, StreamingConfig(max_reopen_per_advance=1)
        )
        assert len(collected) == len(truths)
        # one delta per settled symptom: all four footprints are hit,
        # but only the most recent symptom may re-open
        for d in collected:
            app.engine.store.insert("syslog", d.symptom.start, router="x")
        streaming.advance(streaming.watermark)
        assert streaming.reopened_count == 1

    def test_settled_set_respects_reopen_horizon(self):
        setup = make_live_setup()
        _topo, app, replayer, truths, t0 = setup
        streaming, collected = _staged_run(
            setup, StreamingConfig(reopen_horizon=900.0)
        )
        assert len(collected) == len(truths)
        # only symptoms ending within 900 s of the watermark survive GC
        horizon = streaming.watermark - 900.0
        assert all(
            instance.end >= horizon
            for instance, _d in streaming._settled.values()
        )
        assert len(streaming._settled) < len(truths)

    def test_dropped_stream_leaves_nothing_behind(self):
        # a stream registers nothing with the store, so there is nothing
        # to detach: closed or merely dropped, ingest goes on without it
        # and the engine it used keeps syncing itself
        held = []
        setup = make_live_setup(withholding(lambda e: "CPUHOG" in e[2], held))
        _topo, app, replayer, truths, t0 = setup
        streaming, collected = _staged_run(setup, StreamingConfig())
        cpu_truth = next(t for t in truths if t.cause == "CPU high (spike)")
        wrong = next(
            d for d in collected
            if abs(d.symptom.start - cpu_truth.time) < 120.0
        )
        assert wrong.primary_cause != "CPU high (spike)"
        dropped = StreamingRca(app.engine)  # never closed
        gone = [weakref.ref(streaming), weakref.ref(dropped)]
        streaming.close()
        streaming.close()  # idempotent
        del streaming, dropped
        try:
            # the withheld evidence lands, hours late, with no stream left
            FeedReplayer(replayer.collector, held).deliver_until(t0 + 20000.0)
            assert [ref() for ref in gone] == [None, None]  # nobody kept them
            assert app.engine.diagnose(wrong.symptom).primary_cause == (
                "CPU high (spike)"
            )
        finally:
            gc.unfreeze()  # what the dropped stream never handed back

    def test_lagging_feed_defers_then_incremental_catches_up(self):
        # watermark deferral and incremental re-diagnosis compose: a
        # lagging feed holds settling back, and once it heals the same
        # staged run converges to the full-replay conclusions
        setup = make_live_setup()
        _topo, app, replayer, truths, t0 = setup
        registry = app.engine.config.health
        streaming = StreamingRca(
            app.engine, StreamingConfig(settle_seconds=420.0), start=t0 - 600.0
        )
        replayer.deliver_until(t0 + 11400.0)
        # snmp trails by ~1900 s: LAGGING, so settling is held back to
        # its watermark and the customer-reset symptom (ending later)
        # stays open
        registry.observe("snmp", t0 + 11400.0, 1, 0, watermark=t0 + 9500.0)
        deferred = streaming.advance(t0 + 11400.0)
        assert streaming.watermark == t0 + 9500.0
        assert len(deferred) == len(truths) - 1
        # the feed catches up; the held symptom settles incrementally
        replayer.deliver_until(t0 + 20000.0)
        registry.observe("snmp", t0 + 20000.0, 1, 0, watermark=t0 + 20000.0)
        caught_up = streaming.advance(t0 + 20000.0)
        assert len(caught_up) == 1
        causes = sorted(d.primary_cause for d in deferred + caught_up)
        assert causes == sorted(t.cause for t in truths)
