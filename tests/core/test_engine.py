"""Tests for the generic RCA engine (correlation + reasoning)."""

import pytest

from repro.collector.store import DataStore
from repro.core.engine import Diagnosis, EngineConfig, RcaEngine
from repro.core.events import (
    CandidateSet,
    EventDefinition,
    EventInstance,
    EventLibrary,
    RetrievalContext,
)
from repro.core.graph import DiagnosisGraph, DiagnosisRule
from repro.core.locations import Location, LocationType
from repro.core.spatial import JoinLevel, SpatialJoinRule
from repro.core.temporal import ExpandOption, TemporalExpansion, TemporalJoinRule

from ..oracles.reference import ReferenceEngine, assert_agrees


def store_backed_event(name, table, location_type=LocationType.ROUTER):
    """Event definition reading (timestamp, router) rows from a table."""

    def retrieve(context: RetrievalContext):
        columns = context.store.table(table).query_columns(context.start, context.end)
        for timestamp, router in zip(columns.timestamps, columns.column("router")):
            yield timestamp, timestamp, Location.router(router), ()

    return EventDefinition(name, location_type, retrieve)


def candidate_set(locations):
    """Point rows at 0, 1, 2, … s, one per location, as a candidate set."""
    times = [float(k) for k in range(len(locations))]
    return CandidateSet("e", times, times, locations, [()] * len(locations))


def symptom_event(name):
    def retrieve(context):
        return []

    return EventDefinition(name, LocationType.ROUTER, retrieve)


ROUTER_JOIN = SpatialJoinRule(LocationType.ROUTER, LocationType.ROUTER, JoinLevel.ROUTER)


def temporal(left=30.0, right=30.0):
    exp = TemporalExpansion(ExpandOption.START_END, left, right)
    return TemporalJoinRule(exp, exp)


@pytest.fixture
def setup(resolver):
    """Graph s -> a -> b over store tables 'ta' and 'tb'."""
    store = DataStore()
    library = EventLibrary()
    library.register(symptom_event("s"))
    library.register(store_backed_event("a", "ta"))
    library.register(store_backed_event("b", "tb"))
    graph = DiagnosisGraph(symptom_event="s")
    graph.add_rule(
        DiagnosisRule("s", "a", temporal(), ROUTER_JOIN, priority=10)
    )
    graph.add_rule(
        DiagnosisRule("a", "b", temporal(), ROUTER_JOIN, priority=20)
    )
    engine = RcaEngine(graph, library, resolver, store)
    return store, engine


def symptom_at(t, router="nyc-per1"):
    return EventInstance.make("s", t, t + 10.0, Location.router(router))


class TestDiagnose:
    def test_no_evidence_unknown(self, setup):
        _store, engine = setup
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.primary_cause == "Unknown"
        assert not diagnosis.is_explained

    def test_single_level_match(self, setup):
        store, engine = setup
        store.insert("ta", 1005.0, router="nyc-per1")
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.root_causes == ["a"]

    def test_chained_match_goes_deeper(self, setup):
        store, engine = setup
        store.insert("ta", 1005.0, router="nyc-per1")
        store.insert("tb", 1008.0, router="nyc-per1")
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.root_causes == ["b"]
        assert {e.rule.child_event for e in diagnosis.evidence} == {"a", "b"}

    def test_deep_event_without_intermediate_not_matched(self, setup):
        store, engine = setup
        store.insert("tb", 1008.0, router="nyc-per1")  # b without a
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.primary_cause == "Unknown"

    def test_temporal_filtering(self, setup):
        store, engine = setup
        store.insert("ta", 5000.0, router="nyc-per1")  # far away in time
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.primary_cause == "Unknown"

    def test_spatial_filtering(self, setup):
        store, engine = setup
        store.insert("ta", 1005.0, router="chi-per1")  # wrong router
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert diagnosis.primary_cause == "Unknown"

    def test_wrong_symptom_name_rejected(self, setup):
        _store, engine = setup
        bad = EventInstance.make("other", 0.0, 1.0, Location.router("nyc-per1"))
        with pytest.raises(ValueError):
            engine.diagnose(bad)

    def test_diagnose_all_order_preserved(self, setup):
        store, engine = setup
        store.insert("ta", 1005.0, router="nyc-per1")
        diagnoses = engine.diagnose_all([symptom_at(1000.0), symptom_at(9000.0)])
        assert [d.primary_cause for d in diagnoses] == ["a", "Unknown"]

    def test_evidence_depth_tracked(self, setup):
        store, engine = setup
        store.insert("ta", 1005.0, router="nyc-per1")
        store.insert("tb", 1008.0, router="nyc-per1")
        diagnosis = engine.diagnose(symptom_at(1000.0))
        depths = {e.rule.child_event: e.depth for e in diagnosis.evidence}
        assert depths == {"a": 1, "b": 2}

    def test_explain_mentions_cause(self, setup):
        store, engine = setup
        store.insert("ta", 1005.0, router="nyc-per1")
        text = engine.diagnose(symptom_at(1000.0)).explain()
        assert "root cause: a" in text
        assert "symptom:" in text

    def test_missing_event_definition_rejected_at_build(self, setup, resolver):
        graph = DiagnosisGraph(symptom_event="ghost-symptom")
        with pytest.raises(KeyError):
            RcaEngine(graph, EventLibrary(), resolver, DataStore())

    def test_max_matches_cap(self, setup, resolver):
        store, engine = setup
        engine.config.max_matches_per_rule = 3
        for i in range(10):
            store.insert("ta", 1001.0 + i, router="nyc-per1")
        diagnosis = engine.diagnose(symptom_at(1000.0))
        assert len(diagnosis.evidence_for("a")) == 3

    def test_retrieval_cache_shared_across_symptoms(self, setup):
        store, engine = setup
        store.insert("ta", 1005.0, router="nyc-per1")
        engine.diagnose(symptom_at(1000.0))
        cache_size = len(engine._retrieval_cache)
        engine.diagnose(symptom_at(1001.0))  # same bucket
        assert len(engine._retrieval_cache) == cache_size
        engine.clear_cache()
        assert not engine._retrieval_cache


class TestBucketWindow:
    def test_interior_window_rounds_outward(self):
        from repro.core.engine import bucket_window

        assert bucket_window((10.0, 119.0)) == (0.0, 120.0)

    def test_aligned_bounds_stay_put(self):
        # a window ending exactly on a bucket boundary must not pad a
        # whole phantom bucket (the seed rounded (0, 120) to (0, 180))
        from repro.core.engine import bucket_window

        assert bucket_window((0.0, 120.0)) == (0.0, 120.0)
        assert bucket_window((60.0, 60.0)) == (60.0, 60.0)

    def test_negative_timestamps_round_toward_minus_infinity(self):
        # floor semantics: the bucketed window is a superset for
        # pre-epoch timestamps too, never a shifted window
        from repro.core.engine import bucket_window

        assert bucket_window((-130.0, -70.0)) == (-180.0, -60.0)
        assert bucket_window((-10.0, -5.0)) == (-60.0, 0.0)
        assert bucket_window((-60.0, 0.0)) == (-60.0, 0.0)

    def test_cache_key_pinned_for_negative_timestamps(self, setup):
        # symptom interval [-1000, -990], both join expansions add ±30:
        # search window [-1060, -930] buckets to (-1080, -900) — a
        # floor/ceil superset, never a shifted window
        _store, engine = setup
        engine.diagnose(symptom_at(-1000.0))
        assert ("a", -1080.0, -900.0) in engine._retrieval_cache


class TestCoalesceWindows:
    def test_empty_and_single(self):
        from repro.core.engine import coalesce_windows

        assert coalesce_windows([]) == []
        assert coalesce_windows([(1.0, 2.0)]) == [(1.0, 2.0)]

    def test_overlapping_and_touching_merge(self):
        from repro.core.engine import coalesce_windows

        assert coalesce_windows([(0.0, 60.0), (30.0, 90.0)]) == [(0.0, 90.0)]
        assert coalesce_windows([(0.0, 60.0), (60.0, 120.0)]) == [(0.0, 120.0)]

    def test_disjoint_stay_separate_and_sorted(self):
        from repro.core.engine import coalesce_windows

        assert coalesce_windows([(200.0, 260.0), (0.0, 60.0)]) == [
            (0.0, 60.0),
            (200.0, 260.0),
        ]


class TestRetrievalPlanner:
    @pytest.fixture
    def counting_setup(self, resolver):
        """Graph s -> a -> b where both retrievals count their calls."""
        store = DataStore()
        library = EventLibrary()
        calls = {"a": 0, "b": 0}

        def counting_event(name, table):
            def retrieve(context):
                calls[name] += 1
                columns = context.store.table(table).query_columns(
                    context.start, context.end
                )
                for timestamp, router in zip(
                    columns.timestamps, columns.column("router")
                ):
                    yield timestamp, timestamp, Location.router(router), ()

            return EventDefinition(name, LocationType.ROUTER, retrieve)

        library.register(symptom_event("s"))
        library.register(counting_event("a", "ta"))
        library.register(counting_event("b", "tb"))
        graph = DiagnosisGraph(symptom_event="s")
        graph.add_rule(
            DiagnosisRule("s", "a", temporal(), ROUTER_JOIN, priority=10)
        )
        graph.add_rule(
            DiagnosisRule("a", "b", temporal(), ROUTER_JOIN, priority=20)
        )
        engine = RcaEngine(graph, library, resolver, store)
        return store, engine, calls

    def test_sibling_windows_coalesce_to_one_retrieval(self, counting_setup):
        store, engine, calls = counting_setup
        # two matched 'a' parents whose bucketed 'b' windows overlap:
        # [900, 1080] and [1020, 1200] coalesce into one cover window
        store.insert("ta", 1005.0, router="nyc-per1")
        store.insert("ta", 1100.0, router="nyc-per1")
        store.insert("tb", 1008.0, router="nyc-per1")
        symptom = EventInstance.make(
            "s", 1000.0, 1101.0, Location.router("nyc-per1")
        )
        diagnosis = engine.diagnose(symptom)
        assert {e.rule.child_event for e in diagnosis.evidence} == {"a", "b"}
        assert calls["b"] == 1
        # the single cached entry covers both siblings' windows
        b_keys = [k for k in engine._retrieval_cache if k[0] == "b"]
        assert b_keys == [("b", 900.0, 1200.0)]

    def test_cover_reused_across_diagnoses(self, counting_setup):
        store, engine, calls = counting_setup
        store.insert("ta", 1005.0, router="nyc-per1")
        engine.diagnose(symptom_at(1000.0))
        retrievals_after_first = dict(calls)
        # second symptom in the same bucket range: every window is
        # contained in an existing cover, so no new retrievals run
        engine.diagnose(symptom_at(1001.0))
        assert calls == retrievals_after_first

    def test_clear_cache_drops_covers(self, counting_setup):
        store, engine, calls = counting_setup
        store.insert("ta", 1005.0, router="nyc-per1")
        engine.diagnose(symptom_at(1000.0))
        engine.clear_cache()
        assert engine._covers == {}
        engine.diagnose(symptom_at(1000.0))
        assert calls["a"] == 2

    def test_invalidation_rebuilds_covers(self, counting_setup):
        store, engine, calls = counting_setup
        store.insert("ta", 1005.0, router="nyc-per1")
        engine.diagnose(symptom_at(1000.0))
        assert engine._covers
        # a late record inside the read windows drops those entries and
        # their covers, so the next diagnosis re-retrieves
        store.insert("ta", 1006.0, router="chi-cr1")
        dropped = engine.sync()
        assert dropped >= 1
        remaining = {
            (name, lo, hi) for name, windows in engine._covers.items()
            for lo, hi in windows
        }
        assert remaining == set(engine._retrieval_cache)
        calls_before = dict(calls)
        engine.diagnose(symptom_at(1000.0))
        assert calls["a"] == calls_before["a"] + 1

    def test_planner_preserves_results_vs_unplanned(self, counting_setup):
        store, engine, calls = counting_setup
        for i in range(6):
            store.insert("ta", 1000.0 + 7 * i, router="nyc-per1")
            store.insert("tb", 1002.0 + 7 * i, router="nyc-per1")
        symptom = EventInstance.make(
            "s", 1000.0, 1050.0, Location.router("nyc-per1")
        )
        planned = engine.diagnose(symptom)
        engine.clear_cache()
        # force one-retrieval-per-rule by bypassing the level plan
        unplanned_matches = {}
        for item in planned.evidence:
            key = (item.rule.child_event, item.instance)
            unplanned_matches[key] = unplanned_matches.get(key, 0) + 1
        rerun = engine.diagnose(symptom)
        rerun_matches = {}
        for item in rerun.evidence:
            key = (item.rule.child_event, item.instance)
            rerun_matches[key] = rerun_matches.get(key, 0) + 1
        assert rerun_matches == unplanned_matches
        assert rerun.result == planned.result


class TestRetrievalEviction:
    """``evict_retrievals_before``: pure cache policy, never results."""

    @pytest.fixture
    def populated(self, setup):
        store, engine = setup
        store.insert("ta", 1005.0, router="nyc-per1")
        store.insert("tb", 1008.0, router="nyc-per1")
        first = engine.diagnose(symptom_at(1000.0))
        assert engine._retrieval_cache
        return store, engine, first

    def test_cutoff_below_covers_is_a_noop(self, populated):
        _store, engine, _first = populated
        keys = set(engine._retrieval_cache)
        assert engine.evict_retrievals_before(0.0) == 0
        assert set(engine._retrieval_cache) == keys

    def test_cutoff_above_covers_drops_everything(self, populated):
        _store, engine, _first = populated
        count = len(engine._retrieval_cache)
        assert engine.evict_retrievals_before(1e12) == count
        assert engine._retrieval_cache == {}
        assert engine._covers == {}

    def test_partial_eviction_keeps_cover_index_consistent(self, setup):
        store, engine = setup
        store.insert("ta", 1005.0, router="nyc-per1")
        engine.diagnose(symptom_at(1000.0))
        engine.diagnose(symptom_at(250_000.0))
        # drop only the early covers; the index must mirror the cache
        dropped = engine.evict_retrievals_before(200_000.0)
        assert dropped >= 1
        assert engine._retrieval_cache
        remaining = {
            (name, lo, hi) for name, windows in engine._covers.items()
            for lo, hi in windows
        }
        assert remaining == set(engine._retrieval_cache)

    def test_rediagnosis_after_eviction_is_identical(self, populated):
        store, engine, first = populated
        engine.evict_retrievals_before(1e12)
        again = engine.diagnose(symptom_at(1000.0))
        assert again.result == first.result
        assert [e.instance for e in again.evidence] == [
            e.instance for e in first.evidence
        ]


class TestColumnarSpatialStage:
    """The columnar spatial join vs the nested-loop reference engine."""

    def populate(self, store, routers, base=1000.0, per_router=4):
        t = base
        for _ in range(per_router):
            for router in routers:
                store.insert("ta", t, router=router)
                t += 0.25

    def test_modes_agree_across_distinct_locations(self, setup):
        store, engine = setup
        self.populate(
            store, ["nyc-per1", "nyc-per2", "chi-per1", "bos-per1"]
        )
        symptom = symptom_at(1000.0)
        diagnosis = engine.diagnose(symptom)
        assert_agrees(diagnosis, ReferenceEngine(engine).diagnose(symptom))
        # only the symptom router's candidates survive the router join
        locations = {
            e.instance.location.value
            for e in diagnosis.evidence
            if e.rule.child_event == "a"
        }
        assert locations == {"nyc-per1"}

    def test_modes_agree_under_match_cap(self, setup):
        store, engine = setup
        self.populate(store, ["nyc-per1", "chi-per1"], per_router=9)
        engine.config.max_matches_per_rule = 5
        symptom = symptom_at(1000.0)
        diagnosis = engine.diagnose(symptom)
        assert_agrees(diagnosis, ReferenceEngine(engine).diagnose(symptom))
        assert (
            len([e for e in diagnosis.evidence if e.rule.child_event == "a"])
            == 5
        )

    def test_location_index_inverts_the_parts_column(self):
        names = ["nyc-per1", "chi-per1", "nyc-per1", "bos-per1", "nyc-per1"]
        candidates = candidate_set([Location.router(name) for name in names])
        index = candidates.location_index
        assert index[("nyc-per1",)][1] == [0, 2, 4]
        assert index[("chi-per1",)][1] == [1]
        assert index[("bos-per1",)][1] == [3]
        assert index[("nyc-per1",)][0] is candidates.locations[0]
        # read off the columns: no row became an instance
        assert not candidates._instances

    def test_static_expansions_memoized_per_generation(self, resolver):
        candidates = candidate_set(
            [Location.router("nyc-per1"), Location.router("chi-per1")]
        )
        first = resolver.static_expansions(candidates, JoinLevel.ROUTER, 1.0)
        assert first is not None
        assert set(first) == {("nyc-per1",), ("chi-per1",)}
        # same generation: the exact same map object comes back
        again = resolver.static_expansions(candidates, JoinLevel.ROUTER, 5.0)
        assert again is first
        # a topology change retires the memo entry
        resolver.epoch.bump_topology()
        rebuilt = resolver.static_expansions(candidates, JoinLevel.ROUTER, 5.0)
        assert rebuilt is not first
        assert rebuilt == first

    def test_dynamic_locations_decline_the_static_map(self, resolver):
        candidates = candidate_set(
            [
                Location.router("nyc-per1"),
                Location.pair(LocationType.INGRESS_EGRESS, "nyc-per1", "chi-per1"),
            ]
        )
        assert (
            resolver.static_expansions(candidates, JoinLevel.LOGICAL_LINK, 1.0)
            is None
        )


class TestCompiledPlan:
    """The flat plan the walk interprets (``compile_plan``)."""

    @pytest.fixture(scope="class")
    def platform(self, small_topology):
        from repro.collector import DataCollector
        from repro.platform import GrcaPlatform

        return GrcaPlatform.from_collector(
            small_topology, DataCollector(), config_time=0.0
        )

    @pytest.mark.parametrize("app_name", ["BackboneApp", "BgpFlapApp", "CdnApp", "PimApp"])
    def test_plan_follows_rules_from_order(self, platform, app_name):
        import repro.apps
        from repro.collector.health import canonical_source

        engine = getattr(repro.apps, app_name).build(platform).engine
        graph, plan = engine.graph, engine._plan
        assert set(plan) == graph.events()
        indexes = []
        for event in graph.events():
            steps = plan[event]
            assert [step.rule for step in steps] == graph.rules_from(event)
            for step in steps:
                rule = step.rule
                assert step.definition is engine.library.get(rule.child_event)
                assert step.source == canonical_source(step.definition.data_source)
                assert step.level is rule.spatial.level
                assert step.expands == bool(graph.rules_from(rule.child_event))
                # the reaches rebuild the rule's own search window
                s_lo, s_hi = rule.temporal.symptom.expand(100.0, 160.0)
                assert (
                    s_lo - step.reach_before, s_hi + step.reach_after
                ) == rule.temporal.search_window((100.0, 160.0))
                indexes.append(step.index)
        assert sorted(indexes) == list(range(len(graph.all_rules())))

    def test_isolated_siblings_share_the_plan(self, setup):
        _store, engine = setup
        assert engine.isolated()._plan is engine._plan

    def test_rule_added_after_construction_is_reflected(self, setup):
        # documented choice: the graph counts its rules' revisions and
        # the next diagnose_all recompiles — on every sibling
        store, engine = setup
        sibling = engine.isolated()
        store.insert("ta", 1005.0, router="nyc-per1")
        store.insert("tb", 1008.0, router="nyc-per1")
        engine.library.register(store_backed_event("c", "tb"))
        assert engine.diagnose(symptom_at(1000.0)).root_causes == ["b"]
        engine.graph.add_rule(
            DiagnosisRule("b", "c", temporal(), ROUTER_JOIN, priority=30)
        )
        for each in (engine, sibling):
            assert each.diagnose(symptom_at(1000.0)).root_causes == ["c"]
            assert [s.rule.child_event for s in each._plan["b"]] == ["c"]

    def test_rule_to_an_undefined_event_still_raises(self, setup, resolver):
        _store, engine = setup
        message = "diagnosis graph references undefined events: \\['ghost'\\]"
        engine.graph.add_rule(
            DiagnosisRule("b", "ghost", temporal(), ROUTER_JOIN, priority=30)
        )
        with pytest.raises(KeyError, match=message):
            RcaEngine(engine.graph, engine.library, resolver, DataStore())
        with pytest.raises(KeyError, match=message):
            engine.diagnose(symptom_at(1000.0))

    def test_rule_joining_on_another_type_raises_with_no_data(self, setup, resolver):
        # the walk builds a rule's join only once candidates survive, so
        # a mismatched rule is refused when compiled — every store is
        # empty here, nothing would ever reach the join
        _store, engine = setup
        engine.library.register(store_backed_event("c", "tb"))
        engine.graph.add_rule(
            DiagnosisRule(
                "b", "c", temporal(), priority=30,
                spatial=SpatialJoinRule(
                    LocationType.INTERFACE, LocationType.ROUTER, JoinLevel.ROUTER
                ),
            )
        )
        message = "rule b -> c joins interface~router@router; b is a router"
        with pytest.raises(ValueError, match=message):
            RcaEngine(engine.graph, engine.library, resolver, DataStore())
        with pytest.raises(ValueError, match=message):
            engine.diagnose(symptom_at(1000.0))

    def test_matched_leaf_is_evidence_but_not_a_node(self, setup):
        from repro.obs import Tracer

        store, engine = setup
        for t in (1003.0, 1005.0):
            store.insert("ta", t, router="nyc-per1")
        store.insert("tb", 1008.0, router="nyc-per1")
        diagnosis = engine.diagnose(symptom_at(1000.0), tracer=Tracer())
        # the leaf 'b' instance joins both 'a' parents: evidence once
        # per (rule, parent), never a frontier entry
        leaves = diagnosis.evidence_for("b")
        assert len(leaves) == 2
        assert len({e.parent_instance for e in leaves}) == 2
        nodes = diagnosis.trace.find("node")
        assert [n.label for n in nodes] == ["s", "a", "a"]
        assert [n.meta["matched"] for n in nodes] == [2, 1, 1]
        # one rule span per (rule, parent), with the join funnel
        rules = diagnosis.trace.find("rule")
        assert [r.label for r in rules] == ["s -> a", "a -> b", "a -> b"]
        for span in rules:
            assert {"candidates", "temporal_survivors", "spatial_survivors"} <= set(span.meta)


class TestSelfSync:
    """A bare engine reads the store's change log at the top of every
    call: no owner has to clear or invalidate anything for it."""

    @pytest.fixture
    def world(self):
        from repro.apps import BgpFlapApp
        from repro.simulation import bgp_month

        result = bgp_month(seed=1, total_flaps=30)
        app = BgpFlapApp.build(result.platform())
        symptoms = app.find_symptoms(result.start, result.end)
        return app, symptoms, (result.start, result.end)

    @staticmethod
    def second_flap(store, symptom):
        """Land a second flap of the symptom's interface, late, inside
        the syslog window its diagnosis read."""
        for offset, code, state in (
            (-12.0, "LINEPROTO-5-UPDOWN", "down"), (-11.0, "LINK-3-UPDOWN", "down"),
            (-8.0, "LINEPROTO-5-UPDOWN", "up"), (-7.0, "LINK-3-UPDOWN", "up"),
        ):
            store.insert(
                "syslog", symptom.start + offset, code=code, state=state,
                router="sea-per3", interface="se1/0", message="late",
            )

    @staticmethod
    def cached_flags(diagnosis):
        return [span.meta["cached"] for span in diagnosis.trace.find("retrieve")]

    def test_row_inside_a_read_window_is_seen_by_the_next_diagnosis(self, world):
        from repro.obs import Tracer

        app, symptoms, _span = world
        engine, symptom = app.engine, symptoms[0]
        first = engine.diagnose(symptom)
        assert len(first.evidence) == 3
        (window,) = [read for read in first.footprint if read[0] == "syslog"]
        assert window[1] <= symptom.start - 12.0 <= window[2]
        self.second_flap(engine.store, symptom)
        second = engine.diagnose(symptom, tracer=Tracer())
        assert second == engine.isolated().diagnose(symptom)
        assert len(second.evidence) == 8
        assert not all(self.cached_flags(second))

    def test_row_outside_every_read_window_leaves_the_cache_warm(self, world):
        from repro.obs import Tracer

        app, symptoms, (_start, end) = world
        engine, symptom = app.engine, symptoms[0]
        first = engine.diagnose(symptom)
        engine.store.insert(
            "syslog", end + 86400.0, code="SYS-5-RESTART", router="sea-per3",
            message="System restarted",
        )
        again = engine.diagnose(symptom, tracer=Tracer())
        assert again == first
        flags = self.cached_flags(again)
        assert len(flags) == 9 and all(flags)

    def test_nothing_landed_walks_no_log_entry(self, world):
        app, symptoms, _span = world
        engine, store = app.engine, app.engine.store
        first = engine.diagnose(symptoms[0])

        class Untouchable(type(store._log)):
            def _touched(self, *args):
                raise AssertionError("the log was read")

            __iter__ = __reversed__ = __getitem__ = _touched

        store._log = Untouchable(store._log)
        assert engine.diagnose(symptoms[0]) == first

    def test_app_run_and_serial_batch_see_late_rows(self, world):
        from repro.service.workers import parallel_diagnose

        app, symptoms, (start, end) = world
        before = app.run(start, end).diagnoses
        assert len(before[0].evidence) == 3
        self.second_flap(app.engine.store, symptoms[0])
        rerun = app.run(start, end).diagnoses
        assert rerun == app.engine.isolated().diagnose_all(symptoms)
        assert len(rerun[0].evidence) == 8
        app.engine.store.insert(
            "syslog", symptoms[0].start - 40.0, code="SYS-5-RESTART",
            router="sea-per3", message="System restarted",
        )
        batch = parallel_diagnose(app.engine, symptoms, jobs=1)
        assert batch == app.engine.isolated().diagnose_all(symptoms)
        assert batch[0].primary_cause == "Router reboot" != rerun[0].primary_cause

    def test_log_that_cannot_say_drops_the_whole_cache(self, world, monkeypatch):
        from repro.collector import store as store_module

        monkeypatch.setattr(store_module, "CHANGE_LOG_ROWS", 2)
        app, symptoms, (_start, end) = world
        engine, symptom = app.engine, symptoms[0]
        engine.diagnose(symptom)
        cached = len(engine._retrieval_cache)
        self.second_flap(engine.store, symptom)  # four rows: two are kept
        assert engine.store.changes_since(engine.store.revision - 4)[1] is None
        assert engine.sync() == cached and not engine._retrieval_cache
        assert len(engine.diagnose(symptom).evidence) == 8


class TestNonFiniteSymptom:
    """A symptom interval must be finite: ``float()`` reads "nan" and
    "-inf", and such a symptom filed a ``(nan, hi)`` cover in the engine
    that diagnosed it — every later diagnosis there was served from it
    and carried a NaN footprint."""

    @pytest.fixture(scope="class")
    def world(self):
        from repro.apps import BgpFlapApp
        from repro.simulation import bgp_month

        result = bgp_month(total_flaps=60, seed=5)
        app = BgpFlapApp.build(result.platform())
        return app, app.find_symptoms(result.start, result.end)

    @pytest.mark.parametrize(
        "bound", [("start", "nan"), ("start", "-inf"), ("end", "inf"), ("end", "nan")]
    )
    def test_a_refused_symptom_leaves_the_engine_as_fresh(self, world, bound):
        from repro.core.serialize import instance_from_dict, instance_to_dict

        app, symptoms = world
        engine = app.engine.isolated()
        document = dict(instance_to_dict(symptoms[-1]), **dict([bound]))
        try:
            engine.diagnose(instance_from_dict(document))
        except ValueError as refused:
            assert "finite" in str(refused)
        poisoned = [engine.diagnose(symptom) for symptom in symptoms]
        fresh = app.engine.isolated()
        for diagnosis, symptom in zip(poisoned, symptoms):
            expected = fresh.diagnose(symptom)
            assert diagnosis == expected
            assert diagnosis.footprint == expected.footprint
