"""Tests for the OSPF simulation: SPF, ECMP, weight history."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.elements import (
    Interface,
    LineCard,
    LogicalLink,
    Pop,
    Router,
    RouterRole,
)
from repro.topology.network import Network
from repro.routing.ospf import (
    COST_OUT_WEIGHT,
    OspfSimulator,
    WeightChange,
    WeightHistory,
    reconvergence_windows,
)


def diamond_network():
    """a -- b -- d and a -- c -- d: two equal-cost paths a->d."""
    network = Network()
    network.add_pop(Pop("x"))
    for name in "abcd":
        router = Router(name=name, role=RouterRole.CORE, pop="x")
        router.line_cards = [LineCard(name, 0)]
        router.interfaces = [Interface(name, f"se0/{i}", 0) for i in range(4)]
        network.add_router(router)
    counters = {name: 0 for name in "abcd"}

    def connect(a, z):
        ia, iz = counters[a], counters[z]
        counters[a] += 1
        counters[z] += 1
        network.add_logical_link(
            LogicalLink(
                name=f"{a}--{z}",
                router_a=a,
                router_z=z,
                interface_a=f"{a}:se0/{ia}",
                interface_z=f"{z}:se0/{iz}",
            )
        )

    connect("a", "b")
    connect("b", "d")
    connect("a", "c")
    connect("c", "d")
    return network


@pytest.fixture
def net():
    return diamond_network()


class TestSpf:
    def test_ecmp_two_paths(self, net):
        sim = OspfSimulator(net)
        result = sim.paths("a", "d", 0.0)
        assert result.cost == 20
        assert sorted(result.router_paths) == [("a", "b", "d"), ("a", "c", "d")]
        assert result.links == {"a--b", "b--d", "a--c", "c--d"}

    def test_self_path(self, net):
        sim = OspfSimulator(net)
        result = sim.paths("a", "a", 0.0)
        assert result.cost == 0
        assert result.router_paths == (("a",),)

    def test_unreachable_destination(self, net):
        net.add_router(Router("z", RouterRole.CORE, "x"))
        sim = OspfSimulator(net)
        result = sim.paths("a", "z", 0.0)
        assert not result.reachable
        assert sim.distance("a", "z", 0.0) is None

    def test_unknown_source_unreachable(self, net):
        sim = OspfSimulator(net)
        assert not sim.paths("ghost", "a", 0.0).reachable

    def test_asymmetric_weight_breaks_ecmp(self, net):
        history = WeightHistory({"a--b": 5})
        sim = OspfSimulator(net, history)
        result = sim.paths("a", "d", 0.0)
        assert result.cost == 15
        assert result.router_paths == (("a", "b", "d"),)

    def test_distance_matches_cost(self, net):
        sim = OspfSimulator(net)
        assert sim.distance("a", "d", 0.0) == 20
        assert sim.distance("a", "b", 0.0) == 10


class TestWeightHistory:
    def test_weight_change_reroutes_traffic(self, net):
        sim = OspfSimulator(net)
        sim.history.record(WeightChange(100.0, "a--b", 100))
        before = sim.paths("a", "d", 50.0)
        after = sim.paths("a", "d", 150.0)
        assert sorted(before.router_paths) == [("a", "b", "d"), ("a", "c", "d")]
        assert after.router_paths == (("a", "c", "d"),)

    def test_cost_out_removes_link(self, net):
        sim = OspfSimulator(net)
        sim.history.record(WeightChange(100.0, "a--b", COST_OUT_WEIGHT))
        sim.history.record(WeightChange(100.0, "a--c", COST_OUT_WEIGHT))
        assert not sim.paths("a", "d", 200.0).reachable
        assert sim.paths("a", "d", 50.0).reachable

    def test_cost_back_in_restores(self, net):
        sim = OspfSimulator(net)
        sim.history.record(WeightChange(100.0, "a--b", COST_OUT_WEIGHT))
        sim.history.record(WeightChange(200.0, "a--b", 10))
        assert sim.paths("a", "d", 300.0).links == {"a--b", "b--d", "a--c", "c--d"}

    def test_version_at_counts_applied_changes(self):
        history = WeightHistory()
        history.record(WeightChange(10.0, "l1", 5))
        history.record(WeightChange(20.0, "l1", 7))
        assert history.version_at(5.0) == 0
        assert history.version_at(10.0) == 1
        assert history.version_at(25.0) == 2

    def test_unsorted_records_are_handled(self):
        history = WeightHistory()
        history.record(WeightChange(20.0, "l1", 7))
        history.record(WeightChange(10.0, "l1", 5))
        assert history.weights_at(15.0)["l1"] == 5
        assert history.weights_at(25.0)["l1"] == 7

    def test_changes_between_bounds_inclusive(self):
        history = WeightHistory()
        for t in (10.0, 20.0, 30.0):
            history.record(WeightChange(t, "l1", int(t)))
        window = history.changes_between(10.0, 20.0)
        assert [c.timestamp for c in window] == [10.0, 20.0]


class TestWeightAt:
    """The per-link index behind ``weight_at`` (one link, one bisect)."""

    CHANGES = st.lists(
        st.tuples(
            st.integers(0, 60).map(float),  # few instants: ties happen
            st.sampled_from(["l1", "l2", "l3"]),
            st.sampled_from([1, 10, COST_OUT_WEIGHT]),
        ),
        max_size=20,
    )

    @settings(max_examples=200, deadline=None)
    @given(changes=CHANGES, later=CHANGES, with_initial=st.booleans())
    def test_equals_the_whole_map_lookup(self, changes, later, with_initial):
        history = WeightHistory({"l1": 7, "l4": 9} if with_initial else None)
        instants = [t / 2.0 for t in range(-2, 124)]

        def check():
            for t in instants[:: max(1, len(instants) // 12)]:
                weights = history.weights_at(t)
                for link in ("l1", "l2", "l3", "l4", "nope"):
                    assert history.weight_at(link, t) == weights.get(link)

        # shuffled (out-of-order) records, read back, then more records:
        # the index must follow in-order appends and re-sorts alike
        history.record_many(WeightChange(*c) for c in changes)
        check()
        for change in later:
            history.record(WeightChange(*change))
        check()

    def test_honours_merged_defaults(self, net):
        history = WeightHistory({"a--b": 5})
        history.record(WeightChange(10.0, "a--c", 3))
        sim = OspfSimulator(net)
        sim.replace_history(history)  # merges the network's default weights
        assert sim.history.weight_at("a--b", 0.0) == 5
        assert sim.history.weight_at("b--d", 0.0) == 10
        assert sim.history.weight_at("a--c", 9.0) == 10
        assert sim.history.weight_at("a--c", 10.0) == 3

    def test_in_order_queries_stay_logarithmic(self):
        # one lookup per record just before its own timestamp — what
        # cost-in/out classification does per OSPFMon row; rebuilding
        # the whole-network map per distinct version took 1.3 s here
        history = WeightHistory({f"l{k}": 10 for k in range(40)})
        n = 8000
        for i in range(n):
            history.record(WeightChange(float(i), f"l{i % 40}", 10 + i % 3))
        began = time.perf_counter()
        for i in range(n):
            history.weight_at(f"l{i % 40}", i - 1e-6)
        assert time.perf_counter() - began < 0.1


class TestCaching:
    def test_cache_reused_within_version(self, net):
        sim = OspfSimulator(net)
        first = sim.paths("a", "d", 1.0)
        second = sim.paths("a", "d", 2.0)
        assert first is second  # same SPF table entry

    def test_cache_invalidated_across_versions(self, net):
        sim = OspfSimulator(net)
        before = sim.paths("a", "d", 1.0)
        sim.history.record(WeightChange(5.0, "a--b", 99))
        after = sim.paths("a", "d", 6.0)
        assert before is not after


class TestReconvergenceWindows:
    def test_bursts_merge_into_one_window(self):
        history = WeightHistory()
        for t in (100.0, 103.0, 106.0, 300.0):
            history.record(WeightChange(t, "l1", 10))
        windows = reconvergence_windows(history, 0.0, 400.0, settle_seconds=10.0)
        assert windows == [(100.0, 106.0), (300.0, 300.0)]

    def test_empty_history(self):
        assert reconvergence_windows(WeightHistory(), 0.0, 100.0) == []
