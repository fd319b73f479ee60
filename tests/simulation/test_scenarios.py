"""Tests for the evaluation scenarios (small-scale runs)."""

import pytest

from repro.simulation import (
    SCENARIOS,
    TABLE4_MIXTURE,
    TABLE6_MIXTURE,
    TABLE8_MIXTURE,
    bgp_month,
    cdn_month,
    cpu_bgp_study,
    linecard_crash,
    pim_fortnight,
)
from repro.topology import TopologyParams

SMALL_BGP = TopologyParams(n_pops=3, pers_per_pop=2, customers_per_per=4, seed=5)


@pytest.fixture(scope="module")
def bgp_result():
    return bgp_month(total_flaps=80, params=SMALL_BGP, seed=5, duration_days=10)


class TestBgpMonth:
    def test_all_mixture_causes_present(self, bgp_result):
        counts = bgp_result.truth_counts()
        for cause, _pct in TABLE4_MIXTURE:
            assert counts.get(cause, 0) >= 1, cause

    def test_dominant_cause_is_interface_flap(self, bgp_result):
        counts = bgp_result.truth_counts()
        assert counts["Interface flap"] == max(counts.values())

    def test_ground_truth_times_in_window(self, bgp_result):
        for truth in bgp_result.ground_truth:
            assert bgp_result.start <= truth.time <= bgp_result.end

    def test_telemetry_parsed_without_rejects(self, bgp_result):
        for parser in bgp_result.collector.parsers.values():
            assert parser.stats.rejected == 0, parser.table_name

    def test_deterministic_given_seed(self):
        a = bgp_month(total_flaps=30, params=SMALL_BGP, seed=7, duration_days=5)
        b = bgp_month(total_flaps=30, params=SMALL_BGP, seed=7, duration_days=5)
        assert a.truth_counts() == b.truth_counts()
        assert a.collector.store.total_records() == b.collector.store.total_records()

    def test_platform_builds(self, bgp_result):
        platform = bgp_result.platform()
        assert platform.paths.bgp is not None
        assert len(platform.services["loopbacks"]) > 0


class TestPimFortnight:
    @pytest.fixture(scope="class")
    def result(self):
        return pim_fortnight(
            total_changes=60,
            params=TopologyParams(n_pops=4, pers_per_pop=2, customers_per_per=3, seed=6),
            seed=6,
            duration_days=10,
        )

    def test_mixture_causes_present(self, result):
        counts = result.truth_counts()
        for cause, pct in TABLE8_MIXTURE:
            if pct >= 1.0:  # tiny categories may legitimately top out at 0
                assert counts.get(cause, 0) >= 1, cause

    def test_symptoms_are_pim_changes(self, result):
        assert all(
            t.symptom == "PIM Neighbor Adjacency Change" for t in result.ground_truth
        )

    def test_customer_flap_dominates(self, result):
        counts = result.truth_counts()
        assert counts["interface (customer facing) flap"] == max(counts.values())


class TestCdnMonth:
    @pytest.fixture(scope="class")
    def result(self):
        return cdn_month(total_degradations=60, duration_days=10, n_clients=12, seed=8)

    def test_outside_network_dominates(self, result):
        counts = result.truth_counts()
        assert counts["Outside of our network (Unknown)"] == max(counts.values())

    def test_all_mixture_causes_present(self, result):
        counts = result.truth_counts()
        for cause, _pct in TABLE6_MIXTURE:
            assert counts.get(cause, 0) >= 1, cause

    def test_rtt_samples_generated_for_all_pairs(self, result):
        perf = result.collector.store.table("perfmon")
        pairs = result.extras["pairs"]
        sources = {r["source"] for r in perf.scan()}
        assert sources == {server for server, _client in pairs}


class TestCpuStudy:
    def test_provisioning_and_noise_present(self):
        result = cpu_bgp_study(
            seed=9, duration_days=10, n_provisioning=40,
            provisioning_flap_probability=0.5, n_other_flaps=100, n_pure_cpu_flaps=5,
        )
        counts = result.truth_counts()
        assert counts.get("Provisioning-induced CPU flap", 0) >= 5
        assert counts["Interface flap"] == 100
        activities = result.collector.store.table("workflow").distinct("activity")
        assert "provisioning.port_turnup" in activities
        assert len(activities) >= 4  # benign noise universe exists


class TestLinecardCrash:
    def test_crash_group_exists(self):
        result = linecard_crash(seed=10, n_background_flaps=10, duration_days=10)
        crash = [t for t in result.ground_truth if t.cause == "Line-card crash"]
        assert len(crash) >= 3
        spread = max(t.time for t in crash) - min(t.time for t in crash)
        assert spread <= 180.0
        assert result.extras["crash_router"] in result.topology.provider_edges


def test_every_scenario_names_an_rca_app():
    from repro.apps import RcaApp

    for name, workload in SCENARIOS.items():
        assert issubclass(workload.app, RcaApp), name
