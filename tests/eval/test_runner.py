"""End-to-end tests for the scenario runner and registry (small runs)."""

import json

import pytest

from repro.eval import (
    FailureInjection,
    Scenario,
    ScenarioRunner,
    ScenarioThresholds,
    Scorer,
    all_scenarios,
    gating_scenarios,
    get_scenario,
    run_matrix,
    scenario_names,
)
from repro.eval.runner import JOB_CHUNK

TINY_TOPOLOGY = (("n_pops", 3), ("pers_per_pop", 2), ("customers_per_per", 3))


def _tiny(name="tiny_bgp", **overrides):
    base = dict(
        name=name,
        description="small bgp run for tests",
        app="bgp_flaps",
        seed=4242,
        size=20,
        topology=TINY_TOPOLOGY,
        thresholds=ScenarioThresholds(accuracy=0.5),
    )
    base.update(overrides)
    return Scenario(**base)


class TestRegistry:
    def test_names_match_scenarios(self):
        assert scenario_names() == [s.name for s in all_scenarios()]

    def test_gating_scenarios_are_the_paper_apps(self):
        gated = {s.name for s in gating_scenarios()}
        assert gated == {"bgp_month_core", "cdn_month_core",
                         "pim_fortnight_core"}

    def test_every_gated_scenario_has_thresholds(self):
        for scenario in gating_scenarios():
            assert scenario.thresholds.accuracy > 0.0
            assert scenario.thresholds.composite > 0.0

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="registered:"):
            get_scenario("nope")

    def test_no_two_scenarios_replay_the_same_run(self):
        seen = {}
        for scenario in all_scenarios():
            key = (scenario.app, scenario.seed, scenario.mode,
                   scenario.injections)
            assert key not in seen, (
                f"{scenario.name} duplicates {seen.get(key)}"
            )
            seen[key] = scenario.name


class TestEngineRun:
    def test_engine_run_diagnoses_every_symptom(self):
        outcome = ScenarioRunner().run(_tiny())
        assert outcome.n_symptoms > 0
        assert len(outcome.diagnoses) == outcome.n_symptoms
        # one sample per JOB_CHUNK group, as in the service and http modes
        assert len(outcome.latencies) == -(-outcome.n_symptoms // JOB_CHUNK)
        assert outcome.ground_truth
        assert outcome.feed_faults == []

    def test_same_seed_scores_are_byte_identical(self):
        runner, scorer = ScenarioRunner(), Scorer()
        docs = [
            json.dumps(scorer.score(runner.run(_tiny())).scores_dict(),
                       sort_keys=True)
            for _ in range(2)
        ]
        assert docs[0] == docs[1]

    def test_different_seed_changes_the_run(self):
        a = ScenarioRunner().run(_tiny())
        b = ScenarioRunner().run(_tiny(name="tiny_bgp_reseeded", seed=999))
        assert [t.time for t in a.ground_truth] != [
            t.time for t in b.ground_truth
        ]

    def test_unknown_app_is_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario app"):
            ScenarioRunner().simulate(_tiny(app="dns"))


class TestFeedFaultInjection:
    def test_outage_is_recorded_on_the_registry(self):
        day = 86400.0
        scenario = _tiny(
            name="tiny_bgp_outage",
            injections=(
                FailureInjection.make("feed_outage", "snmp",
                                      at_s=2 * day, duration_s=day),
            ),
        )
        outcome = ScenarioRunner().run(scenario)
        assert len(outcome.feed_faults) == 1
        fault = outcome.feed_faults[0]
        assert fault.source == "snmp"
        assert fault.end - fault.start == pytest.approx(day)

    def test_feed_faults_rejected_for_unsupported_workload(self):
        scenario = _tiny(
            name="tiny_pim_outage", app="pim", topology=(),
            injections=(FailureInjection.make("feed_outage", "snmp"),),
        )
        with pytest.raises(ValueError, match="does not support feed-fault"):
            ScenarioRunner().simulate(scenario)


class TestServiceModes:
    def test_service_mode_matches_engine_mode(self):
        engine = ScenarioRunner().run(_tiny())
        service = ScenarioRunner().run(
            _tiny(name="tiny_bgp_service", mode="service", workers=2)
        )
        assert sorted(d.primary_cause for d in service.diagnoses) == sorted(
            d.primary_cause for d in engine.diagnoses
        )
        assert service.service_metrics is not None

    def test_chaos_rules_fire_and_jobs_still_complete(self):
        scenario = _tiny(
            name="tiny_bgp_chaos", mode="service", workers=2,
            injections=(
                FailureInjection.make("worker_crash", "*", times=1),
                FailureInjection.make("worker_fail", "*", times=1),
            ),
        )
        outcome = ScenarioRunner().run(scenario)
        assert len(outcome.diagnoses) == outcome.n_symptoms
        assert outcome.chaos_fired.get("crash") == 1
        assert outcome.chaos_fired.get("fail") == 1

    @pytest.mark.slow
    def test_http_mode_round_trips_diagnoses(self):
        outcome = ScenarioRunner().run(
            _tiny(name="tiny_bgp_http", mode="http", workers=2, shards=2)
        )
        assert len(outcome.diagnoses) == outcome.n_symptoms
        engine = ScenarioRunner().run(_tiny())
        assert sorted(d.primary_cause for d in outcome.diagnoses) == sorted(
            d.primary_cause for d in engine.diagnoses
        )


class TestRunMatrix:
    def test_injected_scenarios_bypass_registry(self):
        lines = []
        results = run_matrix(scenarios=[_tiny()], progress=lines.append)
        assert len(results) == 1
        assert results[0].scenario == "tiny_bgp"
        assert lines and "tiny_bgp" in lines[0]

    def test_names_select_registered_scenarios(self):
        with pytest.raises(KeyError):
            run_matrix(names=["missing_scenario"])
