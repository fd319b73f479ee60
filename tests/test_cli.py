"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestDiagnose:
    def test_bgp_breakdown_printed(self, capsys):
        code = main(["diagnose", "bgp-month", "--size", "40", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Root Cause" in out
        assert "Interface flap" in out
        assert "explained:" in out

    def test_trend_flag(self, capsys):
        code = main(
            ["diagnose", "pim-fortnight", "--size", "30", "--seed", "2", "--trend"]
        )
        assert code == 0
        assert "per-day trend" in capsys.readouterr().out

    def test_unknown_scenario_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["diagnose", "no-such-scenario"])

    @pytest.mark.slow
    def test_backend_swap_is_config_only(self, tmp_path, capsys):
        base = ["diagnose", "bgp-month", "--size", "20", "--seed", "2"]
        assert main(base + ["--feed-stats"]) == 0
        memory_out = capsys.readouterr().out
        assert "stats storage backend=memory" in memory_out
        assert main(
            base
            + ["--feed-stats", "--backend", "sqlite",
               "--store-path", str(tmp_path / "db")]
        ) == 0
        sqlite_out = capsys.readouterr().out
        assert "stats storage backend=sqlite" in sqlite_out
        # identical diagnoses either way: the swap changes storage only
        strip = lambda text: [
            line for line in text.splitlines()
            if not line.startswith("stats storage")
        ]
        assert strip(sqlite_out) == strip(memory_out)
        assert (tmp_path / "db" / "syslog.sqlite").exists()


class TestCatalog:
    def test_events(self, capsys):
        assert main(["catalog", "events"]) == 0
        out = capsys.readouterr().out
        assert "Link congestion alarm" in out
        assert "event definitions" in out

    def test_rules(self, capsys):
        assert main(["catalog", "rules"]) == 0
        out = capsys.readouterr().out
        assert "SONET restoration" in out
        assert "rule templates" in out


class TestSpecCheck:
    def test_valid_spec(self, tmp_path, capsys):
        spec = tmp_path / "app.grca"
        spec.write_text(
            'application "x"\n'
            'symptom "eBGP flap"\n'
            'rule "eBGP flap" -> "Interface flap" priority 160 {\n'
            "    symptom expand start/start 200 10\n"
            "    diagnostic expand start/end 10 10\n"
            "    join router:neighbor-ip interface at interface\n"
            "}\n"
        )
        assert main(["spec", "check", str(spec)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_spec(self, tmp_path, capsys):
        spec = tmp_path / "bad.grca"
        spec.write_text('symptom "No such event"\n')
        assert main(["spec", "check", str(spec)]) == 1
        assert "unknown symptom" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["spec", "check", "/nonexistent/path.grca"]) == 2
        assert "error" in capsys.readouterr().err


class TestSimulate:
    def test_dump_feeds(self, tmp_path, capsys):
        code = main(
            ["simulate", "bgp-month", "--size", "20", "--seed", "2",
             "--out", str(tmp_path / "feeds")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ground-truth symptoms" in out
        dumped = sorted(p.name for p in (tmp_path / "feeds").iterdir())
        assert "syslog.tsv" in dumped
        assert "snmp.tsv" in dumped
        syslog = (tmp_path / "feeds" / "syslog.tsv").read_text()
        assert "router=" in syslog


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestStorePathReuse:
    """A ``--store-path`` that already holds a store is refused: ingesting
    the scenario again into its tables would double every record."""

    def test_second_run_into_one_store_path_is_refused(self, tmp_path, capsys):
        argv = ["diagnose", "bgp-month", "--size", "10", "--seed", "2",
                "--backend", "sqlite", "--store-path", str(tmp_path / "db")]
        assert main(argv) == 0
        capsys.readouterr()
        before = _snapshot(tmp_path / "db")
        assert "syslog.sqlite" in before
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: --store-path")
        assert _snapshot(tmp_path / "db") == before

    @pytest.mark.parametrize("command", [
        ["simulate", "cdn-month", "--out", "OUT"],
        ["serve", "pim-fortnight"],
        ["api", "backbone-month", "--port", "0"],
        ["incidents", "list", "bgp-storm"],
    ], ids=lambda argv: argv[0])
    def test_every_scenario_command_refuses_before_simulating(
        self, command, tmp_path, capsys, monkeypatch
    ):
        from repro.simulation import Workload

        def no_simulation(*_args, **_kwargs):
            raise AssertionError("simulated into a used store path")

        monkeypatch.setattr(Workload, "build", no_simulation)
        store = tmp_path / "db"
        store.mkdir()
        (store / "syslog.sqlite").write_bytes(b"a store")
        argv = [str(tmp_path / a) if a == "OUT" else a for a in command]
        assert main(argv + ["--backend", "sqlite",
                            "--store-path", str(store)]) == 2
        assert "already holds a store" in capsys.readouterr().err
        assert _snapshot(store) == {"syslog.sqlite": b"a store"}
        assert not (tmp_path / "OUT").exists()

    @pytest.mark.parametrize("backend", [[], ["--backend", "memory"]],
                             ids=["default", "memory"])
    def test_memory_run_ignores_a_used_store_path(
        self, backend, tmp_path, capsys
    ):
        store = tmp_path / "db"
        store.mkdir()
        (store / "syslog.sqlite").write_bytes(b"a store")
        assert main(["diagnose", "bgp-month", "--size", "10", "--seed", "2",
                     *backend, "--store-path", str(store)]) == 0
        assert "already holds a store" not in capsys.readouterr().err
        assert _snapshot(store) == {"syslog.sqlite": b"a store"}


class TestParallelJobs:
    def test_jobs_flag_matches_serial_output(self, capsys):
        serial_args = ["diagnose", "bgp-month", "--size", "30", "--seed", "3"]
        assert main(serial_args) == 0
        serial_out = capsys.readouterr().out
        assert main(serial_args + ["--jobs", "3"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out  # byte-identical breakdown


class TestServe:
    def test_serve_runs_and_prints_metrics(self, capsys):
        code = main(
            ["serve", "bgp-month", "--size", "30", "--seed", "2",
             "--workers", "2", "--rounds", "3", "--repeat"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "symptoms diagnosed by 2 workers over 3 scheduled rounds" in out
        assert "Root Cause" in out
        assert "explained:" in out
        assert "repeat of the full window served from the result cache" in out
        assert "service metrics:" in out
        assert "cache:" in out
        assert "worker utilization" in out


class TestMine:
    @pytest.mark.slow
    def test_mine_runs(self, capsys):
        code = main(["mine", "--seed", "2", "--days", "10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "candidate series" in out
        assert "provisioning activity" in out


class TestEval:
    def test_list_names_every_registered_scenario(self, capsys):
        from repro.eval import scenario_names

        assert main(["eval", "--list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_unknown_scenario_is_exit_2(self, capsys):
        assert main(["eval", "no-such-scenario"]) == 2
        assert "registered:" in capsys.readouterr().err

    def test_no_arguments_is_exit_2(self, capsys):
        assert main(["eval"]) == 2
        assert "--matrix" in capsys.readouterr().err

    def test_single_scenario_prints_scorecard(self, capsys):
        assert main(["eval", "bgp_month_core"]) == 0
        out = capsys.readouterr().out
        assert "composite" in out
        assert "accuracy" in out
        assert "gate: pass" in out

    def test_matrix_subset_writes_artifact_and_gates(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "BENCH_scenarios.json"
        code = main([
            "eval", "--matrix", "--only", "bgp_month_core",
            "--gate", "--out", str(out_path), "--no-timing",
        ])
        assert code == 0
        document = json.loads(out_path.read_text())
        assert document["schema"] == "grca-scenario-matrix/1"
        assert document["summary"]["count"] == 1
        assert document["summary"]["gate_failures"] == []
        assert "timing" not in document["scenarios"][0]
        assert "gate passed" in capsys.readouterr().out

    def test_diff_of_identical_artifacts_is_clean(self, tmp_path, capsys):
        out_path = tmp_path / "m.json"
        assert main(["eval", "--matrix", "--only", "bgp_month_core",
                     "--out", str(out_path), "--no-timing"]) == 0
        capsys.readouterr()
        assert main(["eval", "--diff", str(out_path), str(out_path)]) == 0
        assert "unchanged" in capsys.readouterr().out

    def test_diff_missing_file_is_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["eval", "--diff", missing, missing]) == 2
        assert "error:" in capsys.readouterr().err
