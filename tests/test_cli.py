"""CLI entry points (run via main() with argv injection)."""

import pytest

from repro.cli import EXIT_HEADLINE_UNDEFINED, main


class TestList:
    def test_list_shows_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("table1", "table2", "table3",
                              "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"):
            assert experiment_id in out


class TestListEvents:
    def test_list_events_shows_catalogue(self, capsys):
        assert main(["list-events"]) == 0
        out = capsys.readouterr().out
        assert "LLC_MISSES" in out
        assert "INST_RETIRED" in out
        assert "fixed0" in out          # pinned events show their slot
        assert "architectural" in out
        assert "microarchitectural" in out

    def test_list_events_kind_filter(self, capsys):
        assert main(["list-events", "--kind", "arch"]) == 0
        out = capsys.readouterr().out
        assert "INST_RETIRED" in out
        assert "microarchitectural" not in out


class TestMonitor:
    def test_monitor_matmul_kleb(self, capsys):
        code = main(["monitor", "--workload", "matmul", "--tool", "k-leb",
                     "--period-ms", "10", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "k-leb" in out
        assert "INST_RETIRED" in out
        assert "samples" in out

    def test_monitor_rejects_unknown_tool(self):
        with pytest.raises(SystemExit):
            main(["monitor", "--tool", "vtune"])

    def test_monitor_custom_events(self, capsys):
        code = main(["monitor", "--workload", "secret-printer",
                     "--tool", "k-leb", "--period-ms", "0.1",
                     "--events", "LLC_MISSES,LLC_REFERENCES"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LLC_MISSES" in out

    def test_monitor_unknown_event_suggests_and_lists(self, capsys):
        code = main(["monitor", "--workload", "secret-printer",
                     "--tool", "k-leb", "--period-ms", "0.1",
                     "--events", "LLC_MISES"])
        assert code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "LLC_MISSES" in err
        # The full catalogue follows the error so the user can pick.
        assert "INST_RETIRED" in err

    def test_monitor_multiplex_rotates_extra_events(self, capsys):
        code = main(["monitor", "--workload", "matmul", "--tool", "k-leb",
                     "--period-ms", "0.1", "--multiplex", "1", "--seed", "1",
                     "--events",
                     "LOADS,STORES,BRANCHES,BRANCH_MISSES,"
                     "LLC_REFERENCES,LLC_MISSES"])
        assert code == 0
        out = capsys.readouterr().out
        assert "LLC_MISSES" in out

    def test_monitor_multiplex_requires_kleb(self, capsys):
        code = main(["monitor", "--workload", "matmul", "--tool", "perf-stat",
                     "--multiplex", "1"])
        assert code == 2
        assert "--multiplex is only supported by the k-leb tool" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-1", "-0.5"])
    def test_monitor_multiplex_rejects_non_positive(self, capsys, value):
        code = main(["monitor", "--workload", "matmul", "--tool", "k-leb",
                     "--multiplex", value])
        assert code == 2
        err = capsys.readouterr().err
        assert "--multiplex must be a positive rotation period" in err

    def test_monitor_too_many_events_without_multiplex_errors(self):
        with pytest.raises(SystemExit, match="multiplex"):
            main(["monitor", "--workload", "secret-printer",
                  "--tool", "k-leb", "--period-ms", "0.1",
                  "--events",
                  "LOADS,STORES,BRANCHES,BRANCH_MISSES,LLC_MISSES"])


class TestMonitorAdaptive:
    def test_adapt_runs_and_summarizes_control(self, capsys):
        code = main(["monitor", "--workload", "dgemm", "--tool", "k-leb",
                     "--period-ms", "1", "--adapt"])
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive control:" in out
        assert "budget 2%" in out

    def test_adapt_requires_kleb(self, capsys):
        code = main(["monitor", "--workload", "matmul",
                     "--tool", "perf-stat", "--adapt"])
        assert code == 2
        assert "--adapt is only supported by the k-leb tool" \
            in capsys.readouterr().err

    def test_overhead_budget_requires_adapt(self, capsys):
        code = main(["monitor", "--workload", "matmul", "--tool", "k-leb",
                     "--overhead-budget", "5"])
        assert code == 2
        assert "--overhead-budget requires --adapt" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "100.5"])
    def test_overhead_budget_range_checked(self, capsys, value):
        code = main(["monitor", "--workload", "matmul", "--tool", "k-leb",
                     "--adapt", "--overhead-budget", value])
        assert code == 2
        assert "--overhead-budget must be in (0, 100]" \
            in capsys.readouterr().err

    def test_adapt_with_custom_budget(self, capsys):
        code = main(["monitor", "--workload", "dgemm", "--tool", "k-leb",
                     "--period-ms", "1", "--adapt",
                     "--overhead-budget", "1.5"])
        assert code == 0
        assert "budget 1.5%" in capsys.readouterr().out


class TestMonitorSmp:
    def test_monitor_smp_runs_and_reports_per_core(self, capsys):
        code = main(["monitor", "--workload", "dgemm", "--tool", "k-leb",
                     "--period-ms", "1", "--cores", "2", "--migrate"])
        assert code == 0
        out = capsys.readouterr().out
        assert "topology : 2 core(s), 1 socket(s), migration on" in out
        assert "per-core victim totals" in out
        assert "cpu0" in out and "cpu1" in out
        assert "uncore[0]:" in out
        assert "migrations:" in out

    @pytest.mark.parametrize("argv,fragment", [
        (["--cores", "0"], "--cores must be >= 1"),
        (["--cores", "-2"], "--cores must be >= 1"),
        (["--cores", "2", "--sockets", "0"], "--sockets must be >= 1"),
        (["--cores", "4", "--sockets", "3"], "divide evenly"),
        (["--migrate"], "--migrate requires --cores"),
        (["--sockets", "2"], "--sockets requires --cores"),
        (["--cores", "1", "--migrate"], "--migrate needs --cores >= 2"),
        (["--cores", "2", "--adapt"], "not supported on an SMP session"),
        (["--cores", "2", "--multiplex", "1.0"],
         "not supported on an SMP session"),
        (["--cores", "2", "--tool", "perf-stat"],
         "only supported by the k-leb tool"),
    ])
    def test_monitor_smp_validation_exits_2(self, capsys, argv, fragment):
        code = main(["monitor", "--workload", "dgemm"] + argv)
        assert code == 2
        assert fragment in capsys.readouterr().err


class TestRun:
    def test_run_fig9(self, capsys):
        assert main(["run", "fig9", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "worst deviation" in out

    def test_run_table1_with_overrides(self, capsys):
        assert main(["run", "table1", "--runs", "2"]) == 0
        out = capsys.readouterr().out
        assert "GFlops" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "table99"])

    def test_run_multiplex(self, capsys):
        assert main(["run", "multiplex", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "rotation" in out
        assert "time_enabled/time_running" in out

    def test_run_adaptive(self, capsys):
        assert main(["run", "adaptive", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "adaptive controller:" in out
        assert "adaptive dominates" in out


class TestUndefinedHeadline:
    """A run that completes with a headline number undefined (every
    trial of a population quarantined) exits non-zero, after the report,
    the fault ledger and the artifacts are written."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("experiment, headline", [
        ("table1", "K-LEB performance loss"),
        ("table2", "K-LEB vs next-best tool"),
        ("fig6", "clean MPKI, attack MPKI"),
        ("fig8", "tightest monitored spread"),
    ])
    def test_all_quarantined_run(self, capsys, tmp_path, experiment,
                                 headline):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.prom"
        flight = tmp_path / "q.flight.json"
        assert main(["run", experiment, "--runs", "2", "--jobs", "1",
                     "--faults", "seed=3,persistent=1.0",
                     "--trace", str(trace), "--metrics", str(metrics),
                     "--flight", str(flight)]) == EXIT_HEADLINE_UNDEFINED
        captured = capsys.readouterr()
        assert "n=0 (quarantined)" in captured.out
        assert "Fault ledger" in captured.out
        assert "nan" not in captured.out
        assert f"headline undefined: {headline}" in captured.err
        for path in (trace, metrics, flight):
            assert f"written to {path}" in captured.out
            assert path.stat().st_size > 0

    def test_run_all_collects_every_undefined_headline(self, capsys,
                                                       monkeypatch):
        from repro import cli
        from repro.experiments import ExperimentEntry

        def entry(experiment_id, undefined):
            return ExperimentEntry(
                experiment_id, "stub", run=lambda **kwargs: experiment_id,
                render=lambda result: f"rendered {result}",
                undefined_headlines=lambda result: list(undefined))

        stubs = {"a": entry("a", []), "b": entry("b", ["x", "y"]),
                 "c": entry("c", [])}
        monkeypatch.setattr(cli, "EXPERIMENTS", stubs)
        monkeypatch.setattr(cli, "_QUICK_KWARGS",
                            {name: {} for name in stubs})
        assert main(["run-all", "--quick"]) == EXIT_HEADLINE_UNDEFINED
        captured = capsys.readouterr()
        assert all(f"rendered {name}" in captured.out for name in stubs)
        assert "headline undefined: b: x, b: y" in captured.err

        stubs["b"] = entry("b", [])
        assert main(["run-all", "--quick"]) == 0
        assert "headline undefined" not in capsys.readouterr().err


class TestLivePlane:
    def test_live_serves_and_report_is_clean(self, capsys, monkeypatch,
                                             tmp_path):
        """--live 0 binds an ephemeral port, announces the URL, serves
        all three endpoints during the run, and the report output
        (minus the announcement) matches a live-off run."""
        self._check_live_round_trip(capsys, monkeypatch, [])

    def test_live_serves_and_report_is_clean_jobs2(self, capsys,
                                                   monkeypatch):
        """The same through a two-worker pool, whatever the host's
        core count."""
        self._check_live_round_trip(capsys, monkeypatch, ["--jobs", "2"])

    @staticmethod
    def _check_live_round_trip(capsys, monkeypatch, extra_args):
        import json
        import urllib.request

        from repro.obs.live import server as live_server

        scraped = {}
        original_start = live_server.LiveServer.start

        def start_and_scrape(self):
            port = original_start(self)
            for endpoint in ("/metrics", "/healthz", "/runs"):
                with urllib.request.urlopen(self.url + endpoint,
                                            timeout=5.0) as response:
                    scraped[endpoint] = response.read().decode("utf-8")
            return port

        monkeypatch.setattr(live_server.LiveServer, "start",
                            start_and_scrape)
        assert main(["run", "table1", "--runs", "2", "--live", "0"]
                    + extra_args) == 0
        live_out = capsys.readouterr().out
        assert live_out.startswith("live telemetry at http://127.0.0.1:")
        assert "# TYPE live_snapshots_total counter" in scraped["/metrics"]
        assert "# TYPE hrtimer_fires_total counter" in scraped["/metrics"]
        assert json.loads(scraped["/healthz"])["status"] == "ok"
        assert "run" in json.loads(scraped["/runs"])

        assert main(["run", "table1", "--runs", "2"] + extra_args) == 0
        plain_out = capsys.readouterr().out
        assert live_out.split("\n", 1)[1] == plain_out

    def test_flight_dump_written_on_run_end(self, capsys, tmp_path):
        import json

        flight_path = tmp_path / "run.flight.json"
        assert main(["run", "table1", "--runs", "2", "--flight",
                     str(flight_path)]) == 0
        assert f"flight ring written to {flight_path}" \
            in capsys.readouterr().out
        document = json.loads(flight_path.read_text())
        assert document["format"] == "repro-flight-v1"
        assert document["reason"] == "run-complete"
        assert document["events_recorded"] > 0

    def test_flight_dump_jobs2_equals_jobs1(self, capsys, tmp_path):
        """Pool workers ship each trial's ring tail home, folded in
        trial order: the two-worker dump equals the serial one, with
        enough trials that the controller ring wraps."""
        import json

        documents = []
        for jobs in ("1", "2"):
            flight_path = tmp_path / f"jobs{jobs}.flight.json"
            assert main(["run", "table1", "--runs", "6", "--jobs", jobs,
                         "--flight", str(flight_path)]) == 0
            document = json.loads(flight_path.read_text())
            document.pop("wall_time_s")
            documents.append(document)
        capsys.readouterr()
        serial, pooled = documents
        assert serial["events_recorded"] > serial["events_retained"] > 0
        assert pooled == serial

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_flight_dump_on_quarantine(self, capsys, tmp_path):
        """A quarantined trial triggers a mid-run flight dump (later
        overwritten by the run-end dump only if the run finishes; the
        quarantine reason must have been written at some point).  This
        plan quarantines all 12 trials, so K-LEB's loss is undefined
        and the run exits non-zero after the run-end dump."""
        import json

        from repro.obs.live import flight as flight_module

        reasons = []
        original_write = flight_module.FlightRecorder.write

        def spy_write(self, path, reason, extra=None):
            reasons.append(reason)
            return original_write(self, path, reason, extra)

        flight_path = tmp_path / "q.flight.json"
        try:
            flight_module.FlightRecorder.write = spy_write
            assert main(["run", "table1", "--runs", "3", "--jobs", "1",
                         "--faults", "seed=11,persistent=0.9",
                         "--flight", str(flight_path)]) \
                == EXIT_HEADLINE_UNDEFINED
        finally:
            flight_module.FlightRecorder.write = original_write
        assert any(reason.startswith("quarantine:trial-")
                   for reason in reasons), reasons
        assert reasons[-1] == "run-complete"
        assert json.loads(flight_path.read_text())["reason"] \
            == "run-complete"

    def test_trace_and_metrics_still_work_with_live(self, capsys,
                                                    tmp_path):
        trace = tmp_path / "t.json.gz"
        metrics = tmp_path / "m.prom.gz"
        assert main(["run", "table1", "--runs", "2", "--live", "0",
                     "--trace", str(trace), "--metrics",
                     str(metrics)]) == 0
        from repro.io import load_metrics, load_trace_events

        assert load_trace_events(trace)
        assert "trials_total" in load_metrics(metrics)

    def test_adaptive_monitor_identical_with_live(self, capsys):
        args = ["monitor", "--workload", "matmul", "--tool", "k-leb",
                "--period-ms", "10", "--adapt", "--seed", "5"]
        assert main(args + ["--live", "0"]) == 0
        live_out = capsys.readouterr().out
        assert main(args) == 0
        plain_out = capsys.readouterr().out
        assert live_out.split("\n", 1)[1] == plain_out
