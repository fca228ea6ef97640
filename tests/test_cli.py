"""Tests of the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in (
            "table1", "table2", "fig3", "table3", "table4", "fig4",
            "temperature", "table5", "threshold", "ablations", "all",
        ):
            args = parser.parse_args([command])
            assert args.command == command

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tableX"])

    def test_flags(self):
        args = build_parser().parse_args(["fig4", "--method", "case2"])
        assert args.method == "case2"
        args = build_parser().parse_args(["table1", "--raw"])
        assert args.raw is True

    def test_pipeline_flags(self):
        args = build_parser().parse_args(
            ["all", "--jobs", "4", "--cache-dir", "/tmp/c", "--timings",
             "--tasks", "table5_bits,fig3_uniqueness"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.timings is True
        assert args.tasks == "table5_bits,fig3_uniqueness"

    def test_hardening_flags(self):
        args = build_parser().parse_args(
            ["all", "--retries", "3", "--backoff", "0.5",
             "--task-timeout", "30", "--resume", "run.jsonl",
             "--chaos", "7"]
        )
        assert args.retries == 3
        assert args.backoff == 0.5
        assert args.task_timeout == 30.0
        assert args.resume == "run.jsonl"
        assert args.chaos == 7

    def test_pipeline_flag_defaults(self):
        args = build_parser().parse_args(["all"])
        assert args.jobs == 1
        assert args.cache_dir is None
        assert args.timings is False
        assert args.tasks is None
        assert args.trace is None
        # hardening defaults reproduce the historical retry-once behaviour
        assert args.retries == 2
        assert args.backoff == 0.0
        assert args.task_timeout is None
        assert args.resume is None
        assert args.chaos is None

    def test_trace_and_bench_verbs_parse(self):
        args = build_parser().parse_args(["trace", "summarize", "t.jsonl"])
        assert args.command == "trace"
        assert args.trace_command == "summarize"
        assert args.trace_file == "t.jsonl"
        assert args.top == 10
        assert args.json is False
        args = build_parser().parse_args(
            ["trace", "summarize", "t.jsonl", "--json"]
        )
        assert args.json is True
        args = build_parser().parse_args(
            ["bench", "compare", "a.json", "b.json",
             "--threshold", "0.5", "--metric", "speedup"]
        )
        assert args.command == "bench"
        assert (args.old, args.new) == ("a.json", "b.json")
        assert args.threshold == 0.5
        assert args.metric == "speedup"

    def test_tool_verbs_require_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["table5", "--jobs", "2"],
            ["all", "--raw"],
            ["all", "--method", "case2"],
            ["table3", "--raw"],
            ["serve", "--backend", "numpy"],
            ["fleet", "--backend", "numpy"],
        ],
    )
    def test_flags_only_on_verbs_that_read_them(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_jobs_requires_integer(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["all", "--jobs", "many"])

    def test_all_help_text_snapshot(self, capsys):
        # Snapshot of the option surface of `ropuf all --help`: every flag
        # with its metavar, independent of argparse's line wrapping.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["all", "--help"])
        help_text = capsys.readouterr().out
        options = sorted(
            {
                word.rstrip(",]")
                for word in help_text.replace("[", " ").split()
                if word.startswith("--")
            }
        )
        assert options == [
            "--backoff",
            "--cache-dir",
            "--chaos",
            "--data",
            "--help",
            "--jobs",
            "--output",
            "--profile",
            "--resume",
            "--retries",
            "--task-timeout",
            "--tasks",
            "--timings",
            "--trace",
        ]
        for phrase in (
            "parallel worker processes",
            "on-disk result cache",
            "timing/cache metrics",
            "task subset",
            "span trace",
            "attempts per task",
            "backoff",
            "wall-clock timeout",
            "checkpoint journal",
            "chaos",
        ):
            assert phrase in help_text, phrase


class TestMain:
    def test_table5_prints_paper_values(self, capsys):
        assert main(["table5"]) == 0
        output = capsys.readouterr().out
        assert "80" in output and "1-out-of-8" in output
        assert "matches paper exactly: yes" in output

    def test_threshold_runs(self, capsys):
        assert main(["threshold"]) == 0
        output = capsys.readouterr().out
        assert "R_th" in output

    def test_data_flag_loads_measurement_files(self, capsys, tmp_path):
        from repro.datasets.export import export_vt_directory
        from repro.datasets.vtlike import VTLikeConfig, generate_vt_like

        # table3 uses n = 15 rings, so boards need the full 512 ROs.
        dataset = generate_vt_like(
            VTLikeConfig(
                nominal_boards=2,
                swept_boards=0,
                seed=7,
            )
        )
        export_vt_directory(dataset, tmp_path)
        assert main(["table3", "--data", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "HD distribution" in output

    def test_data_flag_missing_directory_fails_loudly(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["table3", "--data", str(tmp_path / "nope")])

    @pytest.mark.parametrize("holds, code", [(True, 0), (False, 1)])
    def test_report_exit_code_follows_claims(
        self, capsys, monkeypatch, tmp_path, holds, code
    ):
        from repro.analysis import report

        def fake_build_report():
            return report.ReproductionReport(
                claims=[report.ClaimCheck("a paper claim", holds, "measured")]
            )

        monkeypatch.setattr(report, "build_report", fake_build_report)
        output = tmp_path / "report.md"
        assert main(["report", "--output", str(output)]) == code
        text = capsys.readouterr().out
        assert output.is_file()
        if holds:
            assert "ALL CLAIMS HOLD" in text
        else:
            assert "SOME CLAIMS FAIL" in text
            assert "failing: a paper claim" in text


class TestMainAll:
    """The `all` command drives the pipeline and emits summary JSON.

    Tests stick to dataset-free tasks (table5_bits, sec4e_threshold) so no
    full synthetic dataset is generated.
    """

    def test_serial_path_prints_summary_json(self, capsys):
        assert main(["all", "--tasks", "table5_bits", "--jobs", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["dataset"] is None
        assert summary["table5_bits"]["n=3"]["configurable"] == 80
        assert "_pipeline" not in summary

    def test_parallel_path_matches_serial(self, capsys):
        assert main(["all", "--tasks", "table5_bits", "--jobs", "1"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["all", "--tasks", "table5_bits", "--jobs", "2"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial == parallel

    def test_timings_and_cache_flags(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["all", "--tasks", "table5_bits", "--cache-dir", cache_dir,
                "--timings"]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["_pipeline"]["cache_hits"] == 0
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["_pipeline"]["cache_hits"] == 1
        assert warm["table5_bits"] == cold["table5_bits"]

    def test_output_flag_writes_file(self, capsys, tmp_path):
        out = tmp_path / "summary.json"
        assert main(
            ["all", "--tasks", "table5_bits", "--output", str(out)]
        ) == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == printed

    def test_unknown_task_fails_loudly(self):
        with pytest.raises(KeyError, match="unknown pipeline task"):
            main(["all", "--tasks", "not_a_task"])

    def test_trace_flag_writes_jsonl_and_summarize_reads_it(
        self, capsys, tmp_path
    ):
        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["all", "--tasks", "table5_bits", "--trace", str(trace_path)]
        ) == 0
        capsys.readouterr()  # drop the summary JSON
        assert trace_path.is_file()
        assert main(["trace", "summarize", str(trace_path)]) == 0
        report = capsys.readouterr().out
        assert "top spans by self-time" in report
        assert "task:table5_bits" in report

    def test_trace_flag_leaves_tracing_disabled_after_run(self, capsys):
        from repro import obs

        assert main(["all", "--tasks", "table5_bits"]) == 0
        capsys.readouterr()
        assert not obs.tracing_enabled()
        assert not obs.metrics_enabled()

    def test_trace_summarize_json_flag(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(
            ["all", "--tasks", "table5_bits", "--trace", str(trace_path)]
        ) == 0
        capsys.readouterr()  # drop the summary JSON
        assert main(["trace", "summarize", str(trace_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["span_count"] > 0
        assert "task:table5_bits" in summary["by_name"]

    def test_profile_flag_writes_collapsed_stacks(self, capsys, tmp_path):
        profile = tmp_path / "run.collapsed"
        assert main(
            ["all", "--tasks", "table5_bits", "--profile", str(profile)]
        ) == 0
        capsys.readouterr()
        assert profile.is_file()


class TestTopCLI:
    """`ropuf top`: parser surface, rendering, and live polling."""

    def test_top_parser_defaults(self):
        args = build_parser().parse_args(["top", "--port", "9"])
        assert args.command == "top"
        assert args.host == "127.0.0.1"
        assert args.port == 9
        assert args.interval == 2.0
        assert args.once is False
        assert args.timeout == 5.0

    def test_top_requires_port(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["top"])

    def test_render_top_dashboard(self):
        from repro.cli import _render_top

        doc = {
            "uptime_seconds": 12.5,
            "counters": {
                "serve.requests.attest": 120.0,
                "serve.errors": 1.0,
                "serve.coalesce.batches": 40.0,
                "backend.numpy.calls": 40.0,
            },
            "gauges": {},
            "histograms": {
                "serve.latency_ms.attest": {
                    "count": 120, "total": 180.0, "min": 0.5, "max": 5.0,
                    "mean": 1.5, "p50": 1.25, "p90": 2.0, "p99": 4.5,
                },
                "serve.coalesce.batch_size": {
                    "count": 40, "total": 120.0, "min": 1.0, "max": 8.0,
                    "mean": 3.0, "p50": 3.0, "p90": 6.0, "p99": 8.0,
                },
            },
            "rates": {
                "1s": {"serve.requests.attest": 10.0},
                "10s": {"serve.requests.attest": 12.0},
                "60s": {},
            },
        }
        text = _render_top(doc)
        assert "uptime 12.5s" in text
        assert "1s=10.0" in text and "10s=12.0" in text and "60s=0.0" in text
        assert "errors: 1 (0.00/s)" in text
        assert "attest" in text
        assert "1.25" in text and "4.50" in text  # p50 / p99 columns
        assert "batch size mean=3.0 max=8" in text
        assert "backend.numpy.calls 40" in text

    def test_top_once_against_live_server(self, capsys):
        from repro import obs
        from repro.serve import (
            AuthClient,
            AuthServer,
            AuthService,
            CRPStore,
            DeviceFarm,
            FleetConfig,
        )

        obs.reset_metrics()
        obs.enable_metrics()
        try:
            farm = DeviceFarm.from_config(FleetConfig(boards=1))
            service = AuthService(farm, CRPStore(None))
            service.enroll_fleet()
            with AuthServer(service).start() as server:
                host, port = server.address
                device = farm.device_ids[0]
                corner = next(iter(farm)).corners[0]
                with AuthClient(host, port) as client:
                    client.attest(device, corner)
                code = main(
                    ["top", "--once", "--host", host, "--port", str(port),
                     "--interval", "0.2"]
                )
            output = capsys.readouterr().out
            assert code == 0
            assert "ropuf top" in output
            assert "attest" in output
        finally:
            obs.disable_metrics()
            obs.reset_metrics()

    def test_top_unreachable_server_exits_nonzero(self, capsys):
        code = main(
            ["top", "--once", "--port", "1", "--timeout", "0.5"]
        )
        assert code == 1
        assert "ropuf top:" in capsys.readouterr().out
