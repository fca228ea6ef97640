"""Command-line entry points: regenerate every paper table and figure.

Usage (installed as the ``ropuf`` script, or ``python -m repro``)::

    ropuf table1           # NIST battery, Case-1 (Table I)
    ropuf table2           # NIST battery, Case-2 (Table II)
    ropuf fig3             # uniqueness histograms (Fig. 3)
    ropuf table3           # Case-1 configuration HDs (Table III)
    ropuf table4           # Case-2 configuration HDs (Table IV)
    ropuf fig4             # voltage-reliability sweep (Fig. 4)
    ropuf temperature      # temperature-reliability sweep (Sec. IV.D)
    ropuf table5           # bits per board (Table V)
    ropuf threshold        # R_th sweep (Sec. IV.E)
    ropuf ablations        # A1-A3 ablation studies
    ropuf all              # full evaluation as one summary JSON

``ropuf all`` runs the declarative experiment pipeline
(:mod:`repro.pipeline`) and prints the summary JSON.  It accepts
``--jobs N`` (parallel worker processes), ``--cache-dir PATH`` (skip tasks
whose results are already cached for this dataset and repro version),
``--timings`` (embed per-task wall-time/cache metrics), ``--tasks a,b``
(run a subset of the registered tasks), ``--trace PATH`` (write the
merged cross-process span trace as JSONL), and ``--profile PATH``
(sampling-profiler collapsed stacks of the run; see
docs/observability.md for both).

Hardening flags (see docs/robustness.md): ``--retries N`` (total attempt
budget per task), ``--backoff SECONDS`` (exponential backoff base with
deterministic jitter), ``--task-timeout SECONDS`` (per-task wall-clock
deadline; the hung worker is killed and the task re-dispatched),
``--resume PATH`` (crash-safe checkpoint journal: completed tasks are
replayed, fresh ones are durably appended), and ``--chaos SEED``
(deterministically inject a worker crash, a task hang, and a corrupt
cache entry to prove the run survives them).

Three observability verbs round out the tooling::

    ropuf trace summarize trace.jsonl      # top spans, per-process stats
    ropuf bench compare old.json new.json  # regression gate for CI
    ropuf top --port N                     # live dashboard for a server

``trace summarize --json`` emits the summary as machine-readable JSON.
``bench compare`` exits non-zero when any metric regressed past the
threshold (or when the artifacts are incomparable), so CI can gate on it.
``ropuf top`` polls a running server's ``metrics`` verb and renders
requests/s, per-verb latency quantiles, coalescer batch sizes, backend
throughput, and error counts (``--once`` prints a single snapshot).

``ropuf fleet`` runs the out-of-core sharded fleet analytics
(:mod:`repro.pipeline.fleet`, see docs/datasets.md): uniqueness,
uniformity, and reliability over ``--devices`` synthetic devices,
generated and reduced shard by shard so peak memory stays bounded by
``--shard-devices`` regardless of fleet size.  It shares the pipeline
hardening flags (``--jobs``, ``--cache-dir``, ``--resume``,
``--retries``, ``--backoff``, ``--task-timeout``) and exits non-zero if
any shard degraded after retries.

``ropuf serve`` stands up the CRP authentication service
(:mod:`repro.serve`, see docs/serving.md): a synthetic device fleet is
enrolled into a crash-safe store (``--store PATH`` to persist it) and
served over a length-prefixed socket protocol with request coalescing
onto the vectorized batch engines.  ``--bench`` instead runs the built-in
load generator against an ephemeral in-process server (``--clients`` x
``--auths`` authentication rounds) and prints a latency-percentile
summary; the exit code is non-zero if any authentication failed, so CI
can gate on it.  Production telemetry flags: ``--metrics-port`` exposes
a Prometheus/JSON HTTP sidecar, ``--trace PATH`` + ``--slow-ms``
tail-sample span trees of slow requests, and ``--profile PATH`` runs
the sampling profiler for the server's lifetime
(docs/observability.md).
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def _load_dataset(args):
    """The dataset an experiment should run on: real files or synthetic."""
    if args.data is None:
        return None  # experiments fall back to the cached synthetic dataset
    from .datasets.vtlike import load_vt_directory

    return load_vt_directory(args.data)


def _cmd_table1(args) -> str:
    from .experiments.nist_tables import format_result, run_nist_experiment

    return format_result(
        run_nist_experiment(
            _load_dataset(args), method="case1", distilled=not args.raw
        )
    )


def _cmd_table2(args) -> str:
    from .experiments.nist_tables import format_result, run_nist_experiment

    return format_result(
        run_nist_experiment(
            _load_dataset(args), method="case2", distilled=not args.raw
        )
    )


def _cmd_fig3(args) -> str:
    from .experiments.fig3_uniqueness import format_result, run_uniqueness_experiment

    return format_result(
        run_uniqueness_experiment(_load_dataset(args), distilled=not args.raw)
    )


def _cmd_table3(args) -> str:
    from .experiments.config_tables import format_result, run_config_study

    return format_result(run_config_study(_load_dataset(args), method="case1"))


def _cmd_table4(args) -> str:
    from .experiments.config_tables import format_result, run_config_study

    return format_result(run_config_study(_load_dataset(args), method="case2"))


def _cmd_fig4(args) -> str:
    from .experiments.fig4_reliability import format_result, run_voltage_reliability

    return format_result(
        run_voltage_reliability(_load_dataset(args), method=args.method)
    )


def _cmd_temperature(args) -> str:
    from .experiments.fig4_reliability import (
        format_result,
        run_temperature_reliability,
    )

    return format_result(
        run_temperature_reliability(_load_dataset(args), method=args.method)
    )


def _cmd_table5(args) -> str:
    from .experiments.table5_bits import format_result, run_table5

    return format_result(run_table5())


def _cmd_threshold(args) -> str:
    from .experiments.sec4e_threshold import format_result, run_threshold_study

    return format_result(run_threshold_study())


def _cmd_ablations(args) -> str:
    from .experiments.ablations import (
        format_distiller_ablation,
        format_noise_ablation,
        format_selector_ablation,
        run_distiller_ablation,
        run_measurement_noise_ablation,
        run_selector_ablation,
    )

    sections = [
        format_distiller_ablation(run_distiller_ablation()),
        format_selector_ablation(run_selector_ablation()),
        format_noise_ablation(run_measurement_noise_ablation()),
    ]
    return "\n\n".join(sections)


def _cmd_extensions(args) -> str:
    from .experiments.extensions import (
        format_aging_study,
        format_ecc_cost_study,
        format_leakage_study,
        format_margin_scaling,
        format_multicorner_study,
        format_scheme_zoo,
        run_aging_study,
        run_ecc_cost_study,
        run_leakage_study,
        run_margin_scaling_study,
        run_multicorner_study,
        run_scheme_zoo,
    )

    dataset = _load_dataset(args)
    sections = [
        format_leakage_study(run_leakage_study(dataset)),
        format_aging_study(run_aging_study()),
        format_scheme_zoo(run_scheme_zoo(dataset)),
        format_ecc_cost_study(run_ecc_cost_study(dataset)),
        format_margin_scaling(run_margin_scaling_study()),
        format_multicorner_study(run_multicorner_study(dataset)),
    ]
    return "\n\n".join(sections)


def _cmd_report(args) -> tuple[str, int]:
    """Write the reproduction report; exit 1 when any paper claim fails."""
    from .analysis.report import build_report

    report = build_report()
    output = args.output or "reproduction_report.md"
    path = report.save(output)
    verdict = "ALL CLAIMS HOLD" if report.all_claims_hold else "SOME CLAIMS FAIL"
    failing = [c.claim for c in report.claims if not c.holds]
    lines = [f"report written to {path}", verdict]
    lines.extend(f"  failing: {claim}" for claim in failing)
    return "\n".join(lines), 0 if report.all_claims_hold else 1


def _cmd_all(args) -> str:
    """Run the experiment pipeline; return the summary as pretty JSON."""
    import json

    from .pipeline import RetryPolicy, run_pipeline

    tasks = None
    if args.tasks:
        tasks = [name.strip() for name in args.tasks.split(",") if name.strip()]
    policy = RetryPolicy(
        max_attempts=args.retries,
        backoff_seconds=args.backoff,
        timeout_seconds=args.task_timeout,
    )
    summary = run_pipeline(
        dataset=_load_dataset(args),
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        tasks=tasks,
        timings=args.timings,
        trace=args.trace,
        profile=args.profile,
        policy=policy,
        journal=args.resume,
        chaos=args.chaos,
    )
    text = json.dumps(summary, indent=2)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text)
    return text


def _cmd_trace(args) -> str:
    """Summarize a trace JSONL file written by ``ropuf all --trace``."""
    import json

    from .obs import format_trace_summary, summarize_trace

    summary = summarize_trace(args.trace_file, top=args.top)
    if args.json:
        return json.dumps(summary, indent=2)
    return format_trace_summary(summary)


def _cmd_bench(args) -> tuple[str, int]:
    """Compare two benchmark JSON artifacts; non-zero exit on regression."""
    from .obs import compare_bench, format_bench_compare

    result = compare_bench(
        args.old, args.new, threshold=args.threshold, metric=args.metric
    )
    return format_bench_compare(result), 0 if result["ok"] else 1


def _cmd_fleet(args) -> tuple[str, int]:
    """Sharded out-of-core fleet analytics (docs/datasets.md)."""
    import json

    from .datasets.fleet import FleetSpec
    from .pipeline import RetryPolicy, run_fleet_analysis

    spec = FleetSpec(
        devices=args.devices,
        ro_count=args.ro_count,
        shard_devices=args.shard_devices,
        seed=args.seed,
    )
    policy = RetryPolicy(
        max_attempts=args.retries,
        backoff_seconds=args.backoff,
        timeout_seconds=args.task_timeout,
    )
    summary = run_fleet_analysis(
        spec,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        policy=policy,
        journal=args.resume,
        timings=args.timings,
        trace=args.trace,
        shard_dir=args.shard_dir,
    )
    text = json.dumps(summary, indent=2)
    output = getattr(args, "output", None)
    if output:
        from pathlib import Path

        Path(output).write_text(text)
    return text, 0 if summary["complete"] else 1


def _cmd_serve(args) -> tuple[str, int]:
    """Run the CRP authentication service (or its load benchmark)."""
    import json
    from pathlib import Path

    from . import obs
    from .serve import (
        AuthServer,
        AuthService,
        CRPStore,
        DeviceFarm,
        FleetConfig,
        RequestCoalescer,
        run_load,
        run_overload,
    )

    # Telemetry wiring (docs/observability.md).  The standalone server
    # always records metrics so the ``metrics`` verb and ``ropuf top``
    # work out of the box; ``--bench`` keeps them off unless a sidecar
    # was requested, so the latency baseline measures the quiet path.
    # ``--open-loop`` turns them back on: the overload run's whole point
    # is that its shed counters land in the metrics exposition.
    metrics_on = (
        args.metrics_port is not None or not args.bench or args.open_loop
    )
    if metrics_on:
        obs.enable_metrics()
    sampler = None
    if args.trace is not None:
        obs.enable_tracing()
        sampler = obs.TailSampler(slow_ms=args.slow_ms)
    profiler = None
    if args.profile is not None:
        profiler = obs.SamplingProfiler()
        profiler.start()

    farm = DeviceFarm.from_config(
        FleetConfig(
            boards=args.boards,
            ro_count=args.ro_count,
            stage_count=args.stages,
            method=args.fleet_method,
            seed=args.seed,
        )
    )
    service = AuthService(
        farm,
        CRPStore(args.store),
        coalescer=RequestCoalescer(
            max_batch=args.max_batch, max_wait_s=args.window
        ),
        threshold_fraction=args.auth_threshold,
        seed=args.seed,
    )
    enrollment = service.enroll_fleet()
    server = AuthServer(
        service,
        address=(args.host, args.port),
        sampler=sampler,
        max_inflight=args.max_inflight if args.max_inflight > 0 else None,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        max_connections=args.max_connections,
        idle_timeout=args.idle_timeout,
    )
    sidecar = None
    if args.metrics_port is not None:
        sidecar = obs.start_http_exporter(
            service.exporter, port=args.metrics_port, host=args.host
        )
    try:
        if args.bench:
            server.start()
            host, port = server.address
            try:
                if args.open_loop:
                    summary = run_overload(
                        host,
                        port,
                        offered_rps=args.offered_rps,
                        duration_s=args.duration,
                        workers=args.clients,
                        farm=farm,
                        deadline_ms=args.deadline_ms,
                    )
                else:
                    summary = run_load(
                        host,
                        port,
                        clients=args.clients,
                        auths_per_client=args.auths,
                        farm=farm,
                    )
                summary["enrollment"] = {
                    "enrolled": len(enrollment["enrolled"]),
                    "reused": len(enrollment["reused"]),
                }
                summary["coalescer"] = service.coalescer.stats()
                summary["store"] = service.store.stats()
                summary["overload"] = server.overload_stats()
                if args.open_loop:
                    # The shed counters as the metrics scrape reports
                    # them — the chaos gate greps these out of the
                    # artifact rather than trusting the harness's own
                    # bookkeeping.
                    exposition = service.exporter.collect()
                    summary["metrics_counters"] = {
                        name: value
                        for name, value in exposition["counters"].items()
                        if name.startswith(
                            ("serve.admission.", "serve.ratelimit.",
                             "serve.overload.", "serve.degraded.",
                             "serve.coalesce.dropped"),
                        )
                    }
            finally:
                server.stop()
            text = json.dumps(summary, indent=2)
            output = getattr(args, "output", None)
            if output:
                Path(output).write_text(text)
            if args.open_loop:
                # Overload runs budget for shedding; the failure signal
                # is a wrong verdict or an untyped error, never volume.
                bad = summary["wrong"] + sum(
                    summary["terminal_by_type"].values()
                )
                return text, 0 if bad == 0 else 1
            return text, 0 if summary["failures"] == 0 else 1
        host, port = server.address
        print(
            f"ropuf serve: {len(farm)} devices "
            f"({len(enrollment['enrolled'])} enrolled, "
            f"{len(enrollment['reused'])} reused) on {host}:{port}",
            flush=True,
        )
        if sidecar is not None:
            sidecar_host, sidecar_port = sidecar.server_address
            print(
                f"ropuf serve: metrics sidecar on "
                f"http://{sidecar_host}:{sidecar_port}/metrics",
                flush=True,
            )
        # Graceful shutdown on SIGTERM too (CI and process supervisors
        # send it): route it through the KeyboardInterrupt path so the
        # telemetry artifacts below are still written.
        import signal

        def _terminate(signum, frame):
            raise KeyboardInterrupt

        try:
            signal.signal(signal.SIGTERM, _terminate)
        except ValueError:
            pass  # not the main thread (embedded use); skip the hook
        try:
            server.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
            service.close()
        return "", 0
    finally:
        if sidecar is not None:
            sidecar.shutdown()
            sidecar.server_close()
        if profiler is not None:
            profiler.stop()
            profiler.write(Path(args.profile))
        if sampler is not None:
            obs.write_trace(args.trace, spans=sampler.spans())
            obs.disable_tracing()
        if metrics_on:
            obs.disable_metrics()


def _render_top(doc: dict) -> str:
    """Render one exposition document as the ``ropuf top`` dashboard."""
    counters = doc.get("counters", {})
    histograms = doc.get("histograms", {})
    rates = doc.get("rates", {})

    def rate(name: str, window: str = "10s") -> float:
        return rates.get(window, {}).get(name, 0.0)

    def requests_per_second(window: str) -> float:
        return sum(
            value
            for name, value in rates.get(window, {}).items()
            if name.startswith("serve.requests.")
        )

    windows = sorted(rates, key=lambda w: float(w.rstrip("s")))
    lines = [
        f"ropuf top — server uptime {doc.get('uptime_seconds', 0.0):.1f}s",
        "requests/s: "
        + "  ".join(
            f"{window}={requests_per_second(window):.1f}"
            for window in windows
        ),
        "errors: {:g} ({:.2f}/s)  protocol: {:g} ({:.2f}/s)".format(
            counters.get("serve.errors", 0.0),
            rate("serve.errors"),
            counters.get("serve.protocol_errors", 0.0),
            rate("serve.protocol_errors"),
        ),
    ]
    verbs = sorted(
        name.split(".", 2)[2]
        for name in counters
        if name.startswith("serve.requests.")
    )
    if verbs:
        lines.append("")
        lines.append(
            f"{'verb':<16}{'count':>10}{'rps':>10}{'p50 ms':>10}{'p99 ms':>10}"
        )
        for verb in verbs:
            latency = histograms.get(f"serve.latency_ms.{verb}") or {}
            lines.append(
                f"{verb:<16}"
                f"{counters[f'serve.requests.{verb}']:>10g}"
                f"{rate(f'serve.requests.{verb}'):>10.1f}"
                f"{latency.get('p50') or 0.0:>10.2f}"
                f"{latency.get('p99') or 0.0:>10.2f}"
            )
    shed = counters.get("serve.admission.shed", 0.0)
    expired = counters.get("serve.admission.expired", 0.0)
    limited = counters.get("serve.ratelimit.limited", 0.0)
    conn_rejected = counters.get("serve.connections.rejected", 0.0)
    if shed or expired or limited or conn_rejected:
        lines.append("")
        lines.append(
            "overload: shed={:g} ({:.1f}/s)  expired={:g}  "
            "rate-limited={:g}  conn-rejected={:g}".format(
                shed,
                rate("serve.admission.shed"),
                expired,
                limited,
                conn_rejected,
            )
        )
    degraded_entered = counters.get("serve.degraded.entered", 0.0)
    if degraded_entered:
        lines.append(
            "degraded: entered={:g}  recovered={:g}".format(
                degraded_entered,
                counters.get("serve.degraded.recovered", 0.0),
            )
        )
    batch = histograms.get("serve.coalesce.batch_size")
    if batch:
        lines.append("")
        lines.append(
            "coalescer: batches={:g} ({:.1f}/s)  "
            "batch size mean={:.1f} max={:g}".format(
                counters.get("serve.coalesce.batches", 0.0),
                rate("serve.coalesce.batches"),
                batch.get("mean", 0.0),
                batch.get("max", 0.0),
            )
        )
    backend_counters = sorted(
        name for name in counters if name.startswith("backend.")
    )
    if backend_counters:
        lines.append("")
        lines.append("backend throughput:")
        lines.extend(
            f"  {name} {counters[name]:g} ({rate(name):.1f}/s)"
            for name in backend_counters
        )
    return "\n".join(lines)


def _cmd_top(args) -> tuple[str, int]:
    """Live dashboard over a running server's ``metrics`` verb."""
    import time

    from .serve import AuthClient, ServeClientError

    try:
        with AuthClient(args.host, args.port, timeout=args.timeout) as client:
            client.metrics()  # baseline scrape: rates need two samples
            if args.once:
                time.sleep(min(args.interval, 1.0))
                return _render_top(client.metrics()), 0
            while True:
                time.sleep(args.interval)
                text = _render_top(client.metrics())
                print("\x1b[2J\x1b[H" + text, flush=True)
    except KeyboardInterrupt:
        return "", 0
    except (ServeClientError, OSError) as exc:
        return f"ropuf top: {exc}", 1


#: Experiment verbs: handler and the flag groups (``_experiment_flag_groups``)
#: it reads.
_COMMANDS = {
    "table1": (_cmd_table1, ("raw", "data")),
    "table2": (_cmd_table2, ("raw", "data")),
    "fig3": (_cmd_fig3, ("raw", "data")),
    "table3": (_cmd_table3, ("data",)),
    "table4": (_cmd_table4, ("data",)),
    "fig4": (_cmd_fig4, ("method", "data")),
    "temperature": (_cmd_temperature, ("method", "data")),
    "table5": (_cmd_table5, ()),
    "threshold": (_cmd_threshold, ()),
    "ablations": (_cmd_ablations, ()),
    "extensions": (_cmd_extensions, ("data",)),
    "report": (_cmd_report, ("output",)),
    "all": (_cmd_all, ("data", "output", "pipeline")),
}

#: Tooling verbs with their own arguments.  Handlers may return
#: ``(text, exit_code)`` instead of plain text.
_TOOL_COMMANDS = {
    "trace": _cmd_trace,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "fleet": _cmd_fleet,
    "top": _cmd_top,
}


def _experiment_flag_groups() -> dict[str, argparse.ArgumentParser]:
    """Parent parsers for the experiment verbs' flags, by group name.

    Each verb attaches only the groups its handler reads (``_COMMANDS``).
    """
    groups = {
        name: argparse.ArgumentParser(add_help=False)
        for name in ("raw", "method", "data", "output", "pipeline")
    }
    groups["raw"].add_argument(
        "--raw",
        action="store_true",
        help="skip the systematic-variation distiller",
    )
    groups["method"].add_argument(
        "--method",
        choices=("case1", "case2"),
        default="case1",
        help="configurable selection method (reliability sweeps)",
    )
    groups["data"].add_argument(
        "--data",
        default=None,
        help="directory of real measurement files (default: synthetic)",
    )
    groups["output"].add_argument(
        "--output",
        default=None,
        help="output path (the report, or a copy of the summary JSON)",
    )
    pipeline = groups["pipeline"]
    pipeline.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel worker processes for the pipeline",
    )
    pipeline.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the on-disk result cache",
    )
    pipeline.add_argument(
        "--timings",
        action="store_true",
        help="embed per-task timing/cache metrics in the summary JSON",
    )
    pipeline.add_argument(
        "--tasks",
        default=None,
        help="comma-separated pipeline task subset",
    )
    pipeline.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the merged span trace as JSONL",
    )
    pipeline.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="write a sampling-profiler collapsed-stack profile of the run",
    )
    pipeline.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="total attempts per task before degrading it (default: 2)",
    )
    pipeline.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="exponential backoff base between attempts (default: 0)",
    )
    pipeline.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock timeout; kills and re-dispatches "
        "(needs --jobs >= 2)",
    )
    pipeline.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="crash-safe checkpoint journal to replay and append",
    )
    pipeline.add_argument(
        "--chaos",
        type=int,
        default=None,
        metavar="SEED",
        help="inject seeded worker-crash/hang/cache-corruption chaos",
    )
    return groups


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="ropuf",
        description=(
            "Reproduce the evaluation of 'A Highly Flexible Ring Oscillator "
            "PUF' (DAC 2014) on synthetic silicon."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    flag_groups = _experiment_flag_groups()
    for name, (_, groups) in _COMMANDS.items():
        subparsers.add_parser(
            name,
            help=f"run the {name} experiment",
            parents=[flag_groups[group] for group in groups],
        )

    trace = subparsers.add_parser(
        "trace", help="inspect trace files written by 'all --trace'"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    summarize = trace_sub.add_parser(
        "summarize", help="print top spans, per-process stats, cache ratio"
    )
    summarize.add_argument("trace_file", help="trace JSONL path")
    summarize.add_argument(
        "--top",
        type=int,
        default=10,
        help="how many spans to list by self-time (default: 10)",
    )
    summarize.add_argument(
        "--json",
        action="store_true",
        help="emit the summary as machine-readable JSON",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the CRP authentication service (docs/serving.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port; 0 picks an ephemeral port (default: 0)",
    )
    serve.add_argument(
        "--boards",
        type=int,
        default=4,
        help="synthetic fleet size (default: 4)",
    )
    serve.add_argument(
        "--ro-count",
        type=int,
        default=320,
        help="delay units per board (default: 320 -> 32 response bits)",
    )
    serve.add_argument(
        "--stages",
        type=int,
        default=5,
        help="units per configurable ring (default: 5)",
    )
    serve.add_argument(
        "--fleet-method",
        choices=("case1", "case2", "traditional"),
        default="case1",
        help="selection method used at fleet enrollment (default: case1)",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=20140601,
        help="fleet/dataset seed; reuse it to resume a persisted store",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="crash-safe CRP store journal (default: in-memory only)",
    )
    serve.add_argument(
        "--auth-threshold",
        type=float,
        default=0.15,
        help="accepted Hamming-distance fraction (default: 0.15)",
    )
    serve.add_argument(
        "--window",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="coalescing window: how long a request waits for batch "
        "company (default: 0.002)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="coalesced batch-size ceiling (default: 64)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="admission gate: requests in service simultaneously before "
        "shedding with retriable Overloaded frames; 0 disables "
        "(default: 64)",
    )
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        metavar="RPS",
        help="per-client-address token-bucket rate limit in requests/s "
        "(default: off)",
    )
    serve.add_argument(
        "--rate-burst",
        type=float,
        default=None,
        metavar="N",
        help="per-client burst allowance (default: one second of "
        "--rate-limit)",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=None,
        metavar="N",
        help="global simultaneous-connection cap (default: unlimited)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="close a connection that makes no frame progress for this "
        "long — slow-loris defence (default: off)",
    )
    serve.add_argument(
        "--bench",
        action="store_true",
        help="run the load generator against an ephemeral server and "
        "print a latency-percentile summary (non-zero exit on failures)",
    )
    serve.add_argument(
        "--open-loop",
        action="store_true",
        help="with --bench: drive a fixed offered rate instead of the "
        "closed loop, reporting goodput vs shed (docs/serving.md)",
    )
    serve.add_argument(
        "--offered-rps",
        type=float,
        default=200.0,
        metavar="RPS",
        help="open-loop offered arrival rate (default: 200)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="open-loop run length (default: 5)",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="attach this deadline budget to every open-loop request",
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=100,
        help="concurrent load-generator clients (default: 100)",
    )
    serve.add_argument(
        "--auths",
        type=int,
        default=10,
        help="authentication rounds per client (default: 10)",
    )
    serve.add_argument(
        "--output",
        default=None,
        help="also write the --bench summary JSON to this path",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also expose GET /metrics (Prometheus text) and "
        "/metrics.json on this HTTP sidecar port (0 picks one)",
    )
    serve.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="tail-sampled request tracing: retain span trees only for "
        "requests slower than --slow-ms; written as JSONL on shutdown",
    )
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=100.0,
        metavar="MS",
        help="tail-sampling latency threshold in milliseconds "
        "(default: 100)",
    )
    serve.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="run the sampling profiler; collapsed stacks are written "
        "here on shutdown",
    )

    top = subparsers.add_parser(
        "top",
        help="live telemetry dashboard for a running 'ropuf serve'",
    )
    top.add_argument(
        "--host", default="127.0.0.1", help="server address to poll"
    )
    top.add_argument(
        "--port", type=int, required=True, help="server port to poll"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval (default: 2)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (for scripting)",
    )
    top.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-request socket timeout (default: 5)",
    )

    fleet = subparsers.add_parser(
        "fleet",
        help="sharded out-of-core fleet analytics (docs/datasets.md)",
    )
    fleet.add_argument(
        "--devices",
        type=int,
        default=100_000,
        help="fleet size in devices (default: 100000)",
    )
    fleet.add_argument(
        "--ro-count",
        type=int,
        default=128,
        help="ROs per device; adjacent pairs give half as many response "
        "bits (default: 128)",
    )
    fleet.add_argument(
        "--shard-devices",
        type=int,
        default=4096,
        help="devices per shard — the memory high-water mark "
        "(default: 4096)",
    )
    fleet.add_argument(
        "--seed",
        type=int,
        default=20140601,
        help="master seed; shard i draws from (seed, i) (default: 20140601)",
    )
    fleet.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel worker processes (default: 1)",
    )
    fleet.add_argument(
        "--cache-dir",
        default=None,
        help="directory of the on-disk shard-result cache",
    )
    fleet.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help="crash-safe checkpoint journal: completed shards are "
        "replayed, fresh ones durably appended",
    )
    fleet.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="total attempts per shard before degrading it (default: 2)",
    )
    fleet.add_argument(
        "--backoff",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="exponential backoff base between attempts (default: 0)",
    )
    fleet.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard wall-clock timeout (needs --jobs >= 2)",
    )
    fleet.add_argument(
        "--timings",
        action="store_true",
        help="embed per-shard timing metrics in the summary JSON",
    )
    fleet.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write the merged span trace as JSONL",
    )
    fleet.add_argument(
        "--output",
        default=None,
        help="also write the summary JSON to this path",
    )
    fleet.add_argument(
        "--shard-dir",
        default=None,
        metavar="PATH",
        help="persist generated shards here and memory-map them on "
        "re-analysis instead of regenerating",
    )

    bench = subparsers.add_parser(
        "bench", help="compare benchmark JSON artifacts"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    compare = bench_sub.add_parser(
        "compare", help="flag metric regressions between two BENCH_*.json"
    )
    compare.add_argument("old", help="baseline benchmark JSON")
    compare.add_argument("new", help="candidate benchmark JSON")
    compare.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="relative change that counts as a regression (default: 0.20)",
    )
    compare.add_argument(
        "--metric",
        choices=("all", "seconds", "speedup", "throughput", "memory"),
        default="all",
        help="which metric family to gate on (default: all)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command in _COMMANDS:
        handler = _COMMANDS[args.command][0]
    else:
        handler = _TOOL_COMMANDS[args.command]
    outcome = handler(args)
    if isinstance(outcome, tuple):
        text, code = outcome
    else:
        text, code = outcome, 0
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
