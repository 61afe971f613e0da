"""Command-line front end.

Usage::

    kleb-repro list
    kleb-repro list-events [--kind arch|uarch]
    kleb-repro run table1 [--seed N] [--runs N] [--period-ms F]
    kleb-repro run-all [--quick]
    kleb-repro monitor --workload matmul --tool k-leb --period-ms 10
    kleb-repro monitor --tool k-leb --events L1D_MISSES,L2_MISSES,... \
        --multiplex 1.0
    kleb-repro monitor --workload matmul --cores 4 --migrate

``run`` executes one paper table/figure reproduction and prints the
paper-style text output; ``monitor`` runs a single monitored trial and
prints the report summary (handy for poking at the tools).

``run`` and ``run-all`` exit with status 3 when quarantine left a
headline number undefined (e.g. every K-LEB trial failed); the report,
the fault ledger and any trace/metrics/flight artifacts are still
written first.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.analysis.timeseries import deltas, find_gaps, samples_to_series
from repro.errors import FaultError, PMUError, ToolError
from repro.experiments import EXPERIMENTS
from repro.hw import events as hw_events
from repro.experiments.report import sparkline, text_table
from repro.experiments.runner import run_monitored
from repro.faults import FaultInjector, FaultPlan, RunLedger
from repro.sim.clock import ms
from repro.tools.registry import available_tools, create_tool
from repro.workloads.dgemm import MklDgemm
from repro.workloads.linpack import LinpackWorkload
from repro.workloads.matmul import TripleLoopMatmul
from repro.workloads.meltdown import MeltdownAttack, SecretPrinter

_WORKLOADS = {
    "matmul": lambda: TripleLoopMatmul(1024),
    "dgemm": lambda: MklDgemm(),
    "linpack": lambda: LinpackWorkload(5000),
    "secret-printer": SecretPrinter,
    "meltdown": MeltdownAttack,
}

# Exit status of a run that completed but left a headline number
# undefined (2 is argparse's usage-error status).
EXIT_HEADLINE_UNDEFINED = 3

# Experiments whose trial populations can fan out over worker
# processes (the rest are single-run comparisons).
_PARALLEL_EXPERIMENTS = {"table1", "table2", "table3", "fig4", "fig6", "fig8"}

# Small-parameter overrides for `run-all --quick`.
_QUICK_KWARGS = {
    "table1": {"trials": 3},
    "table2": {"runs": 5},
    "table3": {"runs": 5},
    "fig4": {"trials": 3},
    "fig5": {"iterations": 8, "cross_platform": False},
    "fig6": {"rounds": 3},
    "fig7": {},
    "fig8": {"runs": 5},
    "fig9": {},
    "crosscheck": {},
    "multiplex": {"n": 128, "rotation_periods_ns": (ms(1), ms(0.5), ms(0.2))},
    "adaptive": {"phase_instructions": (60e6, 45e6, 70e6, 50e6)},
    "smp": {"cores": 2, "service_accesses": 60_000,
            "streamer_accesses": 80_000},
}


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return jobs


def _faults_arg(value: str) -> FaultPlan:
    try:
        return FaultPlan.parse(value)
    except FaultError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


_FAULTS_HELP = (
    "fault-injection spec, e.g. seed=7,starve=0.3,crash=0.1 "
    "(keys: seed, timer_jitter, timer_jitter_ns, timer_miss, ioctl, "
    "read, squeeze, squeeze_factor, squeeze_fires, starve, "
    "starve_factor, pmu_wrap, crash, timeout, persistent)"
)

_TRACE_HELP = ("record a Chrome trace-event file (Perfetto-loadable; "
               ".jsonl suffix selects JSONL; .gz suffix gzips)")
_METRICS_HELP = ("record a metrics file (Prometheus text; .json suffix "
                 "selects the JSON document; .gz suffix gzips)")
_LIVE_HELP = ("serve live run telemetry over loopback HTTP on PORT "
              "(default 9137): /metrics (Prometheus), /healthz "
              "(watchdog; 503 = degraded), /runs (JSON); watch with "
              "`python -m repro.obs.top`")
_FLIGHT_HELP = ("keep a bounded flight-recorder ring of recent trace "
                "events and dump it to PATH on quarantines, watchdog "
                "trips, crashes, and run end")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help=_TRACE_HELP)
    parser.add_argument("--metrics", default=None, metavar="PATH",
                        help=_METRICS_HELP)
    parser.add_argument("--live", nargs="?", type=int, default=None,
                        const=-1, metavar="PORT", help=_LIVE_HELP)
    parser.add_argument("--flight", default=None, metavar="PATH",
                        help=_FLIGHT_HELP)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kleb-repro",
        description="K-LEB (IISWC 2020) reproduction on a simulated machine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible tables/figures")

    events_parser = sub.add_parser(
        "list-events", help="list the hardware event catalogue")
    events_parser.add_argument(
        "--kind", choices=("arch", "uarch"), default=None,
        help="only architectural / microarchitectural events")

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--runs", type=int, default=None,
                            help="override run/trial/round count")
    run_parser.add_argument("--period-ms", type=float, default=None,
                            help="override the sample period")
    run_parser.add_argument("--jobs", type=_jobs_arg, default=None, metavar="N",
                            help="worker processes for trial populations "
                                 "(default: all cores)")
    run_parser.add_argument("--faults", type=_faults_arg, default=None,
                            metavar="SPEC", help=_FAULTS_HELP)
    _add_obs_args(run_parser)

    all_parser = sub.add_parser("run-all", help="run every experiment")
    all_parser.add_argument("--quick", action="store_true",
                            help="small populations for a fast pass")
    all_parser.add_argument("--seed", type=int, default=0)
    all_parser.add_argument("--jobs", type=_jobs_arg, default=None, metavar="N",
                            help="worker processes for trial populations "
                                 "(default: all cores)")
    all_parser.add_argument("--faults", type=_faults_arg, default=None,
                            metavar="SPEC",
                            help=_FAULTS_HELP + " (trial experiments only)")
    _add_obs_args(all_parser)

    monitor = sub.add_parser("monitor", help="one monitored trial")
    monitor.add_argument("--workload", choices=sorted(_WORKLOADS),
                         default="matmul")
    monitor.add_argument("--tool", choices=available_tools(),
                         default="k-leb")
    monitor.add_argument("--period-ms", type=float, default=10.0)
    monitor.add_argument("--seed", type=int, default=0)
    monitor.add_argument("--events", default="LOADS,STORES,BRANCHES,LLC_MISSES",
                         help="comma-separated catalogue names "
                              "(see `list-events`); more events than "
                              "counters needs --multiplex")
    monitor.add_argument("--multiplex", type=float, default=None,
                         metavar="MS",
                         help="rotate event groups every MS milliseconds "
                              "(k-leb only); totals become scaled estimates")
    monitor.add_argument("--adapt", action="store_true",
                         help="close the loop: adapt the sampling period "
                              "and drain batches online (k-leb only)")
    monitor.add_argument("--cores", type=int, default=None, metavar="N",
                         help="run on an N-core SMP cluster with per-core "
                              "PMUs and a merged per-CPU sample ring "
                              "(k-leb only)")
    monitor.add_argument("--sockets", type=int, default=1, metavar="M",
                         help="spread --cores evenly over M sockets, one "
                              "uncore PMU each (default 1)")
    monitor.add_argument("--migrate", action="store_true",
                         help="enable seeded CPU migration of the "
                              "monitored task (requires --cores >= 2)")
    monitor.add_argument("--overhead-budget", type=float, default=None,
                         metavar="PCT",
                         help="overhead budget for --adapt as a percentage "
                              "of victim cycles, in (0, 100] (default 2)")
    monitor.add_argument("--save-json", default=None, metavar="PATH",
                         help="write the full report as JSON")
    monitor.add_argument("--save-csv", default=None, metavar="PATH",
                         help="write the sample series as CSV (K-LEB log layout)")
    monitor.add_argument("--faults", type=_faults_arg, default=None,
                         metavar="SPEC", help=_FAULTS_HELP)
    _add_obs_args(monitor)
    return parser


def _run_experiment(experiment_id: str, seed: int,
                    runs: Optional[int], period_ms: Optional[float],
                    jobs: Optional[int] = None,
                    faults: Optional[FaultPlan] = None
                    ) -> Tuple[str, List[str]]:
    """Run one experiment; return its rendered output and the names of
    the headline numbers it left undefined."""
    entry = EXPERIMENTS[experiment_id]
    kwargs = {"seed": seed}
    ledger: Optional[RunLedger] = None
    if experiment_id in _PARALLEL_EXPERIMENTS:
        kwargs["jobs"] = jobs  # None = all cores (resolve_jobs)
        if faults is not None:
            ledger = RunLedger()
            kwargs["faults"] = faults
            kwargs["fault_ledger"] = ledger
    elif faults is not None:
        raise SystemExit(
            f"--faults is only supported for trial-population experiments "
            f"({', '.join(sorted(_PARALLEL_EXPERIMENTS))}), "
            f"not {experiment_id!r}"
        )
    if runs is not None:
        key = {"table1": "trials", "fig4": "trials",
               "fig6": "rounds"}.get(experiment_id, "runs")
        if experiment_id in ("fig7", "fig9", "crosscheck", "multiplex",
                             "adaptive", "smp"):
            pass  # single-run experiments
        else:
            kwargs[key] = runs
    if period_ms is not None:
        kwargs["period_ns"] = ms(period_ms)
    result = entry.run(**kwargs)
    output = entry.render(result)
    if ledger is not None:
        output += "\n\n" + ledger.render()
    return output, entry.undefined_headlines(result)


def _verdict(undefined: List[str]) -> int:
    """Exit status for a completed run: non-zero when any headline
    number is undefined."""
    if not undefined:
        return 0
    print(f"headline undefined: {', '.join(undefined)}", file=sys.stderr)
    return EXIT_HEADLINE_UNDEFINED


def _cmd_list() -> int:
    rows = [[entry.experiment_id, entry.description]
            for entry in EXPERIMENTS.values()]
    print(text_table(["id", "description"], rows,
                     title="Reproducible tables and figures"))
    return 0


_KIND_FLAGS = {"arch": hw_events.EventKind.ARCHITECTURAL,
               "uarch": hw_events.EventKind.MICROARCHITECTURAL}


def _catalogue_table(kind: Optional[str] = None) -> str:
    """The event catalogue grouped by kind, as printable text."""
    sections = []
    for flag, event_kind in _KIND_FLAGS.items():
        if kind is not None and flag != kind:
            continue
        group = hw_events.events_by_kind()[event_kind]
        rows = [[event.name, f"{event.code:#06x}",
                 f"{event.counter_mask:#06b}"
                 if event.fixed_counter is None
                 else f"fixed{event.fixed_counter}",
                 event.description]
                for event in group]
        sections.append(text_table(
            ["event", "code", "counters", "description"], rows,
            title=f"{event_kind.value} events ({len(rows)})"))
    return "\n\n".join(sections)


def _cmd_list_events(args: argparse.Namespace) -> int:
    print(_catalogue_table(args.kind))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    output, undefined = _run_experiment(
        args.experiment, args.seed, args.runs, args.period_ms,
        jobs=args.jobs, faults=args.faults)
    print(output)
    return _verdict(undefined)


def _cmd_run_all(args: argparse.Namespace) -> int:
    undefined: List[str] = []
    for experiment_id, entry in EXPERIMENTS.items():
        kwargs = dict(_QUICK_KWARGS[experiment_id]) if args.quick else {}
        kwargs["seed"] = args.seed
        ledger: Optional[RunLedger] = None
        if experiment_id in _PARALLEL_EXPERIMENTS:
            kwargs["jobs"] = args.jobs
            if args.faults is not None:
                # Faults apply only to trial populations; single-run
                # comparisons run clean.
                ledger = RunLedger()
                kwargs["faults"] = args.faults
                kwargs["fault_ledger"] = ledger
        result = entry.run(**kwargs)
        print(entry.render(result))
        if ledger is not None:
            print("\n" + ledger.render())
        print("\n" + "#" * 72 + "\n")
        undefined += [f"{experiment_id}: {name}"
                      for name in entry.undefined_headlines(result)]
    return _verdict(undefined)


def _cmd_monitor_smp(args: argparse.Namespace, program, events) -> int:
    """One monitored trial on an N-core cluster (k-leb only)."""
    from repro.errors import ExperimentError
    from repro.experiments.smp import run_monitored_smp

    try:
        result = run_monitored_smp(
            program, events=events, period_ns=ms(args.period_ms),
            seed=args.seed, cores=args.cores, sockets=args.sockets,
            migrate=args.migrate, fault_plan=args.faults,
        )
    except (PMUError, ToolError, ExperimentError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = result.report
    print(f"workload : {program.name}")
    print(f"tool     : {report.tool} @ {report.period_ns / 1e6:g} ms")
    print(f"topology : {args.cores} core(s), {args.sockets} socket(s)"
          f"{', migration on' if args.migrate else ''}")
    print(f"wall time: {result.wall_ns / 1e9:.6f} s")
    print(f"samples  : {report.sample_count}")
    print(f"migrations: {report.metadata.get('smp_migrations', 0):g}")
    rows = [[name, f"{value:,.0f}"]
            for name, value in sorted(report.totals.items())]
    print(text_table(["event", "total"], rows))
    per_cpu = [[f"cpu{cpu}"] + [
        f"{report.metadata.get(f'smp_cpu{cpu}:{name}', 0.0):,.0f}"
        for name in events]
        for cpu in range(args.cores)]
    print(text_table(["core"] + list(events), per_cpu,
                     title="per-core victim totals"))
    for socket, bandwidth in enumerate(result.uncore_bandwidth_bytes_per_sec):
        print(f"uncore[{socket}]: {bandwidth / 1e6:,.1f} MB/s smoothed "
              f"({', '.join(f'{name}={value:,d}' for name, value in sorted(result.uncore_totals[socket].items()))})")
    series = deltas(samples_to_series(report.samples))
    for name in events:
        if len(series) and name in series.values:
            print(f"{name:16s} {sparkline(series.event(name))}")
    if args.save_json:
        from repro.io import save_report_json

        save_report_json(report, args.save_json)
        print(f"report written to {args.save_json}")
    if args.save_csv:
        from repro.io import save_samples_csv

        save_samples_csv(report, args.save_csv)
        print(f"samples written to {args.save_csv}")
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    program = _WORKLOADS[args.workload]()
    events = tuple(part.strip() for part in args.events.split(",") if part)
    try:
        for name in events:
            hw_events.lookup(name)
    except PMUError as error:
        # A typo'd event name gets the suggestion plus the catalogue
        # grouped by kind, not a stack trace.
        print(f"error: {error}\n", file=sys.stderr)
        print(_catalogue_table(), file=sys.stderr)
        return 2
    if args.multiplex is not None and args.multiplex <= 0:
        print(f"error: --multiplex must be a positive rotation period in "
              f"milliseconds, got {args.multiplex:g}", file=sys.stderr)
        return 2
    if args.overhead_budget is not None:
        if not args.adapt:
            print("error: --overhead-budget requires --adapt",
                  file=sys.stderr)
            return 2
        if not 0.0 < args.overhead_budget <= 100.0:
            print(f"error: --overhead-budget must be in (0, 100] percent, "
                  f"got {args.overhead_budget:g}", file=sys.stderr)
            return 2
    if (args.multiplex is not None or args.adapt) and args.tool != "k-leb":
        flag = "--multiplex" if args.multiplex is not None else "--adapt"
        print(f"error: {flag} is only supported by the k-leb tool, "
              f"not {args.tool!r}", file=sys.stderr)
        return 2
    if args.cores is None:
        if args.migrate:
            print("error: --migrate requires --cores", file=sys.stderr)
            return 2
        if args.sockets != 1:
            print("error: --sockets requires --cores", file=sys.stderr)
            return 2
    else:
        # A non-positive geometry must die with a diagnostic, not a
        # stack trace (and never a silently desynchronized cluster).
        if args.cores < 1:
            print(f"error: --cores must be >= 1, got {args.cores}",
                  file=sys.stderr)
            return 2
        if args.sockets < 1:
            print(f"error: --sockets must be >= 1, got {args.sockets}",
                  file=sys.stderr)
            return 2
        if args.cores % args.sockets:
            print(f"error: --cores ({args.cores}) must divide evenly "
                  f"across --sockets ({args.sockets})", file=sys.stderr)
            return 2
        if args.migrate and args.cores < 2:
            print("error: --migrate needs --cores >= 2", file=sys.stderr)
            return 2
        if args.tool != "k-leb":
            print(f"error: --cores is only supported by the k-leb tool, "
                  f"not {args.tool!r}", file=sys.stderr)
            return 2
        if args.multiplex is not None or args.adapt:
            flag = "--multiplex" if args.multiplex is not None else "--adapt"
            print(f"error: {flag} is not supported on an SMP session "
                  f"(--cores)", file=sys.stderr)
            return 2
        return _cmd_monitor_smp(args, program, events)
    if args.multiplex is not None or args.adapt:
        from repro.control import ControlConfig
        from repro.tools.kleb.tool import KLebTool

        control = None
        if args.adapt:
            control = (ControlConfig() if args.overhead_budget is None
                       else ControlConfig(
                           overhead_budget_percent=args.overhead_budget))
        tool = KLebTool(
            multiplex_period_ns=(ms(args.multiplex)
                                 if args.multiplex is not None else None),
            control=control,
        )
    else:
        tool = create_tool(args.tool)
    injector: Optional[FaultInjector] = None
    if args.faults is not None:
        # A single in-process trial: kernel-layer faults apply; the
        # trial-level crash/timeout knobs only matter under `run`.
        injector = FaultInjector(args.faults)
    try:
        result = run_monitored(
            program, tool, events=events,
            period_ns=ms(args.period_ms), seed=args.seed, faults=injector,
        )
    except (PMUError, ToolError) as error:
        # Unsatisfiable counter constraints / too many events without
        # --multiplex surface as a one-line diagnostic.
        raise SystemExit(f"error: {error}") from None
    report = result.report
    print(f"workload : {program.name}")
    print(f"tool     : {report.tool} @ {report.period_ns / 1e6:g} ms")
    print(f"wall time: {result.wall_ns / 1e9:.6f} s")
    print(f"samples  : {report.sample_count}")
    rows = [[name, f"{value:,.0f}"]
            for name, value in sorted(report.totals.items())]
    print(text_table(["event", "total"], rows))
    series = deltas(samples_to_series(report.samples))
    for name in events:
        if len(series) and name in series.values:
            print(f"{name:16s} {sparkline(series.event(name))}")
    if report.control is not None:
        meta = report.metadata
        print(f"\nadaptive control: "
              f"{meta.get('adaptive_observations', 0):g} observations, "
              f"period {meta.get('adaptive_min_period_ns', 0) / 1e6:g}.."
              f"{meta.get('adaptive_max_period_ns', 0) / 1e6:g} ms, "
              f"overhead {meta.get('adaptive_overhead_percent', 0):.2f}% "
              f"(budget {meta.get('adaptive_budget_percent', 0):g}%), "
              f"final level {meta.get('adaptive_final_level', 0):g}")
        from repro.control import ControlLedger

        ledger_view = ControlLedger.from_rows(report.control)
        if len(ledger_view):
            print(ledger_view.render())
    if injector is not None:
        print(f"\ninjected faults: {len(injector.ledger.records)}")
        for record in injector.ledger.records[:20]:
            print(f"  {record.time_ns:>14,d} ns  {record.site:10s} "
                  f"{record.kind}")
        if len(injector.ledger.records) > 20:
            print(f"  ... and {len(injector.ledger.records) - 20} more")
        recovery_keys = ("timer_misses", "ioctl_retries", "read_retries",
                         "recovery_reads", "drain_shrinks",
                         "drain_restores", "starved_cycles")
        recovered = {key: report.metadata[key] for key in recovery_keys
                     if report.metadata.get(key)}
        if recovered:
            print("recovery: " + ", ".join(
                f"{key}={value:g}" for key, value in recovered.items()
            ))
        gaps = find_gaps(samples_to_series(report.samples),
                         report.period_ns)
        if gaps:
            total_missing = sum(gap.missing for gap in gaps)
            print(f"sample gaps: {len(gaps)} "
                  f"(~{total_missing} samples missing)")
            for gap in gaps[:10]:
                print(f"  {gap.start_ns:>14,d} -> {gap.end_ns:,d} ns "
                      f"(~{gap.missing} missing)")
    if args.save_json:
        from repro.io import save_report_json

        save_report_json(report, args.save_json)
        print(f"report written to {args.save_json}")
    if args.save_csv:
        from repro.io import save_samples_csv

        save_samples_csv(report, args.save_csv)
        print(f"samples written to {args.save_csv}")
    return 0


def _arm_live_plane(recorder, args, flight, dump_path: str):
    """Build and start the live telemetry plane around ``recorder``.

    Returns ``(bus, server)`` — both started; the caller owns shutdown.
    The bus (and its fork-inherited queue) must exist before any worker
    pool forks, which is why this runs before the command dispatch.
    """
    from repro.obs.live import (
        LivePublisher,
        LiveServer,
        LiveState,
        SnapshotBus,
        Watchdog,
    )
    from repro.obs.live.server import DEFAULT_PORT

    label = str(getattr(args, "experiment", None) or args.command)
    # Seed the state with the pre-registered all-zero registry so
    # /metrics exposes every family from the very first scrape.
    state = LiveState(base_metrics=recorder.registry.to_json(),
                      run_label=label)
    watchdog = Watchdog(
        flight=flight,
        on_trip=lambda check, detail: flight.write(
            dump_path, f"watchdog:{check}", {"detail": detail}),
    )
    state.add_listener(watchdog.observe)

    def _dump_on_quarantine(snapshot) -> None:
        if snapshot.status == "quarantined":
            flight.write(dump_path,
                         f"quarantine:trial-{snapshot.trial}")

    state.add_listener(_dump_on_quarantine)
    bus = SnapshotBus(state)
    publisher = LivePublisher(bus)
    publisher.bind(recorder)
    recorder.publisher = publisher
    bus.start()
    server = None
    if getattr(args, "live", None) is not None:
        port = args.live if args.live >= 0 else DEFAULT_PORT
        server = LiveServer(state, watchdog, port=port)
        server.start()
        print(f"live telemetry at {server.url}  "
              f"(/metrics /healthz /runs; `python -m repro.obs.top"
              f" --url {server.url}`)")
    return bus, server


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "list-events":
        return _cmd_list_events(args)
    # Observability is off (null recorder, zero cost) unless asked for.
    wants_artifacts = bool(getattr(args, "trace", None)
                           or getattr(args, "metrics", None))
    live_armed = (getattr(args, "live", None) is not None
                  or getattr(args, "flight", None) is not None)
    recorder = None
    flight = bus = server = None
    flight_dump_path = getattr(args, "flight", None) or "repro.flight.json"
    if wants_artifacts or live_armed:
        from repro.obs import hooks as obs_hooks

        if live_armed:
            from repro.obs.live import FlightRecorder

            flight = FlightRecorder()
        # Pure --live/--flight runs keep the tracer non-retaining: the
        # flight ring sees every event at O(ring) memory, nothing more.
        recorder = obs_hooks.Recorder(trace=wants_artifacts, metrics=True,
                                      flight=flight)
        if live_armed:
            bus, server = _arm_live_plane(recorder, args, flight,
                                          flight_dump_path)
        obs_hooks.install(recorder)
    try:
        if args.command == "run":
            status = _cmd_run(args)
        elif args.command == "run-all":
            status = _cmd_run_all(args)
        elif args.command == "monitor":
            status = _cmd_monitor(args)
        else:
            raise AssertionError("unreachable")
    except BaseException as error:
        if flight is not None:
            # The post-mortem the flight recorder exists for.
            flight.write(flight_dump_path, "crash",
                         {"error": repr(error)})
            print(f"flight ring written to {flight_dump_path} (crash)",
                  file=sys.stderr)
        raise
    finally:
        if bus is not None:
            bus.stop()
        if server is not None:
            server.stop()
        if recorder is not None:
            from repro.obs import hooks as obs_hooks

            obs_hooks.reset()
    if recorder is not None and status in (0, EXIT_HEADLINE_UNDEFINED):
        if args.trace:
            recorder.write_trace(args.trace)
            print(f"trace written to {args.trace}")
        if args.metrics:
            recorder.write_metrics(args.metrics)
            print(f"metrics written to {args.metrics}")
        if getattr(args, "flight", None):
            flight.write(args.flight, "run-complete")
            print(f"flight ring written to {args.flight}")
    return status


if __name__ == "__main__":
    sys.exit(main())
