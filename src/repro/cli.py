"""Command-line interface.

Subcommands mirror the operator workflows of the paper:

* ``repro-grca diagnose <scenario>`` — simulate a scenario, run the
  matching RCA application and print the root-cause breakdown (the
  Result Browser table view);
* ``repro-grca mine`` — run the Section IV-B correlation-mining study
  and print the prefiltered vs unfiltered comparison;
* ``repro-grca catalog events|rules`` — print the Knowledge Library;
* ``repro-grca spec check <file>`` — validate a rule-specification file
  against the library;
* ``repro-grca simulate <scenario> --out DIR`` — dump the raw feeds a
  scenario produces, one file per data source;
* ``repro-grca serve <scenario>`` — run the scenario through the RCA
  *service* layer: periodic scheduled runs on a parallel worker pool
  with result caching, then print the diagnosis breakdown and the
  service metrics (queue depth/wait, latency percentiles, cache hit
  rate, worker utilization);
* ``repro-grca api <scenario>`` — expose the scenario's RCA service
  over the network: N independent service shards behind the stdlib
  HTTP/JSON gateway (``POST /v1/jobs``, ``GET /v1/health``, ...);
* ``repro-grca incidents list|show|report|top`` — fold a scenario's
  diagnoses into deduplicated incidents (:mod:`repro.incident`): list
  them, dump one as ``grca-incident/1`` JSON, render the standardized
  sectioned RCA report, or rank top-offender locations;
* ``repro-grca eval`` — run the scored evaluation scenarios
  (:mod:`repro.eval`): seeded failure-injected replays graded on
  accuracy / coverage / localization / honesty, with a matrix artifact
  (``BENCH_scenarios.json``), CI gating (``--gate``) and artifact
  diffing (``--diff``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .apps import BackboneApp, BgpFlapApp, CdnApp, PimApp, register_bgp_events
from .apps.studies import cpu_correlation_study
from .core.knowledge import KnowledgeLibrary
from .core.rulespec import RuleSpecError, SpecCompiler
from .simulation import (
    backbone_probe_month,
    bgp_flap_storm,
    bgp_month,
    cdn_month,
    cpu_bgp_study,
    pim_fortnight,
)

_SCENARIOS = {
    "backbone-month": (backbone_probe_month, BackboneApp),
    "bgp-month": (bgp_month, BgpFlapApp),
    "bgp-storm": (bgp_flap_storm, BgpFlapApp),
    "cdn-month": (cdn_month, CdnApp),
    "pim-fortnight": (pim_fortnight, PimApp),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-grca",
        description="G-RCA reproduction: simulate, diagnose, mine, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_args(command):
        command.add_argument(
            "--backend", choices=["memory", "sqlite"], default=None,
            help="storage engine for the Data Collector tables "
                 "(default: memory)")
        command.add_argument(
            "--store-path", metavar="DIR", default=None,
            help="with --backend sqlite: directory for the per-table "
                 "database files (default: a temporary directory)")

    diagnose = sub.add_parser("diagnose", help="simulate + diagnose a scenario")
    diagnose.add_argument("scenario", choices=sorted(_SCENARIOS))
    add_backend_args(diagnose)
    diagnose.add_argument("--seed", type=int, default=1)
    diagnose.add_argument("--size", type=int, default=300,
                          help="number of symptom events to inject")
    diagnose.add_argument("--trend", action="store_true",
                          help="also print the per-day cause trend")
    diagnose.add_argument("--report", metavar="FILE",
                          help="write a markdown report to FILE")
    diagnose.add_argument("--feed-stats", action="store_true",
                          help="print per-feed ingest health statistics")
    diagnose.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="diagnose with N parallel workers "
                               "(identical results to serial)")
    diagnose.add_argument("--trace", nargs="?", const="trace.json",
                          metavar="PATH",
                          help="record a span tree of the whole run and "
                               "write it as JSON to PATH (default "
                               "trace.json); forces serial diagnosis so "
                               "stage times nest under one root")

    mine = sub.add_parser("mine", help="run the Fig. 7 correlation study")
    mine.add_argument("--seed", type=int, default=1)
    mine.add_argument("--days", type=float, default=45.0)

    catalog = sub.add_parser("catalog", help="print the Knowledge Library")
    catalog.add_argument("what", choices=["events", "rules"])

    spec = sub.add_parser("spec", help="rule-specification utilities")
    spec_sub = spec.add_subparsers(dest="spec_command", required=True)
    check = spec_sub.add_parser("check", help="validate a spec file")
    check.add_argument("file")

    simulate = sub.add_parser("simulate", help="dump a scenario's raw feeds")
    simulate.add_argument("scenario", choices=sorted(_SCENARIOS))
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--size", type=int, default=100)
    simulate.add_argument("--out", required=True, help="output directory")
    add_backend_args(simulate)

    serve = sub.add_parser(
        "serve", help="run a scenario through the concurrent RCA service"
    )
    serve.add_argument("scenario", choices=sorted(_SCENARIOS))
    add_backend_args(serve)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument("--size", type=int, default=300,
                       help="number of symptom events to inject")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker threads in the diagnosis pool")
    serve.add_argument("--rounds", type=int, default=8,
                       help="periodic scheduler rounds over the scenario span")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="job queue admission-control limit")
    serve.add_argument("--repeat", action="store_true",
                       help="re-run the full window afterwards to "
                            "exercise the result cache")
    serve.add_argument("--deadline", type=float, default=None,
                       help="per-job deadline in seconds (jobs past it "
                            "finish TIMED_OUT; default unbounded)")
    serve.add_argument("--no-supervise", action="store_true",
                       help="disable the worker supervisor (crash "
                            "recovery, hang detachment, brownout)")
    serve.add_argument("--retries", type=int, default=3,
                       help="attempts per job for transient failures "
                            "(1 disables retries)")

    api = sub.add_parser(
        "api", help="expose a scenario's RCA service over the HTTP gateway"
    )
    api.add_argument("scenario", choices=sorted(_SCENARIOS))
    add_backend_args(api)
    api.add_argument("--seed", type=int, default=1)
    api.add_argument("--size", type=int, default=300,
                     help="number of symptom events to inject")
    api.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    api.add_argument("--port", type=int, default=8080,
                     help="bind port; 0 picks an ephemeral port")
    api.add_argument("--shards", type=int, default=2,
                     help="independent RCA service shards behind the gateway")
    api.add_argument("--workers", type=int, default=2,
                     help="worker threads per shard")
    api.add_argument("--queue-depth", type=int, default=256,
                     help="per-shard job queue admission-control limit")
    api.add_argument("--deadline", type=float, default=None,
                     help="per-job deadline in seconds (default unbounded)")
    api.add_argument("--incident-gap", type=float, default=3600.0,
                     metavar="SECONDS",
                     help="incident dedupe window behind GET /v1/incidents "
                          "(default 3600)")

    incidents = sub.add_parser(
        "incidents",
        help="aggregate a scenario's diagnoses into deduplicated "
             "incidents (list / show / report / top)",
    )
    incidents_sub = incidents.add_subparsers(
        dest="incidents_command", required=True
    )

    def add_incident_args(command):
        command.add_argument("scenario", choices=sorted(_SCENARIOS))
        add_backend_args(command)
        command.add_argument("--seed", type=int, default=1)
        command.add_argument("--size", type=int, default=300,
                             help="number of symptom events to inject")
        command.add_argument("--gap", type=float, default=3600.0,
                             metavar="SECONDS",
                             help="dedupe window: a repeat symptom within "
                                  "GAP of an incident's last activity "
                                  "folds in (default 3600)")

    inc_list = incidents_sub.add_parser(
        "list", help="one line per deduplicated incident"
    )
    add_incident_args(inc_list)
    inc_list.add_argument("--cause", default=None,
                          help="only incidents with this root cause")
    inc_list.add_argument("--flapping", action="store_true",
                          help="only incidents with flap count > 1")

    inc_show = incidents_sub.add_parser(
        "show", help="one incident as grca-incident/1 JSON"
    )
    add_incident_args(inc_show)
    inc_show.add_argument("incident_id",
                          help="incident id from `incidents list`")
    inc_show.add_argument("--timeline", action="store_true",
                          help="print the revision timeline instead of "
                               "the latest document")

    inc_report = incidents_sub.add_parser(
        "report", help="standardized sectioned RCA report (markdown)"
    )
    add_incident_args(inc_report)
    inc_report.add_argument("--id", dest="incident_id", default=None,
                            help="incident to report on (default: most "
                                 "flapping)")
    inc_report.add_argument("--out", metavar="FILE", default=None,
                            help="write the report to FILE instead of "
                                 "stdout")
    inc_report.add_argument("--json", action="store_true",
                            help="emit the grca-incident/1 JSON document "
                                 "instead of markdown")

    inc_top = incidents_sub.add_parser(
        "top", help="top offender locations + cause breakdown over time"
    )
    add_incident_args(inc_top)
    inc_top.add_argument("--limit", type=int, default=10,
                         help="offender rows to print (default 10)")

    evaluate = sub.add_parser(
        "eval",
        help="run scored evaluation scenarios (accuracy/coverage/"
             "localization/honesty vs injected ground truth)",
    )
    evaluate.add_argument("names", nargs="*", metavar="SCENARIO",
                          help="registered scenario names to run "
                               "(see --list)")
    evaluate.add_argument("--list", action="store_true", dest="list_scenarios",
                          help="list the registered scenarios and exit")
    evaluate.add_argument("--matrix", action="store_true",
                          help="run the full registry (or --only subset) "
                               "and write the matrix artifact")
    evaluate.add_argument("--only", action="append", metavar="NAME",
                          help="with --matrix: restrict to NAME "
                               "(repeatable)")
    evaluate.add_argument("--gate", action="store_true",
                          help="exit 1 if any gated scenario misses its "
                               "thresholds")
    evaluate.add_argument("--out", metavar="FILE", default=None,
                          help="matrix artifact path (default "
                               "BENCH_scenarios.json with --matrix)")
    evaluate.add_argument("--no-timing", action="store_true",
                          help="omit wall-clock timing from the artifact "
                               "(byte-stable output)")
    evaluate.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                          help="compare two matrix artifact files and "
                               "exit 1 on regressions")
    return parser


def _apply_backend(args) -> None:
    """Make ``--backend`` the process default before scenarios build.

    Scenario simulators construct their own :class:`DataCollector`
    internally, so the swap has to be config-only: set the default and
    every store created afterwards uses the chosen engine.
    """
    backend = getattr(args, "backend", None)
    if backend is None:
        return
    from .collector.backends import set_default_backend, sqlite_backend

    if backend == "sqlite":
        set_default_backend(
            sqlite_backend(directory=getattr(args, "store_path", None))
        )
    else:
        set_default_backend(backend)


def _run_scenario(name: str, seed: int, size: int):
    scenario, app_cls = _SCENARIOS[name]
    kwargs = {"seed": seed}
    size_kwarg = {
        "backbone-month": "total_losses",
        "bgp-month": "total_flaps",
        "bgp-storm": "total_flaps",
        "cdn-month": "total_degradations",
        "pim-fortnight": "total_changes",
    }[name]
    kwargs[size_kwarg] = size
    result = scenario(**kwargs)
    return result, app_cls


def _traced_run(app, result, scenario: str):
    """Serial whole-run diagnosis under one ``run`` root span.

    Returns ``(browser, root_span)``.  Used by ``diagnose --trace``:
    every symptom's ``diagnose`` subtree nests under the one root, so
    per-stage exclusive times sum to at most the root duration.
    """
    from .core.browser import ResultBrowser
    from .obs import Tracer

    tracer = Tracer()
    with tracer.span("run", label=scenario, scenario=scenario) as root:
        symptoms = app.find_symptoms(result.start, result.end, tracer)
        diagnoses = app.engine.diagnose_all(symptoms, tracer=tracer)
        root.annotate(symptoms=len(symptoms))
    return ResultBrowser(diagnoses), root


def _cmd_diagnose(args) -> int:
    result, app_cls = _run_scenario(args.scenario, args.seed, args.size)
    app = app_cls.build(result.platform())
    root = None
    if args.trace is not None:
        if args.jobs > 1:
            print("note: --trace forces serial diagnosis; --jobs ignored",
                  file=sys.stderr)
        browser, root = _traced_run(app, result, args.scenario)
    else:
        browser = app.run(result.start, result.end, jobs=max(1, args.jobs))
    print(f"scenario {args.scenario}: {len(browser)} symptoms diagnosed "
          f"({result.collector.store.total_records()} records ingested)\n")
    print(browser.format_breakdown())
    print(f"\nexplained: {100 * browser.explained_fraction():.1f}%")
    degraded = browser.degraded()
    if len(degraded):
        print(f"degraded evidence: {len(degraded)} diagnoses carry caveats "
              f"(mean confidence {degraded.mean_confidence():.2f})")
        for row in degraded.breakdown(annotated=True):
            print(f"  {row.root_cause}: {row.count}")
    if args.feed_stats:
        print()
        for line in result.collector.feed_stats_lines():
            print(line)
    if args.trend:
        print("\nper-day trend:")
        print(browser.format_trend())
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(browser.report(f"G-RCA report: {args.scenario}"))
        print(f"report written to {args.report}")
    if root is not None:
        from .obs import (
            format_stage_lines,
            stage_breakdown,
            summarize_stages,
            write_trace,
        )

        write_trace(args.trace, root)
        print(f"\ntrace written to {args.trace} "
              f"(root span covers {root.duration * 1000:.1f} ms)")
        summary = summarize_stages([stage_breakdown(root)])
        for line in format_stage_lines(summary):
            print(line)
    return 0


def _cmd_mine(args) -> int:
    result = cpu_bgp_study(seed=args.seed, duration_days=args.days)
    app = BgpFlapApp.build(result.platform())
    diagnoses = app.engine.diagnose_all(app.find_symptoms(result.start, result.end))
    study = cpu_correlation_study(app, diagnoses, result.start, result.end)
    print(f"flaps: {study.n_all_flaps}; CPU-related subset: {study.n_cpu_related}; "
          f"candidate series: {study.n_candidates}\n")
    print("significant associations, prefiltered CPU-related flaps:")
    for mined in study.significant_prefiltered():
        print(f"  {mined}")
    print("\nsignificant associations, all flaps:")
    for mined in study.significant_unfiltered():
        print(f"  {mined}")
    pre = study.prefiltered_result("provisioning.port_turnup")
    unf = study.unfiltered_result("provisioning.port_turnup")
    if pre and unf:
        print(f"\nprovisioning activity: prefiltered score {pre.score:.1f} "
              f"({'significant' if pre.significant else 'not significant'}), "
              f"unfiltered score {unf.score:.1f} "
              f"({'significant' if unf.significant else 'not significant'})")
    return 0


def _cmd_catalog(args) -> int:
    kb = KnowledgeLibrary()
    if args.what == "events":
        width = max(len(n) for n in kb.events.names())
        for name in kb.events.names():
            definition = kb.events.get(name)
            print(f"{name:<{width}}  {definition.location_type.value:<20} "
                  f"{definition.data_source}")
        print(f"\n{len(kb.events.names())} event definitions")
    else:
        pairs = kb.rules.pairs()
        width = max(len(s) for s, _ in pairs)
        for symptom, diagnostic in pairs:
            print(f"{symptom:<{width}}  ->  {diagnostic}")
        print(f"\n{len(pairs)} diagnosis rule templates")
    return 0


def _cmd_spec_check(args) -> int:
    kb = KnowledgeLibrary()
    events = kb.scoped_events()
    register_bgp_events(events)  # make the stock app events available too
    try:
        with open(args.file) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    compiler = SpecCompiler(events, kb.rules)
    try:
        graph = compiler.compile_text(text)
    except RuleSpecError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        return 1
    print(f"{args.file}: OK — application {graph.name!r}, "
          f"symptom {graph.symptom_event!r}, {len(graph.all_rules())} rules, "
          f"{len(graph.events())} events")
    return 0


def _cmd_simulate(args) -> int:
    result, _app_cls = _run_scenario(args.scenario, args.seed, args.size)
    os.makedirs(args.out, exist_ok=True)
    # re-render is not possible post-ingest; dump the normalized tables
    total = 0
    for name, table in sorted(result.collector.store.tables.items()):
        path = os.path.join(args.out, f"{name}.tsv")
        with open(path, "w") as handle:
            for record in table.scan():
                fields = "\t".join(
                    f"{key}={value}" for key, value in record.fields
                )
                handle.write(f"{record.timestamp}\t{fields}\n")
                total += 1
        print(f"wrote {path} ({len(table)} records)")
    print(f"{total} records across {len(result.collector.store.tables)} sources; "
          f"{len(result.ground_truth)} ground-truth symptoms")
    return 0


def _cmd_serve(args) -> int:
    from .core.browser import ResultBrowser

    result, app_cls = _run_scenario(args.scenario, args.seed, args.size)
    platform = result.platform()
    app = app_cls.build(platform)
    from .resilience import RetryPolicy

    service = platform.serve(
        {args.scenario: app},
        workers=max(1, args.workers),
        queue_depth=args.queue_depth,
        default_deadline=args.deadline,
        supervise=not args.no_supervise,
        retry=RetryPolicy(max_attempts=max(1, args.retries)),
    )
    rounds = max(1, args.rounds)
    interval = (result.end - result.start) / rounds
    service.schedule_periodic(
        args.scenario, interval, first_due=result.start + interval
    )
    # drive the scheduler with the data clock, one round at a time —
    # the shape of a live deployment, compressed to the scenario span
    jobs = []
    for k in range(rounds):
        jobs.extend(service.tick(result.start + (k + 1) * interval))
    service.drain(timeout=600.0)
    from .service.policy import OperationCancelled

    diagnoses = []
    for job in jobs:
        try:
            diagnoses.extend(job.outcome(timeout=60.0))
        except OperationCancelled as exc:
            # deadline-bounded runs: a timed-out round is reported, the
            # remaining rounds still land
            print(f"job {job.job_id} {job.state.value}: {exc}")
    browser = ResultBrowser(diagnoses)
    print(f"scenario {args.scenario}: {len(browser)} symptoms diagnosed by "
          f"{args.workers} workers over {rounds} scheduled rounds\n")
    print(browser.format_breakdown())
    print(f"\nexplained: {100 * browser.explained_fraction():.1f}%")
    if args.repeat:
        repeat = service.submit_run(
            args.scenario, result.start, result.end, block=True
        )
        repeat.outcome(timeout=600.0)
        print("\nrepeat of the full window served from the result cache:")
    print()
    for line in service.metrics_lines():
        print(line)
    service.shutdown(graceful=True)
    return 0


def _cmd_api(args) -> int:
    import time

    from .service.http import RcaGateway

    result, app_cls = _run_scenario(args.scenario, args.seed, args.size)
    platform = result.platform()
    app = app_cls.build(platform)
    router = platform.serve_sharded(
        {args.scenario: app},
        shards=max(1, args.shards),
        workers=max(1, args.workers),
        queue_depth=args.queue_depth,
        default_deadline=args.deadline,
        incidents=True,
        incident_gap=args.incident_gap,
    )
    gateway = RcaGateway(router, host=args.host, port=args.port).start()
    # the URL line is a contract: the CI smoke test (and any wrapper
    # script) parses it to find the ephemeral port
    print(f"RCA gateway listening on {gateway.url} "
          f"({len(router)} shards x {max(1, args.workers)} workers, "
          f"app {args.scenario!r}, window "
          f"[{result.start:.0f}, {result.end:.0f}])",
          flush=True)
    print(f"  try: curl {gateway.url}/v1/health", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down", flush=True)
    finally:
        gateway.stop()
    return 0


def _build_incident_store(args):
    """Diagnose the scenario and fold the stream into an IncidentStore."""
    from .incident import IncidentAggregator, IncidentStore

    result, app_cls = _run_scenario(args.scenario, args.seed, args.size)
    app = app_cls.build(result.platform())
    browser = app.run(result.start, result.end)
    if getattr(args, "backend", None) == "sqlite" and args.store_path:
        store = IncidentStore.sqlite(args.store_path)
    else:
        store = IncidentStore()
    aggregator = IncidentAggregator(gap_seconds=args.gap, sink=store.record)
    for diagnosis in browser.diagnoses:
        aggregator.observe(diagnosis)
    aggregator.advance(result.end + args.gap + 1.0)
    return store, aggregator, len(browser)


def _cmd_incidents(args) -> int:
    import json

    from .incident import render_incident_report, render_incident_summary

    store, aggregator, n_diagnoses = _build_incident_store(args)

    if args.incidents_command == "list":
        incidents = store.incidents(cause=args.cause)
        if args.flapping:
            incidents = [i for i in incidents if i.flap_count > 1]
        stats = aggregator.stats()
        print(f"scenario {args.scenario}: {n_diagnoses} diagnoses -> "
              f"{stats['incidents']} incidents "
              f"(gap {args.gap:.0f}s, "
              f"{stats['deduped_reemissions']} re-emissions deduped)\n")
        print(render_incident_summary(incidents))
        return 0

    if args.incidents_command == "show":
        try:
            if args.timeline:
                document = store.timeline_documents(args.incident_id)
            else:
                document = store.document(args.incident_id)
        except KeyError:
            print(f"error: unknown incident {args.incident_id!r} "
                  f"(see `incidents list`)", file=sys.stderr)
            return 1
        print(json.dumps(document, indent=2, sort_keys=True,
                         allow_nan=False))
        return 0

    if args.incidents_command == "report":
        incidents = store.incidents()
        if not incidents:
            print("error: the scenario produced no incidents",
                  file=sys.stderr)
            return 1
        if args.incident_id is not None:
            try:
                incident = store.get(args.incident_id)
            except KeyError:
                print(f"error: unknown incident {args.incident_id!r} "
                      f"(see `incidents list`)", file=sys.stderr)
                return 1
        else:
            incident = max(
                incidents,
                key=lambda i: (i.flap_count, i.duration, i.incident_id),
            )
        if args.json:
            text = json.dumps(store.document(incident.incident_id), indent=2,
                              sort_keys=True, allow_nan=False) + "\n"
        else:
            text = render_incident_report(incident, related=incidents)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(text)
            print(f"report written to {args.out}")
        else:
            print(text, end="")
        return 0

    # top: offender locations, then the cause distribution over time
    offenders = store.top_offenders(limit=args.limit)
    print(f"scenario {args.scenario}: top {len(offenders)} offender "
          f"location(s) across {len(store)} incidents\n")
    width = max([len("Location")] + [len(r["location"]) for r in offenders])
    print(f"{'Location':<{width}}  Incidents  Flaps  Causes")
    for row in offenders:
        print(f"{row['location']:<{width}}  {row['incidents']:>9}  "
              f"{row['flaps']:>5}  {', '.join(row['causes'])}")
    print("\nroot-cause distribution (incidents per day):")
    for cause, buckets in store.breakdown().items():
        total = sum(count for _bucket, count in buckets)
        days = len(buckets)
        print(f"  {cause}: {total} incident(s) over {days} day(s)")
    return 0


def _cmd_eval(args) -> int:
    from .eval import (
        MatrixGateFailure,
        diff_matrices,
        ensure_gate,
        format_diff_lines,
        get_scenario,
        load_matrix,
        run_matrix,
        scenario_names,
        write_matrix,
    )

    if args.diff:
        try:
            old, new = (load_matrix(path) for path in args.diff)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rows = diff_matrices(old, new)
        for line in format_diff_lines(rows):
            print(line)
        regressed = [row for row in rows if row["status"] == "regressed"]
        if regressed:
            print(f"\n{len(regressed)} scenario(s) regressed")
            return 1
        return 0

    if args.list_scenarios:
        for name in scenario_names():
            print(get_scenario(name).describe())
        return 0

    if args.matrix:
        names = args.only or None
    elif args.names:
        names = args.names
    else:
        print("error: name at least one scenario, or use --matrix / --list",
              file=sys.stderr)
        return 2
    try:
        if names:
            for name in names:
                get_scenario(name)  # fail fast with the known-name list
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    results = run_matrix(
        names=names, progress=lambda line: print(line, flush=True)
    )
    for result in results:
        print()
        for line in result.format_lines():
            print(line)

    if args.matrix or args.out:
        out = args.out or "BENCH_scenarios.json"
        document = write_matrix(out, results,
                                include_timing=not args.no_timing)
        summary = document["summary"]
        print(f"\nmatrix artifact written to {out} "
              f"({summary['count']} scenarios, composite mean "
              f"{summary['composite_mean']:.2f})")

    if args.gate:
        try:
            ensure_gate(results)
        except MatrixGateFailure as exc:
            print("\nGATE FAILED:", file=sys.stderr)
            for failure in exc.failures:
                print(f"  {failure}", file=sys.stderr)
            return 1
        gated = [r for r in results if r.gate]
        print(f"\ngate passed ({len(gated)} gated scenarios)")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    _apply_backend(args)
    if args.command == "diagnose":
        return _cmd_diagnose(args)
    if args.command == "mine":
        return _cmd_mine(args)
    if args.command == "catalog":
        return _cmd_catalog(args)
    if args.command == "spec":
        return _cmd_spec_check(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "api":
        return _cmd_api(args)
    if args.command == "incidents":
        return _cmd_incidents(args)
    if args.command == "eval":
        return _cmd_eval(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
