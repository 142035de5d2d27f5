"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``campaign`` — run a measurement campaign, persist the collected store,
  and write the rendered report (``--archive`` makes it checkpointed and
  ``--resume`` continues a killed run byte-identically; ``--scenario``
  runs a registered scenario pack and reports measurement bias instead);
- ``scenarios`` — list the registered scenario packs;
- ``analyze`` — re-analyze an archive database offline (a JSONL store
  directory enters through ``archive import-jsonl``);
- ``archive`` — maintain an archive database (import/export/stats/vacuum);
- ``query`` — run indexed queries and aggregations against an archive;
- ``serve`` — simulate a world and serve its Jito Explorer over HTTP (the
  *data source* a collector scrapes; for serving measurement *results*,
  see ``api``);
- ``api`` — serve a campaign archive's detections, financial aggregates,
  and integrity status over the versioned ``/v1/`` read API;
- ``scrape`` — collect from a running explorer over HTTP;
- ``chaos`` — run a fault-injected chaos campaign; every output file is a
  pure function of ``--seed`` and ``--plan``, so two identical invocations
  produce byte-identical fault logs and reports;
- ``metrics`` — render a saved metrics snapshot (table/Prometheus/JSON);
- ``selftest`` — run the conformance battery (golden corpus, differential
  oracle, metamorphic invariants) against fixed seeds; ``--bless``
  regenerates the golden corpus explicitly;
- ``table1`` — print the worked example sandwich.

All progress and result output flows through the structured event log
(:mod:`repro.obs.events`): the console sinks print bare messages, so the
terminal UX matches the historical ``print`` output, while ``--log-jsonl``
captures the same events as machine-readable records.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import AnalysisPipeline, MeasurementCampaign
from repro.analysis import build_table1
from repro.analysis.report import render_campaign_report
from repro.collector import (
    BundlePoller,
    BundleStore,
    CoverageEstimator,
    HttpExplorerClient,
    TxDetailFetcher,
)
from repro.collector.poller import PollerConfig
from repro.errors import ConfigError, ReproError
from repro.obs import (
    ConsoleSink,
    EventLog,
    JsonlSink,
    MetricsRegistry,
    load_snapshot,
    render_prometheus,
    render_summary,
    save_snapshot,
)
from repro.simulation import SimulationEngine, paper_scenario, small_scenario
from repro.utils.serialization import write_jsonl


def _build_logs(args: argparse.Namespace) -> tuple[EventLog, EventLog]:
    """The CLI's two event logs: diagnostics (stderr) and results (stdout).

    Both share an optional JSONL sink (``--log-jsonl``) so one file carries
    the full structured record of a run.
    """
    progress = EventLog(sinks=[ConsoleSink(stream=sys.stderr)])
    output = EventLog(sinks=[ConsoleSink(stream=sys.stdout)])
    log_path = getattr(args, "log_jsonl", None)
    if log_path:
        jsonl = JsonlSink(log_path)
        progress.add_sink(jsonl)
        output.add_sink(jsonl)
    return progress, output


def _add_log_options(
    parser: argparse.ArgumentParser, metrics_of: str | None = None
) -> None:
    """Add ``--log-jsonl`` and, when ``metrics_of`` names whose metrics a
    snapshot would hold, ``--metrics-out``."""
    if metrics_of is not None:
        parser.add_argument(
            "--metrics-out",
            default=None,
            help=f"write the {metrics_of}'s metrics snapshot (JSON) to this "
            "path",
        )
    parser.add_argument(
        "--log-jsonl",
        default=None,
        help="also append structured events to this JSONL file",
    )


def _save_metrics(
    args: argparse.Namespace,
    metrics: MetricsRegistry,
    progress: EventLog,
    event: str,
) -> None:
    """Write the ``--metrics-out`` snapshot, if one was asked for."""
    if args.metrics_out:
        save_snapshot(metrics, args.metrics_out)
        progress.info(
            event,
            f"wrote metrics snapshot to {args.metrics_out}",
            path=str(args.metrics_out),
        )


def _existing_archive(path: str | Path) -> Path:
    """``path`` if it names an existing archive database, else refuse.

    Checked before any open: opening a missing path as SQLite would
    silently create an empty archive and report on zero rows.
    """
    from repro.archive.database import is_archive_path

    path = Path(path)
    if not path.exists():
        reason = "it does not exist"
    elif not is_archive_path(path):
        reason = "expected a SQLite file such as archive.db"
    else:
        return path
    raise ConfigError(
        f"{path} is not an archive database ({reason}); build one with "
        "'repro campaign --archive FILE', or load a JSONL store directory "
        "with 'repro archive import-jsonl --store DIR --db FILE'"
    )


def _scenario_from_args(args: argparse.Namespace):
    """The ``--small``/``--days``/``--seed`` scenario, validated, so a bad
    value is refused before anything runs or prints."""
    # ``campaign`` leaves --seed at None so pack runs can distinguish "use
    # the pack's own base seed" from an explicit override; plain campaigns
    # keep the historical 2025 default.
    seed = args.seed if args.seed is not None else 2025
    if args.small:
        scenario = small_scenario(
            seed=seed, days=5 if args.days is None else args.days
        )
    else:
        scenario = paper_scenario(
            seed=seed, days=120 if args.days is None else args.days
        )
    scenario.validate()
    return scenario


def _export_figure_csvs(result, report, out: Path) -> None:
    """Best-effort CSV export of every buildable figure."""
    from repro.analysis import (
        build_figure1,
        build_figure2,
        build_figure3,
        build_figure4,
    )
    from repro.analysis.export import (
        export_figure1,
        export_figure2,
        export_figure3,
        export_figure4,
    )
    from repro.errors import ConfigError

    export_figure1(build_figure1(result), out / "figure1.csv")
    export_figure2(build_figure2(result, report), out / "figure2.csv")
    try:
        export_figure3(build_figure3(report), out / "figure3.csv")
        export_figure4(build_figure4(result, report), out / "figure4.csv")
    except ConfigError:
        pass  # tiny runs may lack priced sandwiches


def _run_scenario_pack(args: argparse.Namespace) -> int:
    """``campaign --scenario <pack>``: run one scenario-pack campaign."""
    from repro.scenarios import get_pack, run_pack_campaign

    progress, output = _build_logs(args)
    pack = get_pack(args.scenario)
    out = Path(args.out)
    seed = args.seed if args.seed is not None else pack.base.seed
    progress.info(
        "cli.campaign",
        f"running scenario pack {pack.name} ({pack.kind}, seed {seed})...",
        pack=pack.name,
        seed=seed,
    )
    evaluation = run_pack_campaign(pack, out, seed=args.seed)
    from repro.scenarios.campaign import pack_summary

    summary = pack_summary(evaluation)
    output.info(
        "cli.campaign", json.dumps(summary["totals"], indent=2), **summary["totals"]
    )
    output.info("cli.campaign", evaluation.bias.render())
    output.info(
        "cli.campaign",
        f"wrote {out}/truth.db, observed.db, report.txt, summary.json",
        out=str(out),
    )
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a campaign; write store + report + summary under --out."""
    if args.checkpoint_every < 1:
        raise ConfigError(
            f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
        )
    if getattr(args, "scenario", None):
        if args.stream or args.resume or args.archive:
            raise ConfigError(
                "--scenario runs a self-contained pack campaign; it "
                "cannot combine with --stream/--resume/--archive"
            )
        return _run_scenario_pack(args)
    if args.stream and args.resume:
        raise ConfigError(
            "--stream cannot resume a checkpointed campaign; finish "
            "the batch resume first or start a fresh streaming run"
        )
    if args.resume and not args.archive:
        raise ConfigError(
            "--resume requires --archive (the database holding the "
            "campaign's checkpoints)"
        )
    progress, output = _build_logs(args)
    scenario = _scenario_from_args(args)
    out = Path(args.out)
    progress.info(
        "cli.campaign",
        f"running {scenario.days}-day campaign "
        f"(seed {scenario.seed}, ~{scenario.expected_bundles_per_day():.0f} "
        "bundles/day)...",
        days=scenario.days,
        seed=scenario.seed,
    )
    started = time.time()
    checkpointed = None
    streaming = None
    if args.stream:
        from repro.stream import StreamingCampaign

        # One registry shared by collection, the archive writer, and the
        # streaming detector, so the report's pipeline-health section sees
        # the whole run (store dedup, archive flushes, stream_* series).
        stream_metrics = MetricsRegistry()
        stream_store = None
        if args.archive:
            from repro.archive import ArchiveBundleStore

            stream_store = ArchiveBundleStore(
                args.archive, metrics=stream_metrics
            )
        streaming = StreamingCampaign(
            scenario, metrics=stream_metrics, store=stream_store
        )
        result, report = streaming.run()
        progress.info(
            "cli.campaign",
            f"streaming report ready: "
            f"{streaming.builder.candidates_judged} candidates judged "
            f"across {streaming.builder.deltas_applied} deltas",
            candidates_judged=streaming.builder.candidates_judged,
            deltas=streaming.builder.deltas_applied,
        )
    elif args.archive:
        from repro.archive import CheckpointedCampaign

        if args.resume:
            checkpointed = CheckpointedCampaign.resume(
                scenario,
                args.archive,
                checkpoint_every_days=args.checkpoint_every,
            )
            progress.info(
                "cli.campaign",
                f"resuming from checkpoint: day {checkpointed.start_day} "
                f"of {scenario.days}",
                start_day=checkpointed.start_day,
            )
        else:
            checkpointed = CheckpointedCampaign(
                scenario,
                args.archive,
                checkpoint_every_days=args.checkpoint_every,
            )
        result = checkpointed.run()
    else:
        result = MeasurementCampaign(scenario).run()
    if streaming is None:
        report = AnalysisPipeline().analyze_campaign(result)
    elapsed = time.time() - started

    out.mkdir(parents=True, exist_ok=True)
    result.store.save(out)
    (out / "report.txt").write_text(
        render_campaign_report(result, report, scenario) + "\n"
    )
    _export_figure_csvs(result, report, out)
    summary = {
        "elapsed_seconds": round(elapsed, 2),
        "collection": result.summary(),
        "sandwiches": report.sandwich_count,
        "victim_loss_usd": report.headline.victim_loss_usd,
        "attacker_gain_usd": report.headline.attacker_gain_usd,
        "defensive_bundles": report.headline.defensive_bundles,
        "defensive_spend_usd": report.headline.defensive_spend_usd,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    if checkpointed is not None:
        checkpointed.store.close()
        progress.info(
            "cli.campaign",
            f"archive committed at {args.archive}",
            archive=str(args.archive),
        )
    if streaming is not None and args.archive:
        streaming.campaign.store.close()
        progress.info(
            "cli.campaign",
            f"archive committed at {args.archive}",
            archive=str(args.archive),
        )
    _save_metrics(args, result.metrics, progress, "cli.campaign")
    output.info("cli.campaign", json.dumps(summary, indent=2), **summary)
    output.info(
        "cli.campaign",
        f"wrote {out}/bundles.jsonl, transactions.jsonl, report.txt",
        out=str(out),
    )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a fault-injected campaign; all outputs are seed-deterministic.

    Unlike ``campaign``, the summary deliberately carries no wall-clock
    timing: ``diff -r`` between two runs of the same seed and plan must
    come back clean, which is how CI verifies chaos replayability.
    """
    from repro.analysis.integrity import build_collection_integrity
    from repro.collector.detail_fetcher import DetailFetcherConfig
    from repro.faults import load_plan

    progress, output = _build_logs(args)
    scenario = _scenario_from_args(args)
    plan = load_plan(args.plan)
    out = Path(args.out)
    progress.info(
        "cli.chaos",
        f"running {scenario.days}-day chaos campaign "
        f"(seed {scenario.seed}, plan {plan.name!r})...",
        days=scenario.days,
        seed=scenario.seed,
        plan=plan.name,
    )
    campaign = MeasurementCampaign(
        scenario,
        # Chaos runs get in-cycle retries so a batch survives transient
        # storms; the paper-faithful default (retry next slot) stays the
        # plain campaign's behavior.
        fetcher_config=DetailFetcherConfig(max_retries=2),
        fault_plan=plan,
    )
    result = campaign.run()
    report = AnalysisPipeline().analyze_campaign(result)
    integrity = build_collection_integrity(result)
    assert result.faults is not None  # fault_plan was passed

    out.mkdir(parents=True, exist_ok=True)
    (out / "plan.json").write_text(plan.dumps())
    write_jsonl(out / "fault_log.jsonl", result.faults.fault_log_json())
    (out / "report.txt").write_text(
        render_campaign_report(result, report, scenario) + "\n"
    )
    summary = {
        "plan": plan.name,
        "plan_fingerprint": plan.fingerprint(),
        "seed": scenario.seed,
        "days": scenario.days,
        "requests_intercepted": result.faults.requests_seen,
        "faults_injected": result.faults.counts_by_kind(),
        "coverage_gaps": len(integrity.gaps),
        "gap_seconds": integrity.gap_seconds,
        "collection": result.summary(),
        "sandwiches": report.sandwich_count,
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    output.info(
        "cli.chaos",
        json.dumps(summary, indent=2, sort_keys=True),
        plan=plan.name,
        seed=scenario.seed,
        sandwiches=report.sandwich_count,
    )
    output.info(
        "cli.chaos",
        f"wrote {out}/plan.json, fault_log.jsonl, report.txt, summary.json",
        out=str(out),
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Re-analyze an archive database (no simulation).

    ``--store`` names an archive database file (``archive.db``); a JSONL
    store directory enters analysis through ``repro archive import-jsonl``.
    ``--incremental`` re-detects only rows newer than the last analyzed
    watermark.
    """
    from repro.archive import ArchiveDatabase, IncrementalAnalyzer
    from repro.core import DetectorSpec
    from repro.parallel import ParallelAnalysisEngine, default_jobs

    _progress, output = _build_logs(args)
    emit = lambda message, **fields: output.info(  # noqa: E731
        "cli.analyze", message, **fields
    )
    store_path = _existing_archive(args.store)
    # Validated before the archive is opened: a writable open migrates it.
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {args.jobs}")
    if args.chunk_size < 1:
        raise ConfigError(f"chunk_size must be >= 1, got {args.chunk_size}")
    jobs = args.jobs if args.jobs is not None else default_jobs()
    spec = DetectorSpec(
        kind="windowed" if args.windowed else "standard",
        threshold_lamports=args.threshold,
    )
    with ArchiveDatabase(store_path) as database:
        if args.incremental:
            analyzer = IncrementalAnalyzer(
                database,
                jobs=jobs,
                chunk_size=args.chunk_size,
                spec=spec,
                engine=args.engine,
            )
            outcome = analyzer.analyze()
            report = outcome.report
            if outcome.no_op:
                emit(
                    "incremental pass:   no new rows past the watermark; "
                    "archive left untouched (no-op)",
                    no_op=True,
                )
            else:
                emit(
                    f"incremental pass:   {outcome.new_bundles} new "
                    f"bundles, {outcome.new_sandwiches} new sandwiches, "
                    f"{outcome.pending_detail_bundles} awaiting details "
                    f"({jobs} jobs)",
                    new_bundles=outcome.new_bundles,
                    new_sandwiches=outcome.new_sandwiches,
                    jobs=jobs,
                )
            profile = analyzer.stage_profile
        else:
            engine = ParallelAnalysisEngine(
                database,
                jobs=jobs,
                chunk_size=args.chunk_size,
                spec=spec,
                engine=args.engine,
            )
            report = engine.analyze()
            profile = engine.stage_profile
    if args.profile:
        emit(
            "stage breakdown (wall-clock seconds per stage; under "
            "--jobs the workers' stages add up past elapsed time):",
            stage_profile=profile.as_dict(),
        )
        for line in profile.render_table().splitlines():
            emit("  " + line)
    headline = report.headline
    emit(
        f"bundles:            {headline.bundles_collected}",
        bundles=headline.bundles_collected,
    )
    emit(
        f"sandwiches:         {headline.sandwich_count}",
        sandwiches=headline.sandwich_count,
    )
    emit(f"  non-SOL fraction: {headline.non_sol_fraction():.1%}")
    emit(f"victim losses:      ${headline.victim_loss_usd:,.2f}")
    emit(f"attacker gains:     ${headline.attacker_gain_usd:,.2f}")
    if headline.median_victim_loss_usd is not None:
        emit(f"median loss:        ${headline.median_victim_loss_usd:.2f}")
    emit(
        f"defensive bundles:  {headline.defensive_bundles} "
        f"({headline.defensive_fraction_of_length_one:.1%} of length-1, "
        f"threshold {args.threshold:,} lamports)"
    )
    emit(f"defensive spend:    ${headline.defensive_spend_usd:,.4f}")
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    """Attach-mode streaming: replay an archive through the online analyzer.

    Reads an existing archive database in insertion (``seq``) order,
    folds it through the streaming detector, and prints the same
    headline figures as ``repro analyze`` — byte-identically, which
    ``--report-out`` makes checkable: it writes the canonical report JSON
    (the exact bytes the conformance oracle compares).
    """
    from repro.core import DetectorSpec
    from repro.parallel.merge import report_bytes
    from repro.stream import analyze_archive_stream

    progress, output = _build_logs(args)
    emit = lambda message, **fields: output.info(  # noqa: E731
        "cli.stream", message, **fields
    )
    db_path = _existing_archive(args.db)
    spec = DetectorSpec(
        kind="windowed" if args.windowed else "standard",
        threshold_lamports=args.threshold,
    )

    def on_delta(delta) -> None:
        if delta.verdicts or delta.final:
            progress.info(
                "cli.stream",
                f"delta: {delta.candidates_judged}/"
                f"{delta.candidates_registered} candidates judged, "
                f"{delta.sandwiches} sandwiches"
                + (" (final)" if delta.final else ""),
                judged=delta.candidates_judged,
                registered=delta.candidates_registered,
                sandwiches=delta.sandwiches,
                final=delta.final,
            )

    report = analyze_archive_stream(
        db_path,
        spec=spec,
        batch_bundles=args.batch_size,
        on_delta=on_delta,
    )
    if args.report_out:
        Path(args.report_out).write_bytes(report_bytes(report))
        progress.info(
            "cli.stream",
            f"wrote canonical report to {args.report_out}",
            path=str(args.report_out),
        )
    headline = report.headline
    emit(
        f"bundles:            {headline.bundles_collected}",
        bundles=headline.bundles_collected,
    )
    emit(
        f"sandwiches:         {headline.sandwich_count}",
        sandwiches=headline.sandwich_count,
    )
    emit(f"victim losses:      ${headline.victim_loss_usd:,.2f}")
    emit(f"attacker gains:     ${headline.attacker_gain_usd:,.2f}")
    emit(
        f"defensive bundles:  {headline.defensive_bundles} "
        f"(threshold {args.threshold:,} lamports)"
    )
    return 0


def cmd_archive(args: argparse.Namespace) -> int:
    """Archive maintenance: JSONL import/export, stats, vacuum."""
    from repro.archive import ArchiveBundleStore, ArchiveDatabase

    _progress, output = _build_logs(args)
    emit = lambda message, **fields: output.info(  # noqa: E731
        "cli.archive", message, **fields
    )
    if args.archive_command != "import-jsonl":
        _existing_archive(args.db)
    if args.archive_command == "stats":
        with ArchiveDatabase(args.db) as db:
            info = {
                "path": str(db.path),
                "schema_version": db.schema_version,
                "file_size_bytes": db.file_size_bytes(),
                "tables": db.table_counts(),
            }
            row = db.connection.execute(
                "SELECT checkpoint_id, completed_days, created_sim_time "
                "FROM checkpoints ORDER BY checkpoint_id DESC LIMIT 1"
            ).fetchone()
            if row is not None:
                info["latest_checkpoint"] = {
                    "checkpoint_id": row["checkpoint_id"],
                    "completed_days": row["completed_days"],
                    "created_sim_time": row["created_sim_time"],
                }
        emit(json.dumps(info, indent=2, sort_keys=True), **info["tables"])
        return 0
    if args.archive_command == "import-jsonl":
        store_dir = Path(args.store)
        if not (store_dir / "bundles.jsonl").is_file():
            raise ConfigError(
                f"{store_dir} is not a JSONL store directory "
                "(bundles.jsonl not found)"
            )
        source = BundleStore.load(store_dir)
        with ArchiveBundleStore(args.db) as archive:
            archive.add_bundles(list(source.bundles()))
            archive.add_details(list(source.details()))
            counts = archive.database.table_counts()
        emit(
            f"imported {len(source)} bundles, "
            f"{source.detail_count()} details into {args.db}",
            bundles=counts["bundles"],
            transactions=counts["transactions"],
        )
        return 0
    if args.archive_command == "export-jsonl":
        store = ArchiveBundleStore.resume(args.db)
        out = Path(args.out)
        store.save(out)
        store.database.close()
        emit(
            f"exported {len(store)} bundles, {store.detail_count()} "
            f"details to {out}/bundles.jsonl, transactions.jsonl",
            bundles=len(store),
            out=str(out),
        )
        return 0
    # vacuum
    with ArchiveDatabase(args.db) as db:
        before = db.file_size_bytes()
        db.checkpoint_wal()
        db.vacuum()
        after = db.file_size_bytes()
    emit(
        f"vacuumed {args.db}: {before} -> {after} bytes",
        before_bytes=before,
        after_bytes=after,
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """Indexed queries and aggregations against an archive database."""
    from repro.archive import (
        ArchiveDatabase,
        ArchiveQuery,
        BundleFilter,
        SandwichFilter,
    )
    from repro.explorer.wire import bundle_record_to_json

    _progress, output = _build_logs(args)
    emit = lambda message, **fields: output.info(  # noqa: E731
        "cli.query", message, **fields
    )
    with ArchiveDatabase(_existing_archive(args.db)) as db:
        query = ArchiveQuery(db)
        if args.query_command == "bundles":
            where = BundleFilter(
                slot_min=args.slot_min,
                slot_max=args.slot_max,
                length=args.length,
                tip_min=args.tip_min,
                tip_max=args.tip_max,
                date_from=args.date_from,
                date_to=args.date_to,
            )
            if args.count:
                emit(str(query.count_bundles(where)))
            else:
                for record in query.bundles(
                    where,
                    order_by=args.order_by,
                    descending=args.desc,
                    limit=args.limit,
                    offset=args.offset,
                ):
                    emit(
                        json.dumps(
                            bundle_record_to_json(record), sort_keys=True
                        )
                    )
        elif args.query_command == "sandwiches":
            where = SandwichFilter(
                attacker=args.attacker,
                victim=args.victim,
                slot_min=args.slot_min,
                slot_max=args.slot_max,
                date_from=args.date_from,
                date_to=args.date_to,
                priced_only=args.priced_only,
            )
            if args.count:
                emit(str(query.count_sandwiches(where)))
            else:
                for item in query.sandwiches(
                    where,
                    order_by=args.order_by,
                    descending=args.desc,
                    limit=args.limit,
                    offset=args.offset,
                ):
                    event = item.event
                    emit(
                        json.dumps(
                            {
                                "bundleId": event.bundle_id,
                                "slot": event.bundle.slot,
                                "landedAt": event.landed_at,
                                "tipLamports": event.tip_lamports,
                                "attacker": event.attacker,
                                "victim": event.victim,
                                "victimLossUsd": item.victim_loss_usd,
                                "attackerGainUsd": item.attacker_gain_usd,
                            },
                            sort_keys=True,
                        )
                    )
        elif args.query_command == "tips":
            emit(
                json.dumps(
                    query.tip_histogram(
                        bucket_lamports=args.bucket, length=args.length
                    ),
                    sort_keys=True,
                )
            )
        elif args.query_command == "lengths":
            emit(json.dumps(query.length_histogram(), sort_keys=True))
        elif args.query_command == "daily":
            emit(
                json.dumps(
                    {
                        "bundles": query.bundle_counts_by_day(),
                        "sandwiches": query.sandwiches_per_day(),
                    },
                    sort_keys=True,
                )
            )
        elif args.query_command == "attackers":
            emit(json.dumps(query.top_attackers(args.limit), sort_keys=True))
        else:  # defensive
            emit(json.dumps(query.defensive_summary(), sort_keys=True))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Simulate a world, then serve its explorer over HTTP until killed.

    This is the *data source* side of the pipeline — the simulated Jito
    Explorer a collector scrapes. Measurement *results* are served by
    ``repro api`` instead. The server exposes ``GET /metrics``, so the
    registry wired here is scrapeable for the lifetime of the process.

    The rate limit and the port are checked before the simulation, so a
    bad ``--rps`` or a taken port is refused at once. Once the world is
    simulated the explorer's clock follows the wall clock, so a client's
    rate budget refills while it waits.
    """
    from repro.explorer.http_server import explorer_handler
    from repro.explorer.service import ExplorerConfig, ExplorerService
    from repro.serve.runner import bind_server, wait_for_interrupt

    progress, output = _build_logs(args)
    scenario = _scenario_from_args(args)
    metrics = MetricsRegistry()
    engine = SimulationEngine(scenario, metrics=metrics)
    world = engine.world
    service = ExplorerService(
        world.block_engine,
        world.ledger,
        world.clock,
        config=ExplorerConfig(
            requests_per_second=args.rps, burst_capacity=max(args.rps * 5, 5)
        ),
        metrics=metrics,
    )
    with bind_server(args.host, args.port) as server:
        progress.info(
            "cli.serve",
            f"simulating {scenario.days} days...",
            days=scenario.days,
        )
        engine.run()
        metrics.set_time_fn(world.clock.now)
        dispatch = explorer_handler(service)
        simulated_until, started = world.clock.now(), time.monotonic()

        def handle(*request):
            world.clock.advance_to(
                simulated_until + time.monotonic() - started
            )
            return dispatch(*request)

        server.start(handle)
        wait_for_interrupt(
            lambda: output.info(
                "cli.serve",
                f"simulated explorer (data source) serving "
                f"{world.bundles_landed} bundles on "
                f"http://{args.host}:{server.port} (Ctrl-C to stop)",
                bundles=world.bundles_landed,
                port=server.port,
            )
        )
    return 0


def cmd_api(args: argparse.Namespace) -> int:
    """Serve a campaign archive's results over the ``/v1/`` read API.

    The counterpart to ``repro serve``: where that command serves the
    *simulated data source*, this one serves the *measurement results* —
    detections, financial aggregates, paper-figure series, and
    collection-integrity status — from an archive database, read-only.
    A collector or incremental analyzer may keep writing to the same
    archive; responses pick up new rows the moment the watermark moves.
    """
    from repro.serve import ApiConfig, ArchiveApiApp
    from repro.serve.runner import bind_server, wait_for_interrupt

    progress, output = _build_logs(args)
    db_path = _existing_archive(args.db)
    metrics = MetricsRegistry()
    config = ApiConfig(
        db_path=db_path,
        host=args.host,
        port=args.port,
        requests_per_second=args.rps,
        burst_capacity=(
            args.burst if args.burst is not None else max(args.rps * 4, 4)
        ),
        cache_entries=args.cache_entries,
    )
    app = ArchiveApiApp(config, metrics=metrics)
    with bind_server(config.host, config.port) as server:
        app.serve(server)
        wait_for_interrupt(
            lambda: output.info(
                "cli.api",
                f"archive api (results) serving {db_path} on "
                f"http://{args.host}:{server.port} (Ctrl-C to stop)",
                db=str(db_path),
                port=server.port,
            )
        )
    _save_metrics(args, metrics, progress, "cli.api")
    return 0


def cmd_scrape(args: argparse.Namespace) -> int:
    """Collect from a live explorer over HTTP, then persist the store."""
    progress, output = _build_logs(args)
    client = HttpExplorerClient(args.host, args.port)
    if not client.health():
        progress.error(
            "cli.scrape",
            f"no explorer at {args.host}:{args.port}",
            host=args.host,
            port=args.port,
        )
        return 1
    from repro.utils.simtime import SimClock

    clock = SimClock()
    metrics = MetricsRegistry(time_fn=clock.now)
    store = BundleStore(metrics=metrics)
    coverage = CoverageEstimator()
    poller = BundlePoller(
        client,
        store,
        coverage,
        clock,
        config=PollerConfig(window_limit=args.window),
        metrics=metrics,
    )
    for index in range(args.polls):
        result = poller.poll_once()
        output.info(
            "cli.scrape",
            f"poll {index + 1}/{args.polls}: {result.returned} returned, "
            f"{result.new_bundles} new, overlap={result.overlapped}",
            poll=index + 1,
            returned=result.returned,
            new_bundles=result.new_bundles,
        )
        clock.advance(120)
    fetcher = TxDetailFetcher(client, store, clock, metrics=metrics)
    stored = fetcher.drain()
    output.info(
        "cli.scrape", f"fetched {stored} transaction details", stored=stored
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    store.save(out)
    write_jsonl(
        out / "coverage.jsonl",
        [
            {
                "poll_time": p.poll_time,
                "overlapped": p.overlapped,
                "new_bundles": p.new_bundles,
            }
            for p in coverage.pairs
        ],
    )
    _save_metrics(args, metrics, progress, "cli.scrape")
    output.info(
        "cli.scrape",
        f"wrote {len(store)} bundles to {out}",
        bundles=len(store),
        out=str(out),
    )
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Render a saved metrics snapshot."""
    _progress, output = _build_logs(args)
    snapshot = load_snapshot(args.snapshot)
    if args.format == "prometheus":
        rendered = render_prometheus(snapshot).rstrip("\n")
    elif args.format == "json":
        rendered = json.dumps(snapshot, indent=2, sort_keys=True)
    else:
        rendered = render_summary(snapshot)
    output.info("cli.metrics", rendered, snapshot=str(args.snapshot))
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    """Run the conformance battery; optionally re-bless the golden corpus.

    Exit code 0 when every check passes, 1 on any failing check; config
    mistakes (unknown level, empty corpus) surface as :class:`ReproError`
    one-liners via :func:`main`.
    """
    from repro.conformance.golden import bless_corpus, default_corpus_dir
    from repro.conformance.selftest import DEFAULT_SEEDS, run_selftest

    progress, output = _build_logs(args)
    corpus = Path(args.corpus) if args.corpus else default_corpus_dir()
    seeds = tuple(args.seed) if args.seed else DEFAULT_SEEDS
    if args.bless:
        written = bless_corpus(corpus)
        for path in written:
            progress.info(
                "cli.selftest", f"blessed {path}", fixture=str(path)
            )
    metrics = MetricsRegistry()
    report = run_selftest(
        level=args.level,
        seeds=seeds,
        corpus_dir=corpus,
        jobs=args.jobs,
        metrics=metrics,
        emit=lambda line: output.info("cli.selftest", line),
    )
    _save_metrics(args, metrics, progress, "cli.selftest")
    verdict = "PASS" if report.passed else "FAIL"
    output.info(
        "cli.selftest",
        f"selftest: {verdict} "
        f"({len(report.checks) - len(report.failures)}/"
        f"{len(report.checks)} checks passed)",
        level=report.level,
        passed=report.passed,
        checks=len(report.checks),
        failures=len(report.failures),
    )
    return 0 if report.passed else 1


def cmd_scenarios(args: argparse.Namespace) -> int:
    """List the registered scenario packs (``repro scenarios list``)."""
    from repro.scenarios import list_packs

    _progress, output = _build_logs(args)
    packs = list_packs()
    if getattr(args, "json", False):
        output.info(
            "cli.scenarios",
            json.dumps(
                [pack.to_json() for pack in packs], indent=2, sort_keys=True
            ),
        )
        return 0
    lines = [
        f"{'name':<28} {'kind':<22} {'fingerprint':<18} description",
        "-" * 96,
    ]
    for pack in packs:
        lines.append(
            f"{pack.name:<28} {pack.kind:<22} "
            f"{pack.fingerprint():<18} {pack.description}"
        )
    output.info("cli.scenarios", "\n".join(lines), packs=len(packs))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    """Print the paper's Table 1, executed for real."""
    _progress, output = _build_logs(args)
    table = build_table1(
        victim_trade_sol=args.victim_sol, victim_slippage_bps=args.slippage_bps
    )
    output.info("cli.table1", table.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sandwiching MEV on Jito — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    campaign = sub.add_parser("campaign", help="run a measurement campaign")
    campaign.add_argument("--days", type=int, default=None)
    campaign.add_argument(
        "--seed",
        type=int,
        default=None,
        help="simulation seed (default 2025; with --scenario, reseeds the "
        "pack's base campaign)",
    )
    campaign.add_argument("--small", action="store_true")
    campaign.add_argument("--out", default="campaign-output")
    campaign.add_argument(
        "--scenario",
        default=None,
        metavar="PACK",
        help="run a registered scenario pack instead of the default market "
        "structure (see: repro scenarios list); writes truth/observed "
        "archives and the measurement-bias report",
    )
    campaign.add_argument(
        "--archive",
        default=None,
        help="collect into this archive database with per-day checkpoints "
        "(e.g. out/archive.db)",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="continue a killed campaign from the archive's latest "
        "checkpoint (requires --archive and the same --seed/--days)",
    )
    campaign.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="days between checkpoints when --archive is set (default 1)",
    )
    campaign.add_argument(
        "--stream",
        action="store_true",
        help="analyze while collecting: run detection over the live "
        "stream so the report is ready the moment collection ends "
        "(byte-identical to the batch pipeline)",
    )
    _add_log_options(campaign, metrics_of="pipeline")
    campaign.set_defaults(func=cmd_campaign)

    chaos = sub.add_parser(
        "chaos", help="run a fault-injected chaos campaign"
    )
    chaos.add_argument("--days", type=int, default=None)
    chaos.add_argument("--seed", type=int, default=2025)
    chaos.add_argument("--small", action="store_true")
    chaos.add_argument(
        "--plan",
        default="flaky",
        help="preset name (calm/flaky/storm/outage/corrupt/skew) or a "
        "fault-plan JSON file",
    )
    chaos.add_argument("--out", default="chaos-output")
    _add_log_options(chaos)
    chaos.set_defaults(func=cmd_chaos)

    analyze = sub.add_parser("analyze", help="re-analyze an archive database")
    analyze.add_argument(
        "--store",
        required=True,
        help="archive database (load a JSONL store directory into one "
        "with 'archive import-jsonl')",
    )
    analyze.add_argument("--threshold", type=int, default=100_000)
    analyze.add_argument(
        "--windowed",
        action="store_true",
        help="scan lengths 3-5 with the windowed detector (needs details "
        "for those lengths in the store)",
    )
    analyze.add_argument(
        "--incremental",
        action="store_true",
        help="re-detect only rows newer than the last analyzed "
        "watermark",
    )
    analyze.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: all cores but one; 1 analyzes "
        "in-process)",
    )
    analyze.add_argument(
        "--chunk-size",
        type=int,
        default=2_048,
        help="bundles per analysis chunk (default 2048)",
    )
    analyze.add_argument(
        "--engine",
        choices=("object", "columnar"),
        default="object",
        help="chunk analyzer: per-bundle objects (default) or "
        "the vectorized columnar path (needs numpy; byte-identical "
        "reports either way)",
    )
    analyze.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage wall-time breakdown "
        "(load/intern/detect/quantify/merge) after analysis; "
        "incremental passes add a rebuild row for the report rebuild",
    )
    analyze.set_defaults(func=cmd_analyze)

    stream = sub.add_parser(
        "stream",
        help="stream an existing archive through the online analyzer",
    )
    stream.add_argument(
        "--db", required=True, help="archive database to replay"
    )
    stream.add_argument("--threshold", type=int, default=100_000)
    stream.add_argument(
        "--windowed",
        action="store_true",
        help="scan lengths 3-5 with the windowed detector",
    )
    stream.add_argument(
        "--batch-size",
        type=int,
        default=256,
        help="archive rows per published batch (default 256)",
    )
    stream.add_argument(
        "--report-out",
        default=None,
        help="write the canonical report JSON (oracle byte format) here",
    )
    _add_log_options(stream)
    stream.set_defaults(func=cmd_stream)

    archive = sub.add_parser("archive", help="maintain an archive database")
    archive_sub = archive.add_subparsers(dest="archive_command", required=True)
    archive_stats = archive_sub.add_parser(
        "stats", help="row counts, schema version, latest checkpoint"
    )
    archive_import = archive_sub.add_parser(
        "import-jsonl", help="load a JSONL store directory into an archive"
    )
    archive_import.add_argument(
        "--store", required=True, help="directory holding bundles.jsonl"
    )
    archive_export = archive_sub.add_parser(
        "export-jsonl", help="write an archive back out as JSONL"
    )
    archive_export.add_argument("--out", required=True)
    archive_sub.add_parser(
        "vacuum", help="fold the WAL and reclaim free pages"
    )
    for archive_cmd in (
        archive_stats,
        archive_import,
        archive_export,
        archive_sub.choices["vacuum"],
    ):
        archive_cmd.add_argument(
            "--db", required=True, help="archive database path"
        )
    archive.set_defaults(func=cmd_archive)

    query = sub.add_parser("query", help="query an archive database")
    query_sub = query.add_subparsers(dest="query_command", required=True)
    query_bundles = query_sub.add_parser(
        "bundles", help="filtered bundle listings"
    )
    query_bundles.add_argument("--slot-min", type=int, default=None)
    query_bundles.add_argument("--slot-max", type=int, default=None)
    query_bundles.add_argument("--length", type=int, default=None)
    query_bundles.add_argument("--tip-min", type=int, default=None)
    query_bundles.add_argument("--tip-max", type=int, default=None)
    query_bundles.add_argument("--order-by", default="seq")
    query_sandwiches = query_sub.add_parser(
        "sandwiches", help="filtered detection listings"
    )
    query_sandwiches.add_argument("--attacker", default=None)
    query_sandwiches.add_argument("--victim", default=None)
    query_sandwiches.add_argument("--slot-min", type=int, default=None)
    query_sandwiches.add_argument("--slot-max", type=int, default=None)
    query_sandwiches.add_argument(
        "--priced-only",
        action="store_true",
        help="only sandwiches with USD quantification",
    )
    query_sandwiches.add_argument("--order-by", default="seq")
    for listing in (query_bundles, query_sandwiches):
        listing.add_argument("--date-from", default=None)
        listing.add_argument("--date-to", default=None)
        listing.add_argument("--desc", action="store_true")
        listing.add_argument("--limit", type=int, default=None)
        listing.add_argument("--offset", type=int, default=0)
        listing.add_argument(
            "--count",
            action="store_true",
            help="print the match count instead of rows",
        )
    query_tips = query_sub.add_parser(
        "tips", help="tip histogram (lamport buckets)"
    )
    query_tips.add_argument("--bucket", type=int, default=100_000)
    query_tips.add_argument("--length", type=int, default=None)
    query_sub.add_parser("lengths", help="bundle counts by length")
    query_sub.add_parser("daily", help="per-day bundle and sandwich series")
    query_attackers = query_sub.add_parser(
        "attackers", help="attackers ranked by extracted USD"
    )
    query_attackers.add_argument("--limit", type=int, default=10)
    query_sub.add_parser(
        "defensive", help="defensive/priority classification summary"
    )
    for query_cmd in query_sub.choices.values():
        query_cmd.add_argument(
            "--db", required=True, help="archive database path"
        )
    query.set_defaults(func=cmd_query)

    serve = sub.add_parser(
        "serve",
        help="serve a simulated Jito explorer (the data source; "
        "for serving campaign results, see 'api')",
        description="Simulate a world and serve its Jito Explorer over "
        "HTTP — the data source a collector scrapes. To serve measurement "
        "results from a campaign archive, use 'repro api' instead.",
    )
    serve.add_argument("--days", type=int, default=None)
    serve.add_argument("--seed", type=int, default=2025)
    serve.add_argument("--small", action="store_true")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--rps", type=float, default=100.0)
    serve.set_defaults(func=cmd_serve)

    api = sub.add_parser(
        "api",
        help="serve a campaign archive's results over the /v1/ read API",
        description="Serve detections, financial aggregates, and "
        "collection-integrity status from a campaign archive over a "
        "versioned read-only HTTP API. The counterpart to 'repro serve', "
        "which serves the simulated data source.",
    )
    api.add_argument("--db", required=True, help="archive database path")
    api.add_argument("--host", default="127.0.0.1")
    api.add_argument("--port", type=int, default=0)
    api.add_argument(
        "--rps",
        type=float,
        default=50.0,
        help="per-client sustained requests/second (token-bucket rate)",
    )
    api.add_argument(
        "--burst",
        type=float,
        default=None,
        help="per-client burst capacity (default: 4x --rps)",
    )
    api.add_argument(
        "--cache-entries",
        type=int,
        default=1_024,
        help="response-cache capacity (entries per watermark generation)",
    )
    _add_log_options(api, metrics_of="API")
    api.set_defaults(func=cmd_api)

    scrape = sub.add_parser("scrape", help="collect from a live explorer")
    scrape.add_argument("--host", default="127.0.0.1")
    scrape.add_argument("--port", type=int, required=True)
    scrape.add_argument("--polls", type=int, default=10)
    scrape.add_argument("--window", type=int, default=1_000)
    scrape.add_argument("--out", default="scrape-output")
    _add_log_options(scrape, metrics_of="collector")
    scrape.set_defaults(func=cmd_scrape)

    metrics = sub.add_parser(
        "metrics", help="render a saved metrics snapshot"
    )
    metrics.add_argument("--snapshot", required=True)
    metrics.add_argument(
        "--format",
        choices=("table", "prometheus", "json"),
        default="table",
        help="rendering: aligned table (default), Prometheus text, or JSON",
    )
    metrics.set_defaults(func=cmd_metrics)

    selftest = sub.add_parser(
        "selftest", help="run the pipeline conformance battery"
    )
    selftest.add_argument(
        "--level",
        choices=("quick", "full"),
        default="quick",
        help="quick: CI-sized campaigns; full: adds large and stress "
        "scenarios (nightly)",
    )
    selftest.add_argument(
        "--seed",
        type=int,
        action="append",
        default=None,
        help="differential/metamorphic seed (repeatable; default: "
        "11, 77, 20250806)",
    )
    selftest.add_argument(
        "--corpus",
        default=None,
        help="golden corpus directory (default: tests/golden, or "
        "$REPRO_GOLDEN_DIR)",
    )
    selftest.add_argument(
        "--bless",
        action="store_true",
        help="regenerate every golden fixture before checking — the only "
        "way frozen expectations ever change",
    )
    selftest.add_argument(
        "--jobs",
        type=int,
        default=4,
        help="worker processes for the sharded leg of the differential "
        "matrix (default 4)",
    )
    _add_log_options(selftest, metrics_of="selftest")
    selftest.set_defaults(func=cmd_selftest)

    scenarios = sub.add_parser(
        "scenarios",
        help="list the registered scenario packs (see campaign --scenario)",
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command")
    scenarios_list = scenarios_sub.add_parser(
        "list", help="one line per registered pack"
    )
    scenarios_list.add_argument(
        "--json",
        action="store_true",
        help="emit the full pack recipes as JSON instead of the table",
    )
    _add_log_options(scenarios)
    scenarios.set_defaults(func=cmd_scenarios, scenarios_command="list")

    table1 = sub.add_parser("table1", help="print the example sandwich")
    table1.add_argument("--victim-sol", type=float, default=25.0)
    table1.add_argument("--slippage-bps", type=int, default=200)
    table1.set_defaults(func=cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        # Operator mistakes (bad flags, missing/corrupt stores, empty
        # corpus) get a one-line diagnostic, never a traceback.
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a good
        # unix citizen.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
