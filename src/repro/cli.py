"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the paper's Fig. 2 example analysis and print all tables/trees.
``simulate``
    Run one closed-loop arrestment (mass/velocity selectable) and print
    the telemetry and the terminal signal values.
``campaign``
    Run an injection campaign against the arrestment system and print
    the paper's Tables 1–4, the placement report and the baselines.
    Results can be saved to JSON and re-analysed later.
``analyze``
    Re-run the analysis on a permeability matrix saved by ``campaign``.
``lint``
    Run the static model linter (see docs/LINTING.md) over one of the
    shipped systems, optionally with a permeability matrix, and print
    the findings as text, JSON or SARIF 2.1.0.
``flow``
    Run the static bit-flow permeability analysis (see
    docs/STATIC_ANALYSIS.md) over one of the shipped systems and print
    the per-arc interval bounds, exposure bounds, prunable targets and
    flow-backed findings (R013/R014) as text, JSON or SARIF 2.1.0.
``obs summarize`` / ``obs validate`` / ``obs tail``
    Render a text report from a recorded ``events.jsonl`` (phase
    timings, outcome mix, hottest propagation arcs), round-trip the
    file through the typed event parser (the CI schema check), or
    pretty-print the stream live (``--follow``) with ``--type``
    filtering.
``dash``
    Serve the live resilience dashboard over a recorded (or still
    growing) events file: permeability heatmap with Wilson intervals,
    progress/ETA and the error-lifetime distribution in a browser,
    with ``GET /api/snapshot`` and an SSE event feed (see
    docs/OBSERVABILITY.md).  ``campaign --dash`` serves the same
    dashboard live during a campaign.
``verify``
    Differential fuzzing (see docs/TESTING.md): generate random
    executable systems and cross-check analytical permeabilities
    against injection campaigns under every execution strategy and
    simulation backend.  Failures are shrunk and archived as corpus
    reproducers.

The CLI is a thin layer over the library; everything it does is
available programmatically (see README.md and docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Sequence, TextIO

from repro.arrestment import (
    build_arrestment_model,
    build_arrestment_run,
    paper_test_cases,
    reduced_test_cases,
)
from repro.arrestment.testcases import ArrestmentTestCase
from repro.baselines.uniform import analyse_uniform_propagation
from repro.baselines.edm_selection import greedy_edm_selection
from repro.core.analysis import PropagationAnalysis
from repro.core.permeability import PermeabilityMatrix
from repro.injection.campaign import CampaignConfig, InjectionCampaign
from repro.injection.error_models import bit_flip_models
from repro.injection.estimator import estimate_matrix
from repro.injection.latency import (
    latency_statistics,
    lifetime_statistics,
    render_latency_table,
    render_lifetime_table,
)
from repro.injection.selection import paper_times
from repro.model.errors import CampaignError
from repro.model.examples import build_fig2_system, fig2_permeabilities
from repro.obs import CampaignObserver, validate_events
from repro.obs.summary import summarize_events_file
from repro.simulation.backend import available_backends

__all__ = ["main", "make_progress_printer"]


def make_progress_printer(
    interval_s: float = 10.0,
    stream: TextIO | None = None,
    metrics=None,
) -> Callable[[int, int], None]:
    """Build a rate-limited ``(done, total)`` progress callback.

    Prints ``done/total (pct%)`` with the observed run rate and an ETA;
    when a live :class:`~repro.obs.metrics.MetricsRegistry` is given,
    appends the campaign's phase breakdown so a long campaign shows
    where its wall-clock is going while it runs.
    """
    out = stream if stream is not None else sys.stdout
    started = time.time()
    last = [0.0]

    def phase_suffix() -> str:
        if metrics is None:
            return ""
        parts = []
        for name, label in (
            ("phase.golden_run.seconds", "GR"),
            ("phase.injection_run.seconds", "IR"),
            ("phase.comparison.seconds", "cmp"),
            ("chunk.seconds", "chunks"),
        ):
            if name in metrics:
                histogram = metrics.histogram(name)
                if histogram.count:
                    parts.append(f"{label} {histogram.total:.1f}s")
        return f" [{' | '.join(parts)}]" if parts else ""

    def progress(done: int, total_runs: int) -> None:
        now = time.time()
        if done != total_runs and now - last[0] < interval_s:
            return
        last[0] = now
        elapsed = now - started
        rate = done / elapsed if elapsed > 0 else 0.0
        eta = (total_runs - done) / rate if rate > 0 else float("inf")
        print(
            f"  {done}/{total_runs} ({done / total_runs:.0%}, "
            f"{rate:.1f} runs/s, ETA {eta:.0f}s){phase_suffix()}",
            file=out,
        )

    return progress


def _cmd_demo(args: argparse.Namespace) -> int:
    system = build_fig2_system()
    matrix = PermeabilityMatrix.from_dict(system, fig2_permeabilities())
    analysis = PropagationAnalysis(matrix)
    print(analysis.render_summary())
    print()
    print("Backtrack tree of sys_out (Fig. 4):")
    print(analysis.backtrack_trees["sys_out"].render())
    print()
    print("Trace tree of ext_a (Fig. 5):")
    print(analysis.trace_trees["ext_a"].render())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    case = ArrestmentTestCase(mass_kg=args.mass, velocity_ms=args.velocity)
    runner = build_arrestment_run(case)
    result = runner.run(args.duration)
    print(f"Arrestment of {case}: {args.duration} ms simulated")
    for key, value in result.telemetry.items():
        print(f"  {key}: {value:.2f}")
    print("Final signal values:")
    for signal, value in result.final_signals.items():
        print(f"  {signal}: {value}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.twonode:
        from repro.arrestment.twonode import build_twonode_model, build_twonode_run

        system = build_twonode_model()
        factory = build_twonode_run
    else:
        system = build_arrestment_model()
        factory = build_arrestment_run
    times = (
        paper_times()
        if args.paper_grid
        else tuple(
            round(500 + index * (5000 - 500) / max(1, args.times - 1))
            for index in range(args.times)
        )
    )
    dash_sink = None
    if args.dash is not None:
        from repro.obs.dash import DashboardServer, DashboardSink

        address = _parse_dash_address(args.dash)
        if address is None:
            print(f"invalid --dash address: {args.dash!r} "
                  "(expected HOST:PORT)", file=sys.stderr)
            return 2
        dash_sink = DashboardSink()
    observer = None
    try:
        cases = (
            paper_test_cases() if args.cases >= 25
            else reduced_test_cases(args.cases)
        )
        config = CampaignConfig(
            duration_ms=args.duration,
            injection_times_ms=times,
            error_models=tuple(bit_flip_models(args.bits)),
            seed=args.seed,
            reuse_golden_prefix=not args.no_prefix_reuse,
            fast_forward=not args.no_fast_forward,
            lint=not args.no_lint,
            backend=args.backend,
            static_prune=args.static_prune,
            store=args.store,
            no_cache=args.no_cache,
            adaptive=args.adaptive,
            ci_width=args.ci_width,
        )
        if args.events or args.metrics or dash_sink is not None:
            for path in (args.events, args.metrics):
                if path:
                    Path(path).parent.mkdir(parents=True, exist_ok=True)
            observer = CampaignObserver.to_files(
                events_path=args.events,
                with_metrics=True,
                extra_sinks=[dash_sink] if dash_sink is not None else [],
            )
        campaign = InjectionCampaign(
            system, factory, cases, config, observer=observer
        )
    except (CampaignError, ValueError) as exc:
        if observer is not None:
            observer.close()
        print(f"invalid campaign configuration: {exc}", file=sys.stderr)
        return 2
    dash_server = None
    if dash_sink is not None:
        dash_server = DashboardServer(dash_sink, *address).start()
        print(f"dashboard: {dash_server.url}")
    total = campaign.total_runs()
    print(f"{len(cases)} workloads x {len(campaign.targets)} signals x "
          f"{config.runs_per_target()} injections = {total} runs")
    if config.reuse_golden_prefix:
        skipped = campaign.simulated_ms_skipped()
        print(f"prefix reuse skips {skipped} of {campaign.simulated_ms_total()} "
              f"simulated ms ({skipped / campaign.simulated_ms_total():.0%})")
    started = time.time()
    progress = make_progress_printer(
        metrics=observer.metrics if observer is not None else None
    )

    workers = args.workers if args.workers is not None else 1
    try:
        if workers > 1:
            result = campaign.execute_parallel(
                max_workers=workers, progress=progress
            )
        else:
            result = campaign.execute(progress=progress)
    finally:
        # Flush the stream on every exit path: an aborted campaign's
        # CampaignAborted must reach disk.
        if observer is not None:
            observer.close()
    print(f"done in {time.time() - started:.0f}s")
    stats = campaign.last_store_stats
    if stats is not None and args.no_cache:
        print(
            f"result store: cache bypassed (--no-cache), "
            f"{stats.runs_executed} run(s) executed and refreshed"
        )
    elif stats is not None:
        print(
            f"result store: {stats.hits} row(s) reused "
            f"({stats.runs_reused} runs recomposed from cache), "
            f"{stats.misses} row(s) executed fresh"
            + (f", {stats.uncacheable} uncacheable" if stats.uncacheable else "")
            + f"; {stats.runs_executed} run(s) executed"
            + (
                f"; WARNING: {stats.rejected} corrupt artifact(s) re-executed"
                if stats.rejected
                else ""
            )
        )
    if result.n_pruned_runs():
        print(
            f"static pruning: {len(result.pruned_targets())} target(s) "
            f"proven zero-permeability, {result.n_pruned_runs()} runs "
            "recorded as exact zeros without executing"
        )
    if config.adaptive:
        rows = result.adaptive_rows()
        n_trials = result.n_adaptive_trials()
        n_saved = result.n_adaptive_trials_saved()
        n_grid = n_trials + n_saved
        saved_pct = n_saved / n_grid if n_grid else 0.0
        by_reason: dict[str, int] = {}
        for row in rows:
            by_reason[row.reason] = by_reason.get(row.reason, 0) + 1
        reasons = ", ".join(
            f"{count} {reason}" for reason, count in sorted(by_reason.items())
        )
        print(
            f"adaptive stopping: {len(rows)} target(s) retired ({reasons}), "
            f"{n_trials}/{n_grid} trials executed "
            f"({saved_pct:.0%} saved)"
        )
    if config.fast_forward and len(result):
        print(
            f"fast-forward: {result.n_reconverged()}/{len(result)} IRs "
            f"reconverged ({result.reconverged_fraction():.0%}), "
            f"{result.frames_fast_forwarded_total()} simulated ms spliced"
        )

    if observer is not None:
        if args.events:
            print(f"events written to {args.events}")
        if args.metrics:
            observer.metrics.dump_json(args.metrics)
            print(f"metrics written to {args.metrics}")

    matrix = estimate_matrix(result)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            handle.write(matrix.to_json())
        print(f"matrix saved to {args.save}")

    analysis = PropagationAnalysis(matrix)
    print()
    print(analysis.render_summary())
    print()
    print(render_latency_table(latency_statistics(result)))
    print()
    if config.fast_forward:
        lifetimes = lifetime_statistics(result)
        if lifetimes:
            print(render_lifetime_table(lifetimes))
            print()
    print(analyse_uniform_propagation(result).render())
    print()
    print(greedy_edm_selection(result, max_monitors=args.monitors).render())
    if dash_server is not None:
        _linger(dash_server, args.dash_linger)
    return 0


def _parse_dash_address(text: str) -> tuple[str, int] | None:
    """Parse ``HOST:PORT`` / ``:PORT`` / ``PORT`` into ``(host, port)``."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = "", text
    try:
        port = int(port_text)
    except ValueError:
        return None
    if not 0 <= port <= 65535:
        return None
    return (host or "127.0.0.1", port)


def _linger(dash_server, linger_s: float | None) -> None:
    """Keep the dashboard serving after the campaign/replay finished.

    ``None`` serves until Ctrl-C (the interactive default for ``repro
    dash``); a finite value bounds the wait so scripted callers (the CI
    smoke job) can poll ``/api/snapshot`` and exit deterministically.
    """
    try:
        if linger_s is None:
            print(f"dashboard serving at {dash_server.url} "
                  "(Ctrl-C to stop)")
            while True:
                time.sleep(3600)
        elif linger_s > 0:
            print(f"dashboard serving at {dash_server.url} "
                  f"for {linger_s:g}s more")
            time.sleep(linger_s)
    except KeyboardInterrupt:
        print()
    finally:
        dash_server.stop()


def _cmd_dash(args: argparse.Namespace) -> int:
    import threading

    from repro.obs.dash import DashboardServer, DashboardSink, tail_lines

    address = _parse_dash_address(args.address)
    if address is None:
        print(f"invalid --address: {args.address!r} (expected HOST:PORT)",
              file=sys.stderr)
        return 2
    if not Path(args.events).exists() and not args.follow:
        print(f"no such events file: {args.events}", file=sys.stderr)
        return 2
    sink = DashboardSink()
    server = DashboardServer(sink, *address).start()
    stop = threading.Event()

    def feed() -> None:
        try:
            for line in tail_lines(
                args.events, follow=args.follow, stop=stop.is_set
            ):
                sink.emit_line(line)
        finally:
            if not args.follow:
                sink.close()

    feeder = threading.Thread(target=feed, name="repro-dash-feed", daemon=True)
    feeder.start()
    try:
        _linger(server, args.linger)
    finally:
        stop.set()
        sink.close()
    snapshot = sink.snapshot()
    print(f"served {snapshot['stream']['n_events']} event(s) "
          f"from {args.events}")
    return 0


def _cmd_obs_tail(args: argparse.Namespace) -> int:
    from repro.obs.dash import tail_lines
    from repro.obs.events import (
        EVENT_SCHEMA_VERSION,
        EVENT_TYPES,
        PrettyPrintSink,
        decode_event,
    )

    wanted = (
        {name.strip() for name in args.type.split(",") if name.strip()}
        if args.type
        else None
    )
    unknown = sorted((wanted or set()) - set(EVENT_TYPES))
    if unknown:
        print(
            f"unknown event type(s) {', '.join(unknown)}; known types: "
            + ", ".join(sorted(EVENT_TYPES)),
            file=sys.stderr,
        )
        return 2
    printer = PrettyPrintSink(stream=sys.stdout, verbose=True)
    skipped = 0
    try:
        for line in tail_lines(args.events, follow=args.follow):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                decode_event(record)
            except (json.JSONDecodeError, KeyError, TypeError):
                skipped += 1
                continue
            except ValueError as exc:
                # Another schema's record is a wrong file, not a torn line.
                if record.get("v") != EVENT_SCHEMA_VERSION:
                    print(f"INVALID: {args.events}: {exc}", file=sys.stderr)
                    return 1
                skipped += 1
                continue
            if wanted is not None and record["type"] not in wanted:
                continue
            printer.emit(record)
    except KeyboardInterrupt:
        print()
    if skipped:
        print(f"({skipped} damaged line(s) skipped)", file=sys.stderr)
    return 0


def _build_named_system(name: str):
    if name == "fig2":
        return build_fig2_system()
    if name == "twonode":
        from repro.arrestment.twonode import build_twonode_model

        return build_twonode_model()
    return build_arrestment_model()


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import Severity, lint_system, to_sarif

    system = _build_named_system(args.system)
    matrix = None
    if args.paper_matrix:
        if args.system != "fig2":
            print("--paper-matrix requires --system fig2", file=sys.stderr)
            return 2
        matrix = PermeabilityMatrix.from_dict(system, fig2_permeabilities())
    elif args.matrix:
        with open(args.matrix, "r", encoding="utf-8") as handle:
            matrix = PermeabilityMatrix.from_json(system, handle.read())
    report = lint_system(
        system,
        matrix,
        select=args.select.split(",") if args.select else None,
        ignore=args.ignore.split(",") if args.ignore else None,
    )
    if args.format == "json":
        rendered = report.to_json()
    elif args.format == "sarif":
        rendered = json.dumps(to_sarif(report), indent=2)
    else:
        rendered = report.render_text()
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(f"{report.summary()}; report written to {args.output}")
    else:
        print(rendered)
    return 1 if report.fails_at(Severity.from_label(args.fail_on)) else 0


def _cmd_flow(args: argparse.Namespace) -> int:
    from repro.flow import analyse_run, analyse_system, flow_report
    from repro.lint import Severity

    if args.system == "fig2":
        # Fig. 2 is an analysis-only model without an executable
        # runtime, so every module is opaque (T) to the flow analysis.
        analysis = analyse_system(build_fig2_system())
    else:
        case = ArrestmentTestCase(mass_kg=14000.0, velocity_ms=60.0)
        if args.system == "twonode":
            from repro.arrestment.twonode import build_twonode_run

            runner = build_twonode_run(case)
        else:
            runner = build_arrestment_run(case)
        analysis = analyse_run(runner)
    report = flow_report(analysis)
    if args.format == "json":
        rendered = report.to_json()
    elif args.format == "sarif":
        rendered = json.dumps(report.to_sarif(), indent=2)
    else:
        rendered = report.render_text()
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(f"{report.summary()}; report written to {args.output}")
    else:
        print(rendered)
    return 1 if report.fails_at(Severity.from_label(args.fail_on)) else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.twonode:
        from repro.arrestment.twonode import build_twonode_model

        system = build_twonode_model()
    else:
        system = build_arrestment_model()
    with open(args.matrix, "r", encoding="utf-8") as handle:
        matrix = PermeabilityMatrix.from_json(system, handle.read())
    analysis = PropagationAnalysis(matrix)
    print(analysis.render_summary())
    return 0


def _cmd_obs_summarize(args: argparse.Namespace) -> int:
    print(
        summarize_events_file(
            args.events, metrics_path=args.metrics, top=args.top
        )
    )
    return 0


def _cmd_obs_validate(args: argparse.Namespace) -> int:
    try:
        count = validate_events(args.events)
    except ValueError as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return 1
    print(f"{args.events}: {count} events, schema valid")
    return 0


def _cmd_store_ls(args: argparse.Namespace) -> int:
    from repro.store import ResultStore

    store = ResultStore(args.dir)
    n_ok = n_bad = n_runs = 0
    for record in store.iter_artifacts():
        if not record.ok:
            n_bad += 1
            print(f"INVALID  {record.path}  ({record.reason})")
            continue
        n_ok += 1
        payload = record.payload
        kind = payload.get("kind", "?")
        runs = int(payload.get("n_runs", 0))
        n_runs += runs if kind == "unit" else 0
        print(
            f"{record.key[:16]}  {kind:<6} "
            f"{payload.get('case_id', '?')}/{payload.get('module', '?')}"
            f".{payload.get('signal', '?')}  {runs} runs"
        )
    print(
        f"{n_ok} valid artifact(s) ({n_runs} cached injection runs)"
        + (f", {n_bad} invalid" if n_bad else "")
    )
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    from repro.store import ResultStore

    removed = ResultStore(args.dir).gc(max_age_days=args.max_age_days)
    print(f"removed {len(removed)} artifact(s)")
    for path in removed:
        print(f"  {path}")
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from repro.store import ResultStore

    n_ok = n_bad = 0
    for record in ResultStore(args.dir).iter_artifacts():
        if record.ok:
            n_ok += 1
        else:
            n_bad += 1
            print(f"INVALID  {record.path}  ({record.reason})", file=sys.stderr)
    print(f"{args.dir}: {n_ok} valid artifact(s), {n_bad} invalid")
    return 1 if n_bad else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import (
        OracleFailure,
        Reproducer,
        default_campaign,
        generate_system,
        iter_corpus,
        load_reproducer,
        replay,
        shrink_failure,
        verify_generated,
        write_reproducer,
    )

    corpus_dir = Path(args.corpus)
    backends = None if args.backend == "both" else (args.backend,)

    if args.replay is not None:
        paths = [Path(p) for p in args.replay] or iter_corpus(corpus_dir)
        if not paths:
            print(f"no reproducers found under {corpus_dir}", file=sys.stderr)
            return 2
        status = 0
        for path in paths:
            try:
                report = replay(load_reproducer(path), backends=backends)
            except OracleFailure as failure:
                print(f"FAIL {path}: {failure}", file=sys.stderr)
                status = 1
            except Exception as exc:
                print(
                    f"FAIL {path}: oracle crashed: "
                    f"{type(exc).__name__}: {exc}",
                    file=sys.stderr,
                )
                status = 1
            else:
                print(f"ok   {path}: {report.render()}")
        return status

    deadline = None if args.budget is None else time.monotonic() + args.budget
    verified = 0
    feedback_seen = 0
    for seed in range(args.start_seed, args.start_seed + args.seeds):
        if deadline is not None and time.monotonic() >= deadline:
            print(
                f"time budget exhausted after {verified} system(s); stopping"
            )
            break
        generated = generate_system(seed)
        campaign = default_campaign(generated)
        feedback_seen += 1 if generated.has_feedback else 0
        try:
            report = verify_generated(generated, campaign, backends=backends)
        except OracleFailure as failure:
            message = str(failure)
        except Exception as exc:  # a crash mid-oracle is a failure too
            message = f"oracle crashed: {type(exc).__name__}: {exc}"
        else:
            verified += 1
            print(f"seed {seed}: {report.render()}")
            continue
        print(f"seed {seed}: ORACLE FAILURE: {message}", file=sys.stderr)
        spec = generated.spec
        if not args.no_shrink:
            print("shrinking the failing system ...")
            spec, campaign, message = shrink_failure(spec, campaign)
            connections = sum(len(m.inputs) for m in spec.modules)
            print(
                f"shrunk to {len(spec.modules)} module(s), "
                f"{connections} connection(s), "
                f"{len(campaign.injection_times_ms)} injection time(s), "
                f"{campaign.n_bits} bit(s)"
            )
        path = write_reproducer(
            corpus_dir,
            Reproducer(
                kind="generated",
                campaign=campaign,
                spec=spec,
                note=f"found by 'repro verify' (seed {seed})",
                failure=message,
            ),
        )
        print(f"reproducer written: {path}", file=sys.stderr)
        return 1
    print(
        f"verified {verified} generated system(s), {feedback_seen} with "
        "marked feedback: all oracle checks passed"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Error-propagation analysis (Hiller/Jhumka/Suri, DSN 2001)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser("demo", help="analyse the paper's Fig. 2 example")
    demo.set_defaults(func=_cmd_demo)

    simulate = commands.add_parser(
        "simulate", help="run one closed-loop arrestment"
    )
    simulate.add_argument("--mass", type=float, default=14000.0, help="kg")
    simulate.add_argument("--velocity", type=float, default=60.0, help="m/s")
    simulate.add_argument("--duration", type=int, default=12000, help="ms")
    simulate.set_defaults(func=_cmd_simulate)

    campaign = commands.add_parser(
        "campaign", help="run an injection campaign and print Tables 1-4"
    )
    campaign.add_argument("--cases", type=int, default=2,
                          help="workloads (25 = the paper's full grid)")
    campaign.add_argument("--times", type=int, default=2,
                          help="injection instants between 0.5s and 5s")
    campaign.add_argument("--bits", type=int, default=16,
                          help="bit positions to flip")
    campaign.add_argument("--duration", type=int,
                          default=CampaignConfig.duration_ms,
                          help="run ms (default %(default)s)")
    campaign.add_argument("--seed", type=int, default=2001)
    campaign.add_argument("--monitors", type=int, default=3,
                          help="EDM subset size for the [18] baseline")
    campaign.add_argument("--paper-grid", action="store_true",
                          help="use the paper's ten half-second instants")
    campaign.add_argument("--workers", type=int, default=None, metavar="N",
                          help="worker processes for the grid-sharded "
                          "parallel path (scales past the case count; "
                          "~4 slices of trials per worker)")
    campaign.add_argument("--events", metavar="FILE", default=None,
                          help="record the structured campaign event "
                          "stream as JSONL (see docs/OBSERVABILITY.md)")
    campaign.add_argument("--metrics", metavar="FILE", default=None,
                          help="dump the campaign metrics registry "
                          "(counters/histograms) as JSON")
    campaign.add_argument("--dash", metavar="HOST:PORT", nargs="?",
                          const="127.0.0.1:8765", default=None,
                          help="serve the live dashboard while the "
                          "campaign runs (default address when given "
                          "without a value: 127.0.0.1:8765; port 0 "
                          "picks a free port)")
    campaign.add_argument("--dash-linger", type=float, default=None,
                          metavar="SECS",
                          help="with --dash: keep serving this many "
                          "seconds after the campaign finishes "
                          "(default: until Ctrl-C)")
    campaign.add_argument("--no-prefix-reuse", action="store_true",
                          help="disable Golden-Run checkpoint reuse "
                          "(re-run every IR from time zero)")
    campaign.add_argument("--no-fast-forward", action="store_true",
                          help="disable reconvergence fast-forward "
                          "(simulate every IR to the end even after "
                          "its injected error provably died out)")
    campaign.add_argument("--backend", choices=available_backends(),
                          default=os.environ.get("REPRO_BACKEND", "reference"),
                          help="simulation backend executing the injection "
                          "runs (default: $REPRO_BACKEND or 'reference'; "
                          "see docs/PERFORMANCE.md)")
    campaign.add_argument("--no-lint", action="store_true",
                          help="skip the pre-campaign model lint gate "
                          "(see docs/LINTING.md)")
    campaign.add_argument("--adaptive", action="store_true",
                          help="confidence-driven sequential stopping: "
                          "run injections in rounds and retire each "
                          "(module, input) target once its widest Wilson "
                          "interval is narrow enough (see docs/ADAPTIVE.md)")
    campaign.add_argument("--ci-width", type=float, default=None,
                          metavar="W",
                          help="with --adaptive: retire a target when "
                          "every output arc's Wilson half-width drops "
                          "below W (default 0.05)")
    campaign.add_argument("--static-prune", action="store_true",
                          help="skip injection targets whose arcs the "
                          "static flow analysis proves zero-permeability, "
                          "recording them as exact zero counts "
                          "(see docs/STATIC_ANALYSIS.md)")
    campaign.add_argument("--store", metavar="DIR", default=None,
                          help="content-addressed result store: reuse "
                          "cached target rows and record fresh ones "
                          "(see docs/INCREMENTAL.md)")
    campaign.add_argument("--no-cache", action="store_true",
                          help="with --store: re-execute everything and "
                          "refresh the store instead of reading it")
    campaign.add_argument("--twonode", action="store_true",
                          help="analyse the master/slave configuration")
    campaign.add_argument("--save", metavar="FILE",
                          help="save the estimated matrix as JSON")
    campaign.set_defaults(func=_cmd_campaign)

    lint = commands.add_parser(
        "lint", help="statically analyse a system model (docs/LINTING.md)"
    )
    lint.add_argument("--system", choices=("arrestment", "fig2", "twonode"),
                      default="arrestment", help="which shipped model to lint")
    lint.add_argument("--matrix", metavar="FILE", default=None,
                      help="permeability matrix JSON enabling the "
                      "R009/R010 matrix rules")
    lint.add_argument("--paper-matrix", action="store_true",
                      help="use the built-in Fig. 2 permeabilities "
                      "(requires --system fig2)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", help="output format")
    lint.add_argument("--select", metavar="CODES", default=None,
                      help="comma-separated code prefixes to keep "
                      "(e.g. R001,R00)")
    lint.add_argument("--ignore", metavar="CODES", default=None,
                      help="comma-separated code prefixes to suppress")
    lint.add_argument("--fail-on", choices=("error", "warning", "info"),
                      default="error",
                      help="exit non-zero when a finding at or above "
                      "this severity remains (default: error)")
    lint.add_argument("--output", metavar="FILE", default=None,
                      help="write the report to a file instead of stdout")
    lint.set_defaults(func=_cmd_lint)

    flow = commands.add_parser(
        "flow",
        help="static bit-flow permeability bounds (docs/STATIC_ANALYSIS.md)",
    )
    flow.add_argument("--system", choices=("arrestment", "fig2", "twonode"),
                      default="arrestment",
                      help="which shipped model to analyse (fig2 has no "
                      "executable runtime: every module is T)")
    flow.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text", help="output format")
    flow.add_argument("--fail-on", choices=("error", "warning", "info"),
                      default="error",
                      help="exit non-zero when a finding at or above "
                      "this severity remains (default: error)")
    flow.add_argument("--output", metavar="FILE", default=None,
                      help="write the report to a file instead of stdout")
    flow.set_defaults(func=_cmd_flow)

    analyze = commands.add_parser(
        "analyze", help="re-analyse a saved permeability matrix"
    )
    analyze.add_argument("matrix", help="JSON file from 'campaign --save'")
    analyze.add_argument("--twonode", action="store_true",
                         help="the matrix belongs to the master/slave system")
    analyze.set_defaults(func=_cmd_analyze)

    obs = commands.add_parser(
        "obs", help="inspect recorded campaign observability artifacts"
    )
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_commands.add_parser(
        "summarize",
        help="text report from an events file: phase timings, outcome "
        "mix, hottest propagation arcs",
    )
    summarize.add_argument("events", help="events.jsonl from 'campaign --events'")
    summarize.add_argument("--metrics", metavar="FILE", default=None,
                           help="metrics.json overriding the snapshot "
                           "embedded in the events file")
    summarize.add_argument("--top", type=int, default=10,
                           help="propagation arcs to list")
    summarize.set_defaults(func=_cmd_obs_summarize)
    validate = obs_commands.add_parser(
        "validate",
        help="round-trip an events file through the typed event parser",
    )
    validate.add_argument("events", help="events.jsonl to validate")
    validate.set_defaults(func=_cmd_obs_validate)
    tail = obs_commands.add_parser(
        "tail",
        help="pretty-print an events file, optionally following a "
        "still-growing stream",
    )
    tail.add_argument("events", help="events.jsonl to print")
    tail.add_argument("--follow", "-f", action="store_true",
                      help="keep the file open and print events as a "
                      "running campaign appends them (Ctrl-C to stop)")
    tail.add_argument("--type", metavar="TYPES", default=None,
                      help="comma-separated event types to keep "
                      "(e.g. RunFinished,ChunkCompleted)")
    tail.set_defaults(func=_cmd_obs_tail)

    store = commands.add_parser(
        "store",
        help="inspect a content-addressed campaign result store "
        "(docs/INCREMENTAL.md)",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)
    store_ls = store_commands.add_parser(
        "ls", help="list the store's artifacts and their cached runs"
    )
    store_ls.add_argument("dir", help="store directory (campaign --store)")
    store_ls.set_defaults(func=_cmd_store_ls)
    store_gc = store_commands.add_parser(
        "gc",
        help="delete invalid artifacts, leftover temp files and "
        "(optionally) artifacts older than --max-age-days",
    )
    store_gc.add_argument("dir", help="store directory to clean")
    store_gc.add_argument("--max-age-days", type=float, default=None,
                          metavar="DAYS",
                          help="also delete artifacts not rewritten in "
                          "this many days")
    store_gc.set_defaults(func=_cmd_store_gc)
    store_verify = store_commands.add_parser(
        "verify",
        help="re-hash every artifact; exit 1 if any fails validation",
    )
    store_verify.add_argument("dir", help="store directory to check")
    store_verify.set_defaults(func=_cmd_store_verify)

    dash = commands.add_parser(
        "dash",
        help="serve the live dashboard over a recorded events file "
        "(docs/OBSERVABILITY.md)",
    )
    dash.add_argument("--events", metavar="FILE", required=True,
                      help="events.jsonl from 'campaign --events' "
                      "(may still be growing with --follow)")
    dash.add_argument("--follow", "-f", action="store_true",
                      help="keep tailing the file for new events "
                      "(live replay of a running campaign)")
    dash.add_argument("--address", metavar="HOST:PORT",
                      default="127.0.0.1:8765",
                      help="listen address (default: 127.0.0.1:8765; "
                      "port 0 picks a free port)")
    dash.add_argument("--linger", type=float, default=None, metavar="SECS",
                      help="stop serving after this many seconds "
                      "(default: until Ctrl-C)")
    dash.set_defaults(func=_cmd_dash)

    verify = commands.add_parser(
        "verify",
        help="differential fuzzing: analysis vs. injection on generated "
        "systems (docs/TESTING.md)",
    )
    verify.add_argument("--seeds", type=int, default=25,
                        help="number of generated systems to verify")
    verify.add_argument("--start-seed", type=int, default=0,
                        help="first generator seed (fuzz different systems "
                        "by sliding the window)")
    verify.add_argument("--budget", type=float, default=None, metavar="SECS",
                        help="wall-clock budget; stop cleanly when exceeded")
    verify.add_argument("--corpus", metavar="DIR", default="tests/corpus",
                        help="directory receiving shrunk reproducers "
                        "(default: tests/corpus)")
    verify.add_argument("--replay", metavar="FILE", nargs="*", default=None,
                        help="replay reproducer file(s) instead of fuzzing; "
                        "without arguments, replay the whole corpus")
    verify.add_argument("--backend", choices=(*available_backends(), "both"),
                        default="both",
                        help="restrict the oracle's strategy matrix to one "
                        "simulation backend (default: cross-check both)")
    verify.add_argument("--no-shrink", action="store_true",
                        help="archive failures unshrunk (faster triage)")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``repro obs tail ... | head``).  Point
        # stdout at devnull so the exit-time flush cannot raise again,
        # and exit 1 as Python does on EPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
