"""Command-line interface: ``python -m repro`` / ``shmem-switch``.

Subcommands
-----------
``list``
    Show all experiments (Fig. 5 panels and theorem validations).
``policies``
    Show all registered buffer-management policies.
``run EXPERIMENT``
    Run a Fig. 5 panel (prints the ratio table, optionally writes CSV) or
    a theorem validation (prints measured vs. predicted ratio).
``scenario THM``
    Run an adversarial construction with custom ``--k/--buffer`` sizes.
``bench``
    Run the pinned performance panels, write ``BENCH_<tag>.json``, and
    optionally gate against a baseline report (``--baseline`` alone
    gates on regression; with ``--min-speedup`` it gates on a speedup
    floor instead — the vectorized-engine acceptance check).
``golden``
    Check the committed golden decision-stream fixture on both engines
    (``--check``, the default) or regenerate it (``--update``).
``trace``
    Record a pinned bench panel as a JSONL event trace, or replay-verify
    a recorded trace (conservation laws + byte-equal metrics).
``profile``
    Run a sweep experiment and print the per-stage wall-clock breakdown
    (trace generation vs. policy runs vs. OPT surrogate).
``cache``
    Verify the sweep result cache (checksum every entry) or garbage-
    collect corrupt/legacy/quarantined entries.
``check``
    Run the contract-aware static analyzer (determinism lint, hot-path
    allocation audit, policy-API conformance, IO hygiene) over source
    paths. See ``docs/STATIC_ANALYSIS.md``.
``farm``
    The distributed sweep farm (``docs/FARM.md``): ``serve`` runs a
    coordinator waiting for external workers, ``work`` attaches a
    worker to a coordinator, ``status`` snapshots a running farm
    (``--format json`` for machines), ``merge`` folds coordinator and
    worker journals into one canonical journal.

Resilience (see ``docs/RESILIENCE.md``): ``run`` accepts
``--timeout/--retries`` (supervised worker execution), ``--journal``
(checkpointed progress; an interrupted run exits 130 and drops a
resume manifest), ``--resume MANIFEST`` (continue where it stopped),
and ``--inject-faults SPEC`` (deterministic chaos for testing).
``run --farm N`` distributes Fig. 5 cells over N spawned socket
workers (plus any that attach); farmed output is byte-identical to a
local run by contract.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.competitive import run_scenario
from repro.analysis.sweep import SweepResult
from repro.core.errors import (
    ConfigError,
    ReproError,
    SweepExecutionError,
    SweepInterrupted,
)
from repro.experiments.registry import (
    describe_experiment,
    list_experiments,
    run_experiment,
)
from repro.policies import available_policies
from repro.traffic.adversarial import ALL_SCENARIOS


def _cmd_list(_args: argparse.Namespace) -> int:
    for experiment_id in list_experiments():
        print(f"{experiment_id:10s} {describe_experiment(experiment_id)}")
    return 0


def _cmd_policies(_args: argparse.Namespace) -> int:
    for entry in available_policies():
        models = "/".join(sorted(entry.models))
        print(f"{entry.name:8s} [{models:16s}] {entry.summary}")
    return 0


def _sweep_cache_dir(args: argparse.Namespace) -> Optional[str]:
    """Resolve the cache directory from --cache-dir / --no-cache."""
    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    from repro.analysis.cache import default_cache_dir

    return str(default_cache_dir())


def _resilience_options(args: argparse.Namespace):
    """SupervisorOptions from --timeout/--retries (None = defaults)."""
    from repro.resilience import SupervisorOptions

    options = SupervisorOptions()
    if getattr(args, "timeout", None) is not None:
        options.timeout = args.timeout
    if getattr(args, "retries", None) is not None:
        options.retries = args.retries
    return options


def _farm_options(args: argparse.Namespace):
    """FarmOptions from the --farm flag family (None = no farm)."""
    if getattr(args, "farm", None) is None:
        return None
    from repro.farm import FarmOptions

    options = FarmOptions(workers=args.farm)
    if getattr(args, "farm_bind", None):
        options.host = args.farm_bind
    if getattr(args, "farm_port", None) is not None:
        options.port = args.farm_port
    if getattr(args, "farm_lease_ttl", None) is not None:
        options.lease_ttl = args.farm_lease_ttl
    if getattr(args, "farm_heartbeat", None) is not None:
        options.heartbeat_interval = args.farm_heartbeat
    if getattr(args, "farm_heartbeat_timeout", None) is not None:
        options.heartbeat_timeout = args.farm_heartbeat_timeout
    if getattr(args, "farm_join_grace", None) is not None:
        options.join_grace = args.farm_join_grace
    if getattr(args, "farm_max_reissues", None) is not None:
        options.max_reissues = args.farm_max_reissues
    if getattr(args, "farm_worker_journals", None):
        options.worker_journal_dir = args.farm_worker_journals
    options.announce = lambda host, port: print(
        f"# farm: coordinating on {host}:{port} (attach workers with: "
        f"repro farm work --connect {host}:{port})",
        file=sys.stderr,
    )
    return options


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.resilience import (
        FaultInjector,
        RunJournal,
        default_manifest_path,
        load_manifest,
        write_manifest,
    )

    experiment = args.experiment
    if args.resume:
        # The manifest restores the run's identity (experiment, scale,
        # journal, cache); execution knobs (--jobs/--timeout/--retries)
        # come from *this* invocation, so a resume may change them.
        manifest = load_manifest(args.resume)
        experiment = manifest["experiment"]
        saved = manifest.get("options", {})
        if args.slots is None:
            args.slots = saved.get("slots")
        if args.seeds is None:
            args.seeds = saved.get("seeds")
        if not args.journal:
            args.journal = manifest["journal"]
        if not args.cache_dir and saved.get("cache_dir"):
            args.cache_dir = saved["cache_dir"]
        if saved.get("no_cache"):
            args.no_cache = True
    if experiment is None:
        print(
            "run needs an experiment id (or --resume MANIFEST)",
            file=sys.stderr,
        )
        return 2

    progress = None
    if args.progress:
        progress = lambda line: print(line, file=sys.stderr)  # noqa: E731
    journal = RunJournal(args.journal) if args.journal else None
    injector = (
        FaultInjector.parse(args.inject_faults)
        if args.inject_faults
        else None
    )
    try:
        result = run_experiment(
            experiment,
            n_slots=args.slots,
            seeds=args.seeds,
            jobs=args.jobs,
            cache_dir=_sweep_cache_dir(args),
            progress=progress,
            resilience=_resilience_options(args),
            journal=journal,
            fault_injector=injector,
            engine=args.engine,
            trace_reuse=args.trace_reuse or None,
            farm=_farm_options(args),
        )
    except SweepInterrupted as exc:
        print(f"# interrupted: {exc}", file=sys.stderr)
        if args.journal:
            manifest_path = default_manifest_path(args.journal)
            write_manifest(
                manifest_path,
                experiment=experiment,
                journal=args.journal,
                options={
                    "slots": args.slots,
                    "seeds": list(args.seeds) if args.seeds else None,
                    "cache_dir": args.cache_dir,
                    "no_cache": bool(args.no_cache),
                },
                completed=exc.completed,
                total=exc.total,
            )
            print(
                f"# resume with: repro run --resume {manifest_path}",
                file=sys.stderr,
            )
        return 130
    except SweepExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        partial = exc.result
        if partial is not None and partial.points:
            print(
                f"# partial result "
                f"({len(exc.failures)} cells quarantined):"
            )
            print(partial.format_table())
            print(f"# {partial.stats.summary()}")
        return 1
    if isinstance(result, SweepResult):
        print(f"# {experiment}: {describe_experiment(experiment)}")
        print(result.format_table())
        print(f"# {result.stats.summary()}")
        if args.plot:
            from repro.viz import render_sweep

            print()
            print(render_sweep(result))
        if args.out:
            result.to_csv(args.out)
            print(f"# wrote {args.out}")
    elif hasattr(result, "format_table"):
        print(f"# {experiment}: {describe_experiment(experiment)}")
        print(result.format_table())
    else:
        scenario, outcome = result
        print(f"# {scenario.name} ({scenario.theorem})")
        print(f"target policy   : {scenario.target_policy}")
        print(f"predicted ratio : {scenario.predicted_ratio:.4f}")
        print(f"measured ratio  : {outcome.ratio:.4f}")
        print(f"notes           : {scenario.notes}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    """Run the Theorem 7 mapping certificate on an adversarial trace."""
    from repro.analysis.mapping import certify_lwd
    from repro.opt.scripted import ScriptedPolicy

    builder = ALL_SCENARIOS.get(args.theorem)
    if builder is None:
        print(
            f"unknown theorem {args.theorem!r}; known: "
            + ", ".join(ALL_SCENARIOS),
            file=sys.stderr,
        )
        return 2
    kwargs = {"buffer_size": args.buffer}
    if args.theorem not in {"thm6", "thm11"}:
        kwargs["k"] = args.k
    scenario = builder(**kwargs)
    if scenario.by_value or scenario.config.speedup != 1:
        print(
            "the Theorem 7 certificate applies to processing-model "
            "scenarios with C = 1",
            file=sys.stderr,
        )
        return 2
    report = certify_lwd(scenario.trace, scenario.config, ScriptedPolicy())
    print(f"# Theorem 7 certificate on {scenario.name}")
    print(report.summary())
    for violation in report.violations:
        print(f"  {violation}")
    return 0 if report.certified else 1


def _cmd_probe(args: argparse.Namespace) -> int:
    """Probe a value-model policy against the exhaustive true OPT."""
    from repro.analysis.conjecture import adversarial_search, probe_policy

    report = probe_policy(
        args.policy, trials=args.trials, seed=args.seed
    )
    print(report.summary())
    if args.climb:
        found = adversarial_search(
            args.policy,
            restarts=args.restarts,
            steps_per_restart=args.steps,
            seed=args.seed,
        )
        print(
            f"hill-climb worst ratio: {found.ratio:.4f} "
            f"(instance: {found.arrivals})"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Generate the full reproduction report."""
    from repro.experiments.report import ReportOptions, write_report

    options = ReportOptions(
        n_slots=args.slots,
        seeds=tuple(args.seeds),
        include_panels=args.panels,
        jobs=args.jobs,
        cache_dir=_sweep_cache_dir(args),
        progress=(
            (lambda line: print(line, file=sys.stderr))
            if args.progress
            else None
        ),
        engine=args.engine or "reference",
        trace_reuse=bool(args.trace_reuse),
        farm=_farm_options(args),
    )
    try:
        write_report(args.out, options)
    except OSError as exc:
        print(f"error: cannot write report {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"# wrote {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run pinned perf panels; write and optionally gate a report."""
    from repro.bench import (
        PANELS,
        compare_reports,
        compare_speedup,
        format_obs_report,
        format_report,
        load_report,
        run_bench,
        run_obs_bench,
        select_panels,
        write_report,
    )

    if args.min_speedup is not None and not args.baseline:
        print("--min-speedup requires --baseline", file=sys.stderr)
        return 2

    if args.list:
        for name, panel in PANELS.items():
            print(
                f"{name:26s} {panel.model:10s} {panel.workload:11s} "
                f"n={panel.n_ports:<3d} B={panel.buffer_size:<4d} "
                f"slots={panel.n_slots}"
            )
        return 0

    # Read the baseline before measuring: a missing file should not
    # cost a whole bench run first.
    baseline = None
    if args.baseline:
        try:
            baseline = load_report(args.baseline)
        except (OSError, ValueError) as exc:
            print(
                f"error: cannot read baseline {args.baseline}: {exc}",
                file=sys.stderr,
            )
            return 2

    if args.pipeline:
        from repro.bench import (
            PIPELINE_PANELS,
            format_pipeline_report,
            run_pipeline_bench,
        )

        panels = select_panels(args.panels or list(PIPELINE_PANELS))
        accelerated = args.pipeline_mode != "baseline"
        tag = args.tag
        if tag == "local":
            tag = "pipeline" if accelerated else "pipeline_base"
        report = run_pipeline_bench(
            panels,
            tag=tag,
            accelerated=accelerated,
            slots_scale=args.slots_scale,
            repeats=args.repeats,
            progress=lambda line: print(line, file=sys.stderr),
        )
        print(format_pipeline_report(report))
        path = write_report(report, args.out_dir)
        print(f"# wrote {path}")
        if baseline is not None:
            if args.min_speedup is not None:
                shortfalls = compare_speedup(
                    report,
                    baseline,
                    min_speedup=args.min_speedup,
                    panels=args.speedup_panels,
                    tolerance=args.max_regression,
                )
                if shortfalls:
                    print(
                        f"# SPEEDUP SHORTFALL vs {args.baseline} "
                        f"(floor {args.min_speedup:g}x - "
                        f"{args.max_regression:.0%}):",
                        file=sys.stderr,
                    )
                    for shortfall in shortfalls:
                        print(f"#   {shortfall}", file=sys.stderr)
                    return 1
                print(
                    f"# pipeline speedup >= {args.min_speedup:g}x "
                    f"(-{args.max_regression:.0%} fence) vs "
                    f"{args.baseline}"
                )
                return 0
            regressions = compare_reports(
                report, baseline, max_regression=args.max_regression
            )
            if regressions:
                print(
                    f"# REGRESSION vs {args.baseline}:", file=sys.stderr
                )
                for regression in regressions:
                    print(f"#   {regression}", file=sys.stderr)
                return 1
            print(f"# no regression vs {args.baseline}")
        return 0

    panels = select_panels(args.panels)
    if args.obs_overhead:
        report = run_obs_bench(
            panels,
            tag=args.tag if args.tag != "local" else "obs",
            slots_scale=args.slots_scale,
            progress=lambda line: print(line, file=sys.stderr),
        )
        print(format_obs_report(report))
        path = write_report(report, args.out_dir)
        print(f"# wrote {path}")
        return 0
    report = run_bench(
        panels,
        tag=args.tag,
        mode=args.mode,
        slots_scale=args.slots_scale,
        repeats=args.repeats,
        progress=lambda line: print(line, file=sys.stderr),
    )
    print(format_report(report))
    path = write_report(report, args.out_dir)
    print(f"# wrote {path}")

    if baseline is not None:
        if args.min_speedup is not None:
            # Speedup floor (vectorized-engine acceptance): every gated
            # panel must beat the baseline by min_speedup, with the
            # same fractional fence as the regression gate.
            shortfalls = compare_speedup(
                report,
                baseline,
                min_speedup=args.min_speedup,
                panels=args.speedup_panels,
                tolerance=args.max_regression,
            )
            if shortfalls:
                print(
                    f"# SPEEDUP SHORTFALL vs {args.baseline} "
                    f"(floor {args.min_speedup:g}x - "
                    f"{args.max_regression:.0%}):",
                    file=sys.stderr,
                )
                for shortfall in shortfalls:
                    print(f"#   {shortfall}", file=sys.stderr)
                return 1
            print(
                f"# speedup >= {args.min_speedup:g}x "
                f"(-{args.max_regression:.0%} fence) vs {args.baseline}"
            )
            return 0
        regressions = compare_reports(
            report, baseline, max_regression=args.max_regression
        )
        if regressions:
            print(
                f"# REGRESSION vs {args.baseline} "
                f"(>{args.max_regression:.0%} slower):",
                file=sys.stderr,
            )
            for regression in regressions:
                print(f"#   {regression}", file=sys.stderr)
            return 1
        print(f"# no regression vs {args.baseline}")
    return 0


def _cmd_golden(args: argparse.Namespace) -> int:
    """Check or regenerate the golden decision-stream fixture."""
    from repro.goldens import (
        DEFAULT_GOLDEN_PATH,
        check_goldens,
        update_goldens,
    )

    if args.path is None:
        args.path = DEFAULT_GOLDEN_PATH
    if args.update:
        path = update_goldens(args.path, panel_names=args.panels)
        print(f"# wrote {path}")
        return 0
    engines = ("reference", "vectorized")
    if args.engine:
        engines = (args.engine,)
    problems = check_goldens(
        args.path, panel_names=args.panels, engines=engines
    )
    if problems:
        print(f"# GOLDEN MISMATCH vs {args.path}:", file=sys.stderr)
        for problem in problems:
            print(f"#   {problem}", file=sys.stderr)
        return 1
    print(
        f"# goldens hold on {'/'.join(engines)} "
        f"(fixture {args.path})"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Record a bench panel to JSONL, or replay-verify a recorded file."""
    from repro.obs import replay_trace

    if args.verify:
        try:
            result = replay_trace(args.verify)
        except OSError as exc:
            print(
                f"error: cannot read trace {args.verify}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"# {args.verify}")
        print(result.summary())
        result.verify()
        print(
            "# verified: conservation laws hold and replayed metrics are "
            "byte-equal to the recorded run"
        )
        return 0

    if not args.scenario or not args.out:
        print(
            "trace needs either --verify FILE or --scenario PANEL "
            "--out FILE",
            file=sys.stderr,
        )
        return 2
    from repro.bench import PANELS
    from repro.obs import record_trace
    from repro.policies import make_policy

    panel = PANELS.get(args.scenario)
    if panel is None:
        print(
            f"unknown bench panel {args.scenario!r}; known: "
            + ", ".join(PANELS),
            file=sys.stderr,
        )
        return 2
    policy_name = args.policy or panel.policies[0]
    config = panel.config()
    trace = panel.trace(args.slots_scale)
    metrics = record_trace(
        make_policy(policy_name),
        trace,
        config,
        args.out,
        header={
            "panel": panel.name,
            "slots_scale": args.slots_scale,
            "seed": panel.seed,
        },
    )
    print(
        f"# recorded {panel.name} [{policy_name}] -> {args.out}: "
        f"{metrics.slots_elapsed} slots, {metrics.arrived} arrivals, "
        f"{metrics.transmitted_packets} transmitted"
    )
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run a sweep experiment and print its hot-stage breakdown."""
    progress = None
    if args.progress:
        progress = lambda line: print(line, file=sys.stderr)  # noqa: E731
    result = run_experiment(
        args.experiment,
        n_slots=args.slots,
        seeds=args.seeds,
        jobs=args.jobs,
        cache_dir=None,  # caching would hide the cost being measured
        progress=progress,
        engine=args.engine,
        trace_reuse=args.trace_reuse or None,
    )
    if not isinstance(result, SweepResult):
        print(
            f"profile applies to sweep experiments (fig5-1..fig5-9); "
            f"{args.experiment!r} is a single replay",
            file=sys.stderr,
        )
        return 2
    stats = result.stats
    print(f"# {args.experiment}: {describe_experiment(args.experiment)}")
    print(f"# {stats.summary()}")
    total = sum(stats.stage_seconds.values())
    ranked = sorted(
        stats.stage_seconds.items(), key=lambda item: item[1], reverse=True
    )
    print(f"{'stage':12s} {'seconds':>10s} {'share':>7s}")
    for index, (name, seconds) in enumerate(ranked):
        share = seconds / total if total > 0 else 0.0
        flag = "  <- dominant" if index == 0 and total > 0 else ""
        print(f"{name:12s} {seconds:10.4f} {share:6.1%}{flag}")
    overhead = stats.elapsed_seconds - total
    print(f"{'other':12s} {max(overhead, 0.0):10.4f}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Verify or garbage-collect the sweep result cache."""
    from pathlib import Path

    from repro.analysis.cache import SweepCache, default_cache_dir

    root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    cache = SweepCache(root)
    if args.action == "verify":
        report = cache.verify()
        print(f"# {root}: {report.summary()}")
        for path in report.corrupt:
            print(f"corrupt: {path}")
        return 0 if report.clean else 1
    report = cache.gc()
    print(f"# {root}: {report.summary()}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Run the static analyzer; exit 0 clean, 1 findings, 2 bad usage."""
    from repro.check import all_rules, run_check

    if args.list_rules:
        for entry in all_rules():
            if entry.kind == "project":
                scope = "project"
            else:
                scope = ",".join(entry.scope) if entry.scope else "all modules"
            print(f"{entry.code} {entry.name:28s} [{scope}]")
            print(f"      {entry.summary}")
        return 0
    codes = None
    if args.rules:
        codes = [
            code.strip().upper()
            for chunk in args.rules
            for code in chunk.split(",")
            if code.strip()
        ]
    try:
        report = run_check(
            args.paths,
            rules=codes,
            fix_suppressions=args.fix_suppressions,
            project=args.project,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_human())
    return report.exit_code()


def _cmd_scenario(args: argparse.Namespace) -> int:
    builder = ALL_SCENARIOS.get(args.theorem)
    if builder is None:
        print(
            f"unknown theorem {args.theorem!r}; known: "
            + ", ".join(ALL_SCENARIOS),
            file=sys.stderr,
        )
        return 2
    kwargs = {}
    if args.theorem in {"thm6", "thm11"}:
        kwargs["buffer_size"] = args.buffer
    else:
        kwargs["k"] = args.k
        kwargs["buffer_size"] = args.buffer
    scenario = builder(**kwargs)
    outcome = run_scenario(scenario)
    print(f"# {scenario.name} ({scenario.theorem})")
    print(f"target policy   : {scenario.target_policy}")
    print(f"predicted ratio : {scenario.predicted_ratio:.4f}")
    print(f"measured ratio  : {outcome.ratio:.4f}")
    print(f"notes           : {scenario.notes}")
    return 0


def _parse_endpoint(text: str) -> tuple:
    """Split ``HOST:PORT`` (the --connect argument)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ConfigError(
            f"expected HOST:PORT, got {text!r} (e.g. 127.0.0.1:7787)"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise ConfigError(
            f"bad port in {text!r}: {port!r} is not an integer"
        ) from exc


def _cmd_farm_serve(args: argparse.Namespace) -> int:
    """Run a coordinator that waits for externally attached workers.

    Sugar over ``repro run --farm``: binds a fixed, announceable port,
    spawns no local workers by default, and waits ``--join-grace``
    seconds for a fleet before falling back to local execution.
    """
    run_args = argparse.Namespace(
        experiment=args.experiment,
        resume=None,
        slots=args.slots,
        seeds=args.seeds,
        out=args.out,
        plot=False,
        engine=None,
        trace_reuse=False,
        jobs=1,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        progress=args.progress,
        timeout=None,
        retries=args.retries,
        journal=args.journal,
        inject_faults=args.inject_faults,
        farm=args.workers,
        farm_bind=args.bind,
        farm_port=args.port,
        farm_lease_ttl=args.lease_ttl,
        farm_heartbeat=None,
        farm_heartbeat_timeout=None,
        farm_join_grace=args.join_grace,
        farm_max_reissues=args.max_reissues,
        farm_worker_journals=args.worker_journals,
    )
    return _cmd_run(run_args)


def _cmd_farm_work(args: argparse.Namespace) -> int:
    """Attach one worker to a running coordinator and serve leases."""
    from repro.farm import FarmWorker
    from repro.resilience import FaultInjector

    host, port = _parse_endpoint(args.connect)
    injector = (
        FaultInjector.parse(args.inject_faults)
        if args.inject_faults
        else FaultInjector.from_env()
    )
    worker = FarmWorker(
        host,
        port,
        name=args.name,
        injector=injector,
        journal_path=args.journal,
    )
    cells = worker.run()
    print(f"# worker {worker.name}: {cells} cells computed", file=sys.stderr)
    return 0


def _cmd_farm_status(args: argparse.Namespace) -> int:
    """Snapshot a running farm over its own socket."""
    import json
    import socket

    from repro.farm import protocol

    host, port = _parse_endpoint(args.connect)
    try:
        sock = socket.create_connection((host, port), timeout=args.timeout)
    except OSError as exc:
        print(
            f"error: no farm at {host}:{port}: {exc}", file=sys.stderr
        )
        return 1
    stream = protocol.MessageStream(sock)
    try:
        stream.send(protocol.status_query())
        try:
            reply = stream.recv(timeout=args.timeout)
        except socket.timeout:
            reply = None
    finally:
        stream.close()
    if reply is None or reply.get("t") != "status":
        print(
            f"error: {host}:{port} did not answer the status query "
            f"(not a farm coordinator?)",
            file=sys.stderr,
        )
        return 1
    reply.pop("t", None)
    if args.format == "json":
        print(json.dumps(reply, indent=2, sort_keys=True))
        return 0
    cells = reply.get("cells") or {}
    print(
        f"# farm {reply.get('endpoint', args.connect)}: "
        f"{reply.get('experiment') or '?'} [{reply.get('state', '?')}] "
        f"{cells.get('done', 0)}/{cells.get('total', '?')} cells"
    )
    for worker in reply.get("workers") or []:
        state = "live" if worker.get("live") else "LOST"
        busy = "busy" if worker.get("busy") else "idle"
        print(
            f"worker {worker.get('name'):16s} {state:4s} {busy:4s} "
            f"last beat {worker.get('beat_age', '?')}s ago"
        )
    ledger = reply.get("ledger") or {}
    interesting = {k: v for k, v in ledger.items() if v}
    if interesting:
        print(
            "# ledger: "
            + ", ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
        )
    return 0


def _cmd_farm_merge(args: argparse.Namespace) -> int:
    """Fold coordinator + worker journals into one canonical journal."""
    from repro.farm import merge_run_journals

    report = merge_run_journals(args.journals, out=args.out)
    if args.format == "json":
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(
        f"# merged {len(report['sources'])} journals: "
        f"{report['cells']} cells, {report['duplicates']} duplicate "
        f"recordings (all digest-equal)"
    )
    print(f"# canonical digest: {report['digest']}")
    if report["out"]:
        print(f"# wrote {report['out']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shmem-switch",
        description=(
            "Shared-memory switch buffer management (ICDCS 2014 "
            "reproduction): run experiments and validations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(
        func=_cmd_list
    )
    sub.add_parser("policies", help="list policies").set_defaults(
        func=_cmd_policies
    )

    run_parser = sub.add_parser("run", help="run an experiment by id")
    run_parser.add_argument(
        "experiment", nargs="?", default=None,
        help="e.g. fig5-1 or thm6 (optional with --resume)",
    )
    run_parser.add_argument(
        "--slots", type=int, default=None,
        help="simulation length in slots (Fig. 5 panels)",
    )
    run_parser.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="replication seeds (Fig. 5 panels)",
    )
    run_parser.add_argument("--out", default=None, help="CSV output path")
    run_parser.add_argument(
        "--plot", action="store_true",
        help="render the sweep as an ASCII chart after the table",
    )
    run_parser.add_argument(
        "--engine", choices=("reference", "vectorized"), default=None,
        help=(
            "ALG-side simulation engine for Fig. 5 panels "
            "(decision-identical by contract; default reference)"
        ),
    )
    _add_pipeline_flags(run_parser)
    _add_sweep_engine_flags(run_parser)
    _add_resilience_flags(run_parser)
    _add_farm_flags(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    cache_parser = sub.add_parser(
        "cache", help="verify or garbage-collect the sweep result cache"
    )
    cache_parser.add_argument(
        "action", choices=("verify", "gc"),
        help=(
            "verify: checksum every entry (exit 1 on corruption); "
            "gc: delete corrupt/legacy/quarantined entries"
        ),
    )
    cache_parser.add_argument(
        "--cache-dir", default=None,
        help=(
            "cache directory (default: $SHMEM_CACHE_DIR or "
            "results/sweep-cache)"
        ),
    )
    cache_parser.set_defaults(func=_cmd_cache)

    check_parser = sub.add_parser(
        "check",
        help=(
            "static analysis: determinism/hot-path/policy-API/IO/"
            "concurrency/wire-conformance rules"
        ),
    )
    check_parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    check_parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default human; json is the CI artifact)",
    )
    check_parser.add_argument(
        "--project", action=argparse.BooleanOptionalAction, default=True,
        help=(
            "run the cross-module phase (RC5xx lock-set + RC6xx wire "
            "conformance) over the whole analyzed tree (default on; "
            "--no-project = per-module rules only)"
        ),
    )
    check_parser.add_argument(
        "--rules", action="append", default=None, metavar="RCxxx",
        help=(
            "restrict to these rule codes (comma-separated; "
            "repeatable)"
        ),
    )
    check_parser.add_argument(
        "--fix-suppressions", action="store_true",
        help="delete stale allow[] pragmas (RC902) from the files",
    )
    check_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    check_parser.set_defaults(func=_cmd_check)

    scen_parser = sub.add_parser(
        "scenario", help="run an adversarial construction at custom sizes"
    )
    scen_parser.add_argument(
        "theorem",
        help="thm1/thm3/thm4/thm5/thm6/thm9/thm10/thm11/greedy",
    )
    scen_parser.add_argument("--k", type=int, default=12)
    scen_parser.add_argument("--buffer", type=int, default=240)
    scen_parser.set_defaults(func=_cmd_scenario)

    certify_parser = sub.add_parser(
        "certify",
        help="run the Theorem 7 mapping certificate on a theorem trace",
    )
    certify_parser.add_argument(
        "theorem", help="a processing-model construction, e.g. thm4 or thm6"
    )
    certify_parser.add_argument("--k", type=int, default=9)
    certify_parser.add_argument("--buffer", type=int, default=108)
    certify_parser.set_defaults(func=_cmd_certify)

    probe_parser = sub.add_parser(
        "probe",
        help="probe a value-model policy against the exhaustive true OPT",
    )
    probe_parser.add_argument("policy", help="e.g. MRD, MVD, LQD-V, Greedy")
    probe_parser.add_argument("--trials", type=int, default=200)
    probe_parser.add_argument("--seed", type=int, default=0)
    probe_parser.add_argument(
        "--climb", action="store_true",
        help="also run the adversarial hill-climb",
    )
    probe_parser.add_argument("--restarts", type=int, default=5)
    probe_parser.add_argument("--steps", type=int, default=60)
    probe_parser.set_defaults(func=_cmd_probe)

    report_parser = sub.add_parser(
        "report",
        help="run everything and write a Markdown reproduction report",
    )
    report_parser.add_argument("--out", default="report.md")
    report_parser.add_argument("--slots", type=int, default=1000)
    report_parser.add_argument(
        "--seeds", type=int, nargs="+", default=[0]
    )
    report_parser.add_argument(
        "--panels", type=int, nargs="*", default=None,
        help="restrict to these Fig. 5 panels (default: all nine)",
    )
    report_parser.add_argument(
        "--engine", choices=("reference", "vectorized"), default=None,
        help="ALG-side simulation engine for the Fig. 5 panels",
    )
    _add_pipeline_flags(report_parser)
    _add_sweep_engine_flags(report_parser)
    _add_farm_flags(report_parser)
    report_parser.set_defaults(func=_cmd_report)

    bench_parser = sub.add_parser(
        "bench",
        help="run pinned performance panels and write BENCH_<tag>.json",
    )
    bench_parser.add_argument(
        "--tag", default="local",
        help="report tag; output file is BENCH_<tag>.json (default local)",
    )
    bench_parser.add_argument(
        "--out-dir", default="benchmarks",
        help="directory for the report (default benchmarks/)",
    )
    bench_parser.add_argument(
        "--panels", nargs="*", default=None,
        help="panel names, or small / large / all (default all)",
    )
    bench_parser.add_argument(
        "--mode", choices=("fast", "naive", "vectorized"), default="fast",
        help=(
            "engine/selector to time: the reference engine's fast or "
            "naive selector over the object trace, or the columnar "
            "vectorized engine over the columnar trace (default fast)"
        ),
    )
    bench_parser.add_argument(
        "--slots-scale", type=float, default=1.0,
        help="multiply every panel's slot count (recorded in the report)",
    )
    bench_parser.add_argument(
        "--repeats", type=int, default=1,
        help=(
            "run each panel this many times and report the best "
            "throughput (default 1; CI gates should use >= 3)"
        ),
    )
    bench_parser.add_argument(
        "--baseline", default=None,
        help="gate against this BENCH_*.json; exit 1 on regression",
    )
    bench_parser.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fractional slots/s drop vs baseline (default 0.25)",
    )
    bench_parser.add_argument(
        "--min-speedup", type=float, default=None,
        help=(
            "require every gated panel to beat the --baseline report "
            "by this factor (25%%-fence style: the effective floor is "
            "MIN_SPEEDUP * (1 - --max-regression)); exit 1 on shortfall"
        ),
    )
    bench_parser.add_argument(
        "--speedup-panels", nargs="*", default=None,
        help=(
            "restrict the --min-speedup gate to these panels "
            "(default: every panel present in both reports)"
        ),
    )
    bench_parser.add_argument(
        "--list", action="store_true",
        help="list the pinned panels and exit",
    )
    bench_parser.add_argument(
        "--pipeline", action="store_true",
        help=(
            "measure end-to-end sweep cells (trace gen + policies + "
            "OPT surrogate) instead of the raw slot loop; default "
            "panels are the large-n pipeline set"
        ),
    )
    bench_parser.add_argument(
        "--pipeline-mode", choices=("accelerated", "baseline"),
        default="accelerated",
        help=(
            "accelerated: columnar traces + reuse + vectorized OPT; "
            "baseline: object traces regenerated per cell + reference "
            "OPT (the tracked pre-pipeline state)"
        ),
    )
    bench_parser.add_argument(
        "--obs-overhead", action="store_true",
        help=(
            "measure JSONL event-recording overhead instead of raw "
            "throughput (writes BENCH_obs.json by default)"
        ),
    )
    bench_parser.set_defaults(func=_cmd_bench)

    golden_parser = sub.add_parser(
        "golden",
        help=(
            "check the committed decision-stream goldens on both "
            "engines, or regenerate them"
        ),
    )
    golden_parser.add_argument(
        "--check", action="store_true",
        help="verify the fixture (the default action)",
    )
    golden_parser.add_argument(
        "--update", action="store_true",
        help="recompute the fixture on the reference engine and write it",
    )
    golden_parser.add_argument(
        "--path", default=None,
        help="fixture path (default benchmarks/GOLDEN_streams.json)",
    )
    golden_parser.add_argument(
        "--panels", nargs="*", default=None,
        help="restrict to these bench panels (default: all committed)",
    )
    golden_parser.add_argument(
        "--engine", choices=("reference", "vectorized"), default=None,
        help="check a single engine instead of both",
    )
    golden_parser.set_defaults(func=_cmd_golden)

    trace_parser = sub.add_parser(
        "trace",
        help="record a bench panel as a JSONL event trace, or verify one",
    )
    trace_parser.add_argument(
        "--scenario", default=None,
        help="bench panel to record (see `repro bench --list`)",
    )
    trace_parser.add_argument(
        "--policy", default=None,
        help="policy to drive (default: the panel's first pinned policy)",
    )
    trace_parser.add_argument(
        "--out", default=None, help="output JSONL path for recording"
    )
    trace_parser.add_argument(
        "--slots-scale", type=float, default=1.0,
        help="scale the panel's slot count (recorded in the header)",
    )
    trace_parser.add_argument(
        "--verify", default=None, metavar="FILE",
        help=(
            "replay FILE, check conservation laws, and require replayed "
            "metrics byte-equal to the recorded footer"
        ),
    )
    trace_parser.set_defaults(func=_cmd_trace)

    profile_parser = sub.add_parser(
        "profile",
        help="run a sweep experiment and print per-stage timings",
    )
    profile_parser.add_argument("experiment", help="e.g. fig5-1")
    profile_parser.add_argument(
        "--slots", type=int, default=None,
        help="simulation length in slots",
    )
    profile_parser.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="replication seeds",
    )
    profile_parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (stage times sum worker wall-clock)",
    )
    profile_parser.add_argument(
        "--progress", action="store_true",
        help="report per-cell progress on stderr",
    )
    profile_parser.add_argument(
        "--engine", choices=("reference", "vectorized"), default=None,
        help="ALG-side simulation engine (default reference)",
    )
    _add_pipeline_flags(profile_parser)
    profile_parser.set_defaults(func=_cmd_profile)

    farm_parser = sub.add_parser(
        "farm",
        help=(
            "distributed sweep farm: serve a coordinator, attach "
            "workers, query status, merge journals (docs/FARM.md)"
        ),
    )
    farm_sub = farm_parser.add_subparsers(dest="farm_command", required=True)

    serve_parser = farm_sub.add_parser(
        "serve",
        help=(
            "run a coordinator on a fixed port and wait for external "
            "workers (repro farm work --connect HOST:PORT)"
        ),
    )
    serve_parser.add_argument(
        "experiment", help="a sweep experiment id, e.g. fig5-1"
    )
    serve_parser.add_argument(
        "--port", type=int, default=7787,
        help="listen port for workers (default 7787)",
    )
    serve_parser.add_argument(
        "--bind", default="0.0.0.0",
        help="listen address (default 0.0.0.0: accept remote workers)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=0,
        help=(
            "local worker subprocesses to spawn alongside external "
            "ones (default 0: external only)"
        ),
    )
    serve_parser.add_argument(
        "--join-grace", type=float, default=60.0,
        help=(
            "seconds to wait for a first/replacement worker before "
            "falling back to local execution (default 60)"
        ),
    )
    serve_parser.add_argument(
        "--lease-ttl", type=float, default=None,
        help="per-lease completion deadline in seconds (default 30)",
    )
    serve_parser.add_argument(
        "--max-reissues", type=int, default=None,
        help=(
            "replacement leases per cell before local fallback "
            "(default 4)"
        ),
    )
    serve_parser.add_argument(
        "--worker-journals", default=None, metavar="DIR",
        help=(
            "directory for per-worker journals of *spawned* workers "
            "(merge with: repro farm merge)"
        ),
    )
    serve_parser.add_argument(
        "--slots", type=int, default=None,
        help="simulation length in slots",
    )
    serve_parser.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="replication seeds",
    )
    serve_parser.add_argument("--out", default=None, help="CSV output path")
    serve_parser.add_argument(
        "--journal", default=None, metavar="FILE",
        help="coordinator journal (as repro run --journal)",
    )
    serve_parser.add_argument(
        "--retries", type=int, default=None,
        help="extra attempts per cell before quarantine (default 2)",
    )
    serve_parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help=(
            "deterministic chaos spec, forwarded to spawned workers "
            "(see docs/RESILIENCE.md)"
        ),
    )
    serve_parser.add_argument(
        "--cache-dir", default=None,
        help="sweep result cache directory",
    )
    serve_parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the sweep result cache",
    )
    serve_parser.add_argument(
        "--progress", action="store_true",
        help="report per-cell progress on stderr",
    )
    serve_parser.set_defaults(func=_cmd_farm_serve)

    work_parser = farm_sub.add_parser(
        "work", help="attach one worker to a running coordinator"
    )
    work_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the coordinator endpoint printed by serve/run --farm",
    )
    work_parser.add_argument(
        "--name", default=None,
        help="registration name (default worker-<pid>); reconnects "
        "reuse it",
    )
    work_parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help=(
            "deterministic chaos spec for this worker (default: "
            "$REPRO_FAULTS)"
        ),
    )
    work_parser.add_argument(
        "--journal", default=None, metavar="FILE",
        help=(
            "per-worker journal of computed cells, under the sweep "
            "identity from the coordinator (repro farm merge)"
        ),
    )
    work_parser.set_defaults(func=_cmd_farm_work)

    status_parser = farm_sub.add_parser(
        "status", help="snapshot a running farm (workers, cells, ledger)"
    )
    status_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the coordinator endpoint",
    )
    status_parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (json prints the raw snapshot)",
    )
    status_parser.add_argument(
        "--timeout", type=float, default=5.0,
        help="connect/read timeout in seconds (default 5)",
    )
    status_parser.set_defaults(func=_cmd_farm_status)

    merge_parser = farm_sub.add_parser(
        "merge",
        help=(
            "fold coordinator + worker journals into one canonical "
            "journal, verifying duplicate cells are digest-equal"
        ),
    )
    merge_parser.add_argument(
        "journals", nargs="+", help="journal files to merge"
    )
    merge_parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the canonical merged journal here (atomic)",
    )
    merge_parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="report format",
    )
    merge_parser.set_defaults(func=_cmd_farm_merge)
    return parser


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    """Trace-pipeline knob shared by ``run``/``report``/``profile``.

    Like ``--engine`` it is execution-only: trace reuse only skips
    regenerating identical traces — output bytes never change
    (docs/PIPELINE.md).
    """
    parser.add_argument(
        "--trace-reuse", action="store_true",
        help=(
            "generate each distinct trace once per sweep and replay it "
            "across cells that provably share it (B/C sweeps)"
        ),
    )


def _add_sweep_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Parallel/caching knobs shared by ``run`` and ``report``.

    They configure the Fig. 5 sweep engine and are ignored by theorem
    replays (single deterministic traces). Parallel and cached runs are
    byte-identical to serial uncached runs — see docs/REPRODUCTION.md.
    """
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for sweep cells (0 = all cores; default 1)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help=(
            "sweep result cache directory (default: $SHMEM_CACHE_DIR or "
            "results/sweep-cache)"
        ),
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the sweep result cache for this run",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="report per-cell sweep progress on stderr",
    )


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """Supervision/checkpoint knobs of ``run`` (docs/RESILIENCE.md).

    Like the sweep-engine flags they apply to Fig. 5 panels only; none
    of them changes the sweep's output bytes.
    """
    parser.add_argument(
        "--timeout", type=float, default=None,
        help=(
            "per-cell wall-clock budget in seconds (parallel runs only; "
            "default: none)"
        ),
    )
    parser.add_argument(
        "--retries", type=int, default=None,
        help=(
            "extra attempts per cell before it is quarantined "
            "(default 2)"
        ),
    )
    parser.add_argument(
        "--journal", default=None, metavar="FILE",
        help=(
            "append completed cells to this JSONL journal; an "
            "interrupted run (SIGINT/SIGTERM) exits 130 and writes "
            "FILE.manifest.json for --resume"
        ),
    )
    parser.add_argument(
        "--resume", default=None, metavar="MANIFEST",
        help=(
            "resume an interrupted run from its manifest, skipping "
            "every journaled cell"
        ),
    )
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help=(
            "deterministic chaos spec for testing, e.g. "
            "'crash@0;hang@2;delay=0.2' (also: $REPRO_FAULTS; see "
            "docs/RESILIENCE.md)"
        ),
    )


def _add_farm_flags(parser: argparse.ArgumentParser) -> None:
    """Farm knobs of ``run``/``report`` (docs/FARM.md).

    ``--farm N`` turns the sweep farm on; like ``--jobs`` it is
    execution-only — farmed output is byte-identical to a local run.
    """
    parser.add_argument(
        "--farm", type=int, default=None, metavar="N",
        help=(
            "distribute sweep cells over N spawned socket workers "
            "(0 = externally attached workers only; default: no farm)"
        ),
    )
    parser.add_argument(
        "--farm-bind", default=None, metavar="HOST",
        help="coordinator listen address (default 127.0.0.1)",
    )
    parser.add_argument(
        "--farm-port", type=int, default=None,
        help=(
            "coordinator listen port for external workers "
            "(default: ephemeral)"
        ),
    )
    parser.add_argument(
        "--farm-lease-ttl", type=float, default=None,
        help="per-lease completion deadline in seconds (default 30)",
    )
    parser.add_argument(
        "--farm-heartbeat", type=float, default=None,
        help="worker heartbeat interval in seconds (default 0.5)",
    )
    parser.add_argument(
        "--farm-heartbeat-timeout", type=float, default=None,
        help=(
            "silence that declares a worker lost, in seconds "
            "(default 5)"
        ),
    )
    parser.add_argument(
        "--farm-join-grace", type=float, default=None,
        help=(
            "seconds to run with zero live workers before local "
            "fallback (default 10)"
        ),
    )
    parser.add_argument(
        "--farm-max-reissues", type=int, default=None,
        help=(
            "replacement leases per cell before local fallback "
            "(default 4)"
        ),
    )
    parser.add_argument(
        "--farm-worker-journals", default=None, metavar="DIR",
        help=(
            "directory for per-worker journals of spawned workers "
            "(merge with: repro farm merge)"
        ),
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
