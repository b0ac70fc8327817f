"""Command-line entry point: run the paper's experiment on a benchmark.

Usage::

    python -m repro [benchmark] [--svg layout.svg] [--technique voltage]
                    [--seed N] [--max-random-patterns N]
                    [--profile] [--trace run.jsonl] [--trace-format jsonl]
                    [--progress] [--events events.jsonl]
                    [--checkpoint-dir DIR] [--resume]
    python -m repro analyze [circuit ...] [--quick] [--json FILE]
                    [--fail-on-error]
    python -m repro obs {list,diff,check-bench,html} ...
    python -m repro campaign {run,resume,status,trace,report,gc,compact} ...

The default command prints the coverage-growth table (fig. 4), the
defect-level comparison (fig. 5) and the fitted eq.-11 parameters;
optionally renders the generated layout to SVG.  ``--profile`` prints a
per-stage timing tree and a metric table after the run; ``--trace FILE``
appends a JSON-lines run manifest (config hash, stage durations, metrics,
fitted parameters) to ``FILE``, or — with ``--trace-format chrome`` —
writes a Chrome/Perfetto trace instead (load it in ``chrome://tracing`` or
https://ui.perfetto.dev).  ``--progress`` renders live progress on stderr
(patterns applied, faults remaining, detection rate, ETA) and ``--events
FILE`` streams every pipeline event to FILE as JSON lines.
``--checkpoint-dir DIR``
persists every completed pipeline stage under ``DIR`` (keyed by
configuration hash) and ``--resume`` restores the stages a previous,
interrupted run already completed; a corrupt checkpoint exits non-zero
with a one-line message.

``analyze`` runs the static-analysis subsystem (lint, SCOAP testability,
implication-based untestable-fault screening) over one or more built-in
circuits without simulating anything; ``--quick`` skips the implication
screen, ``--json FILE`` writes the machine-readable report, and
``--fail-on-error`` exits non-zero when any circuit has ERROR-severity
findings (the CI gate).

``obs`` inspects recorded history (see :mod:`repro.obs.cli`): ``list``
tabulates the runs in trace files, ``diff`` compares two runs field by
field, and ``check-bench`` gates fresh ``BENCH_*.json`` timings against a
committed baseline.

``campaign`` orchestrates *many* experiments as one crash-safe unit (see
:mod:`repro.campaign.cli`): a JSON spec expands into content-addressed
jobs, a write-ahead journal makes ``kill -9`` recoverable via ``campaign
resume``, and completed configurations are served from the result cache
with zero recomputation.  ``campaign run --progress`` renders a live
per-job fleet table, ``status --follow`` watches a campaign read-only from
another terminal, ``trace`` exports a Chrome/Perfetto trace built from the
journal alone (one lane group per job), and ``report`` renders a
self-contained HTML sweep report with gantt, sweep-axis, cache-economics
and regression panels.

A single run interrupted with Ctrl-C exits ``130`` after flushing its
stage checkpoints (when ``--checkpoint-dir`` is active) and appending an
interrupted-run manifest line (when ``--trace`` is active), with a
one-line hint on how to resume.
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.circuit.iscas import BENCHMARKS
from repro.core import ppm, williams_brown
from repro.experiments import (
    ExperimentConfig,
    cache_info,
    format_table,
    run_experiment,
)
from repro.resilience import CheckpointError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the DATE'94 defect-level experiment.",
    )
    parser.add_argument(
        "benchmark",
        nargs="?",
        default="c432",
        choices=sorted(BENCHMARKS),
        help="circuit to run (default: c432)",
    )
    parser.add_argument(
        "--technique",
        default="voltage",
        choices=["voltage", "voltage-strict", "iddq", "either"],
        help="detection technique for theta (default: voltage)",
    )
    parser.add_argument(
        "--yield",
        dest="target_yield",
        type=float,
        default=0.75,
        help="yield to scale the fault weights to (default: 0.75)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=ExperimentConfig.seed,
        help=f"PRNG seed for the random prefix (default: {ExperimentConfig.seed})",
    )
    parser.add_argument(
        "--max-random-patterns",
        type=int,
        default=ExperimentConfig.max_random_patterns,
        help=(
            "cap on random vectors before the PODEM top-off "
            f"(default: {ExperimentConfig.max_random_patterns})"
        ),
    )
    parser.add_argument(
        "--svg", metavar="FILE", help="also render the layout to this SVG file"
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-stage timing tree and metric table after the run",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "write a trace to FILE: a JSON-lines run manifest (default "
            "format, appended) or a Chrome trace (--trace-format chrome)"
        ),
    )
    parser.add_argument(
        "--trace-format",
        default="jsonl",
        choices=["jsonl", "chrome"],
        help=(
            "trace file format: 'jsonl' run manifest (default) or 'chrome' "
            "trace-event JSON for chrome://tracing / Perfetto"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render live progress (ETA, detection rate) on stderr",
    )
    parser.add_argument(
        "--events",
        metavar="FILE",
        help="stream pipeline events to FILE as JSON lines (tailable)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help=(
            "persist each completed pipeline stage under DIR (keyed by the "
            "configuration hash) so an interrupted run can be resumed"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "restore stages already checkpointed by an identical "
            "configuration instead of recomputing them "
            "(requires --checkpoint-dir)"
        ),
    )
    return parser


#: Version of the ``analyze --json`` / ``--certificates`` payload shape.
#: Bumped when keys are renamed or removed; additions keep the version.
#: Version 3 dropped the prover's ``depth``; version 4 dropped
#: ``engine_preflight``.
_ANALYZE_SCHEMA_VERSION = 4


def build_analyze_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="Static netlist analysis: lint, SCOAP, untestable faults.",
    )
    parser.add_argument(
        "circuits",
        nargs="*",
        metavar="circuit",
        help="circuits to analyze (default: every built-in benchmark)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="skip the implication-based untestable-fault screen",
    )
    parser.add_argument(
        "--prove",
        action="store_true",
        help=(
            "run the proof-carrying redundancy prover in place of the screen "
            "(implications + static learning; every verdict carries a "
            "certificate re-verified by the independent checker)"
        ),
    )
    parser.add_argument(
        "--certificates",
        metavar="FILE",
        help="with --prove, write every checked certificate to FILE as JSON",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write the full machine-readable report to FILE",
    )
    parser.add_argument(
        "--fail-on-error",
        action="store_true",
        help="exit 1 when any circuit has ERROR-severity lint findings",
    )
    return parser


def analyze_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro analyze``."""
    import json

    from repro.analysis import analyze_circuit
    from repro.circuit.iscas import load_benchmark

    args = build_analyze_parser().parse_args(argv)
    names = args.circuits or sorted(BENCHMARKS)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        print(
            f"error: unknown circuit(s): {', '.join(unknown)} "
            f"(choose from {', '.join(sorted(BENCHMARKS))})",
            file=sys.stderr,
        )
        return 2

    if args.certificates and not args.prove:
        print("error: --certificates requires --prove", file=sys.stderr)
        return 2

    reports = []
    certificates: dict[str, list[dict[str, object]]] = {}
    any_errors = False
    for name in names:
        circuit = load_benchmark(name)
        result = analyze_circuit(circuit, quick=args.quick, prove=args.prove)
        reports.append(result.to_dict())
        if result.prover is not None:
            certificates[name] = list(result.prover.certificates)
        any_errors = any_errors or not result.ok
        print(result.lint.render_text())
        if result.scoap is not None:
            from repro.analysis import UNOBSERVABLE

            hardest = ", ".join(
                f"{net} ({'unobservable' if score >= UNOBSERVABLE else score})"
                for net, score in result.scoap.hardest_nets(3)
            )
            print(f"  scoap: hardest nets {hardest}")
        if result.untestable is not None:
            n_flagged = len(result.untestable.untestable)
            print(
                f"  untestable: {n_flagged} of "
                f"{result.untestable.n_screened} faults proved untestable"
            )
            for fault in result.untestable.untestable[:10]:
                reason = result.untestable.reasons[fault]
                print(f"    {fault}  [{reason}]")
            if n_flagged > 10:
                print(f"    ... and {n_flagged - 10} more")
        if result.prover is not None:
            prover = result.prover
            methods = ", ".join(
                f"{m}={n}" for m, n in sorted(prover.by_method.items())
            )
            print(
                f"  prover: {len(prover.proved)} of {prover.n_screened} "
                "faults proved untestable"
                f"{' (' + methods + ')' if methods else ''}; "
                f"{len(prover.certificates)} certificates checked, "
                f"{prover.certs_failed} failed"
            )

    if args.certificates:
        with open(args.certificates, "w", encoding="utf-8") as sink:
            json.dump(
                {
                    "schema_version": _ANALYZE_SCHEMA_VERSION,
                    "certificates": certificates,
                },
                sink,
                indent=1,
                sort_keys=True,
            )
            sink.write("\n")
        n_certs = sum(len(c) for c in certificates.values())
        print(f"{n_certs} certificates written to {args.certificates}")

    if args.json:
        payload = {
            "schema_version": _ANALYZE_SCHEMA_VERSION,
            "circuits": reports,
        }
        with open(args.json, "w", encoding="utf-8") as sink:
            json.dump(payload, sink, indent=2, sort_keys=True)
            sink.write("\n")
        print(f"report written to {args.json}")

    if args.fail_on_error and any_errors:
        print("error: ERROR-severity lint findings present", file=sys.stderr)
        return 1
    return 0


def _prover_summary(result) -> dict[str, object] | None:
    """Redundancy-prover facts for the run manifest (None when it didn't run).

    Alongside the proved counts this records the PODEM search statistics so
    the manifest shows what the learned implications bought the ATPG stage.
    """
    analysis = result.analysis
    if analysis is None or analysis.prover is None:
        return None
    prover = analysis.prover
    return {
        "n_proved": len(prover.proved),
        "n_screened": prover.n_screened,
        "by_method": dict(prover.by_method),
        "n_learned": prover.n_learned,
        "certs_failed": prover.certs_failed,
        "podem": dict(result.podem_stats),
    }


#: n-detection depths beyond this collapse into one ">= cap" bin.
_N_DETECTION_CAP = 16


def _build_curves(result, fit) -> dict[str, object]:
    """Sampled per-run curves for the manifest (dashboard source data).

    The dashboard renderer (:mod:`repro.obs.html`) is stdlib-only and must
    not import :mod:`repro.core` (numpy/scipy), so the fitted eq.-11 DL(T)
    curve is sampled *here*, where the fit object already exists, and stored
    as plain points.
    """
    y = result.config.target_yield
    ks: list[int] = []
    t_series: list[float] = []
    theta_series: list[float] = []
    dl_series: list[float] = []
    for k, t, theta, _gamma, dl in result.series():
        ks.append(k)
        t_series.append(round(t, 6))
        theta_series.append(round(theta, 6))
        dl_series.append(round(dl, 9))
    t_lo = min(t_series) if t_series else 0.0
    fit_t = [t_lo + (1.0 - t_lo) * i / 40.0 for i in range(41)]
    fit_dl = [round(float(fit.predict(y, t)), 9) for t in fit_t]
    # n-detection depth histogram (Pomeranz/Reddy): how many faults the
    # sequence detected exactly d times; depth 0 is the undetected set.
    stuck = result.stuck_result
    depth_counts = [0] * (_N_DETECTION_CAP + 1)
    for count in stuck.detection_counts.values():
        depth_counts[min(count, _N_DETECTION_CAP)] += 1
    depth_counts[0] += len(stuck.faults) - len(stuck.detection_counts)
    return {
        "k": ks,
        "T": t_series,
        "theta": theta_series,
        "DL": dl_series,
        "fit_T": [round(t, 6) for t in fit_t],
        "fit_DL": fit_dl,
        "n_detection": {
            "depth_cap": _N_DETECTION_CAP,
            "counts": depth_counts,
            "coverage_ge": [
                round(stuck.n_detection_coverage(n), 6)
                for n in range(1, 11)
            ],
        },
    }


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "analyze":
        return analyze_main(argv[1:])
    if argv and argv[0] == "obs":
        from repro.obs.cli import obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == "campaign":
        from repro.campaign.cli import campaign_main

        return campaign_main(argv[1:])
    args = build_parser().parse_args(argv)

    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.trace_format == "chrome" and not args.trace:
        print(
            "error: --trace-format chrome requires --trace FILE",
            file=sys.stderr,
        )
        return 2
    if args.trace:
        # Fail fast on an unwritable sink rather than after a full run.
        try:
            with open(args.trace, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"error: cannot write trace file {args.trace}: {exc}", file=sys.stderr)
            return 2

    instrumented = args.profile or args.trace
    if instrumented:
        collector, metrics = obs.enable()

    # The event bus runs whenever any consumer wants live events: the
    # progress renderer, the JSONL event stream, or the Chrome exporter
    # (which places retry/checkpoint instant markers on the timeline).
    chrome = bool(args.trace) and args.trace_format == "chrome"
    streaming = args.progress or bool(args.events) or chrome
    renderer = event_sink = marker_sink = None
    if streaming:
        bus = obs.enable_events()
        if args.progress:
            renderer = obs.ProgressRenderer()
            bus.subscribe(renderer)
        if args.events:
            try:
                event_sink = obs.JsonlEventSink(args.events, bus)
            except OSError as exc:
                print(
                    f"error: cannot write events file {args.events}: {exc}",
                    file=sys.stderr,
                )
                obs.disable_events()
                if instrumented:
                    obs.disable()
                return 2
        if chrome:
            marker_sink = obs.ListSink(bus)

    try:
        config = ExperimentConfig(
            benchmark=args.benchmark,
            target_yield=args.target_yield,
            detection=args.technique,
            seed=args.seed,
            max_random_patterns=args.max_random_patterns,
        )
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 2
    print(f"running pipeline on {args.benchmark} (Y = {args.target_yield})...")
    hits_before = cache_info().hits
    def close_consumers() -> None:
        if streaming:
            if renderer is not None:
                renderer.close()
            if event_sink is not None:
                event_sink.close()
            obs.disable_events()
        if instrumented:
            obs.disable()

    try:
        result = run_experiment(
            config,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            # From the CLI a corrupt checkpoint is a hard error: exit
            # non-zero with one line rather than silently recomputing work
            # the user explicitly asked to reuse.
            strict_checkpoints=bool(args.checkpoint_dir),
        )
    except CheckpointError as exc:
        print(f"error: checkpoint failure: {exc}", file=sys.stderr)
        close_consumers()
        return 2
    except KeyboardInterrupt:
        # Completed stages are already checkpointed (each stage flushes at
        # its boundary), so all that remains is to record the interruption
        # and say how to pick the run back up.
        print("\ninterrupted", file=sys.stderr)
        if args.trace and args.trace_format == "jsonl":
            try:
                manifest = obs.RunManifest.from_run(
                    config,
                    collector=collector if instrumented else None,
                    registry=metrics if instrumented else None,
                    results={"interrupted": True},
                )
                manifest.write(args.trace)
                print(
                    f"interrupted-run manifest appended to {args.trace}",
                    file=sys.stderr,
                )
            except OSError as exc:
                print(
                    f"warning: cannot append manifest {args.trace}: {exc}",
                    file=sys.stderr,
                )
        if args.checkpoint_dir:
            print(
                "completed stages are checkpointed; resume with: "
                f"python -m repro {args.benchmark} "
                f"--checkpoint-dir {args.checkpoint_dir} --resume",
                file=sys.stderr,
            )
        else:
            print(
                "hint: run with --checkpoint-dir DIR to make interrupted "
                "runs resumable (--resume)",
                file=sys.stderr,
            )
        close_consumers()
        return 130
    if args.checkpoint_dir:
        restored = ", ".join(result.stages_restored) or "none"
        recomputed = ", ".join(result.stages_recomputed) or "none"
        print(f"checkpoints: restored {restored}; recomputed {recomputed}")
        cache_status = None
    else:
        cache_status = "hit" if cache_info().hits > hits_before else "miss"
        print(
            f"pipeline cache: {cache_status} "
            + (
                "(reusing memoised result)"
                if cache_status == "hit"
                else "(full run)"
            )
        )

    if args.svg:
        from repro.layout.render import render_svg

        render_svg(result.design, path=args.svg)
        print(f"layout written to {args.svg}")

    rows = []
    y = args.target_yield
    for k, T, theta, gamma, dl in result.series():
        rows.append(
            [
                k,
                f"{T:.4f}",
                f"{theta:.4f}",
                f"{gamma:.4f}",
                f"{100 * dl:.2f}%",
                f"{100 * williams_brown(y, T):.2f}%",
            ]
        )
    print(
        "\n"
        + format_table(
            ["k", "T(k)", "theta(k)", "Gamma(k)", "DL(theta)", "W-B DL(T)"],
            rows,
            title="Coverage growth and defect level",
        )
    )

    fit = result.fit()
    final_dl = result.dl_at(result.sample_ks[-1])
    print(
        f"\nfit of eq. 11:  R = {fit.susceptibility_ratio:.2f}, "
        f"theta_max = {fit.theta_max:.3f}  (paper: 1.9 / 0.96)"
    )
    print(
        f"measured theta_max = {result.theta_max:.3f}; residual DL = "
        f"{ppm(final_dl):.0f} ppm"
    )

    if streaming:
        # Close the live consumers before the post-run reports print.
        if renderer is not None:
            renderer.close()
        if event_sink is not None:
            event_sink.close()
            print(
                f"{event_sink.written} events streamed to {args.events}"
            )
        obs.disable_events()

    if args.profile:
        print("\n" + obs.render_profile(collector, metrics, engine=result.engine))

    if chrome:
        n_events = obs.write_chrome_trace(
            args.trace,
            collector,
            marker_sink.events if marker_sink is not None else None,
        )
        print(
            f"\nchrome trace ({n_events} events) written to {args.trace}; "
            "load it in chrome://tracing or https://ui.perfetto.dev"
        )
    elif args.trace:
        manifest = obs.RunManifest.from_run(
            config,
            collector=collector,
            registry=metrics,
            cache=cache_status,
            engine=result.engine,
            resilience=result.resilience_info(),
            curves=_build_curves(result, fit),
            results={
                "R": fit.susceptibility_ratio,
                "theta_max_fit": fit.theta_max,
                "fit_residual": fit.residual,
                "theta_max_measured": result.theta_max,
                "final_T": result.final_T,
                "final_theta": result.theta_at(result.sample_ks[-1]),
                "final_DL": final_dl,
                "n_patterns": len(result.test_patterns),
                "n_random": result.n_random,
                "n_redundant": len(result.redundant_faults),
                "n_untestable_static": len(result.static_untestable),
                "prover": _prover_summary(result),
            },
        )
        n_records = manifest.write(args.trace)
        print(f"\nmanifest ({n_records} records) appended to {args.trace}")

    if instrumented:
        obs.disable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
