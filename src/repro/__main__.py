"""Command-line entry point: run the paper's experiment on a benchmark.

Usage::

    python -m repro [benchmark] [--svg layout.svg] [--technique voltage]
                    [--seed N] [--max-random-patterns N]
                    [--profile] [--trace run.jsonl] [--trace-format jsonl]
                    [--progress] [--events events.jsonl]
    python -m repro analyze [circuit ...] [--quick] [--json FILE]
                    [--certificates FILE] [--fail-on-error]
    python -m repro obs {list,diff,check-bench} ...
    python -m repro campaign {run,resume,status,trace,gc} ...

The default command prints the coverage-growth table (fig. 4), the
defect-level comparison (fig. 5) and the fitted eq.-11 parameters;
optionally renders the generated layout to SVG.  ``--profile`` prints a
per-stage timing tree and a metric table after the run; ``--trace FILE``
appends a JSON-lines run manifest (config hash, stage durations, metrics,
fitted parameters) to ``FILE``, or — with ``--trace-format chrome`` —
writes a Chrome/Perfetto trace instead (load it in ``chrome://tracing`` or
https://ui.perfetto.dev).  ``--progress`` prints one stderr line per
finished pipeline stage with its wall time, and ``--events FILE`` streams
one JSON line per finished span to FILE, ending on ``pipeline.run``.

``analyze`` runs the static-analysis subsystem (lint, SCOAP testability and
the certified redundancy prover) over one or more built-in circuits without
simulating anything; ``--quick`` skips the prover, ``--json FILE`` writes
the machine-readable report, ``--certificates FILE`` writes every checked
proof certificate, and ``--fail-on-error`` exits non-zero when any circuit
has ERROR-severity findings (the CI gate).

``obs`` inspects recorded history (see :mod:`repro.obs.cli`): ``list``
tabulates the runs in trace files, ``diff`` compares two runs field by
field, and ``check-bench`` gates fresh ``BENCH_*.json`` timings against a
committed baseline.

``campaign`` orchestrates *many* experiments as one crash-safe unit (see
:mod:`repro.campaign.cli`): a JSON spec expands into content-addressed
jobs, a write-ahead journal makes ``kill -9`` recoverable via ``campaign
resume``, and completed configurations are served from the result cache
with zero recomputation.  ``campaign run --progress`` prints the status
totals after each job transition, ``status --follow`` watches a campaign
read-only from another terminal, and ``trace`` exports a Chrome/Perfetto
trace built from the journal alone (one lane group per job).

A single run interrupted with Ctrl-C exits ``130`` after appending an
interrupted-run manifest line (when ``--trace`` is active), with a one-line
hint: rerun it, or use ``campaign run`` for sweeps that must survive
interruption.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro import obs
from repro.circuit.iscas import BENCHMARKS
from repro.core import ppm, williams_brown
from repro.experiments import (
    ExperimentConfig,
    cache_info,
    format_table,
    run_experiment,
)
from repro.switchsim.coverage import TECHNIQUES


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
        choices=TECHNIQUES,
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
        help="print each pipeline stage and its wall time on stderr as it ends",
    )
    parser.add_argument(
        "--events",
        metavar="FILE",
        help="stream one JSON line per finished span to FILE (tailable)",
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
        description=(
            "Static netlist analysis: lint, SCOAP, certified untestable faults."
        ),
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
        help=(
            "lint and SCOAP only: skip the redundancy prover (implications + "
            "static learning, every verdict re-verified by the independent "
            "checker)"
        ),
    )
    parser.add_argument(
        "--certificates",
        metavar="FILE",
        help="write every checked certificate to FILE as JSON (not with --quick)",
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

    if args.certificates and args.quick:
        print(
            "error: --certificates cannot be combined with --quick "
            "(--quick skips the prover that writes them)",
            file=sys.stderr,
        )
        return 2

    reports = []
    certificates: dict[str, list[dict[str, object]]] = {}
    any_errors = False
    for name in names:
        circuit = load_benchmark(name)
        result = analyze_circuit(circuit, quick=args.quick)
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
        if result.untestable is not None and result.untestable.untestable:
            # The fire phase's share of the proofs, with its reasons.
            fired = result.untestable.untestable
            print(f"  fire phase: {len(fired)} of those proofs, by reason:")
            for fault in fired[:10]:
                print(f"    {fault}  [{result.untestable.reasons[fault]}]")
            if len(fired) > 10:
                print(f"    ... and {len(fired) - 10} more")

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
    prover = result.analysis.prover
    if prover is None:
        return None
    return {
        "n_proved": len(prover.proved),
        "n_screened": prover.n_screened,
        "by_method": dict(prover.by_method),
        "n_learned": prover.n_learned,
        "certs_failed": prover.certs_failed,
        "podem": dict(result.podem_stats),
    }


def _span_consumer(
    writer: obs.JsonlWriter | None, progress: bool
) -> Callable[[obs.Span, int], None] | None:
    """The collector's ``on_end`` behind ``--events`` and ``--progress``.

    ``--events`` gets one :func:`~repro.obs.span_record` line per finished
    span; ``--progress`` gets one stderr line per finished stage, i.e. per
    direct child of ``pipeline.run``.
    """
    if writer is None and not progress:
        return None

    def on_end(span: obs.Span, depth: int) -> None:
        if writer is not None:
            writer(obs.span_record(span, depth))
        if progress and depth == 1:
            print(
                f"[{span.name}] done in {span.wall_time:.2f}s",
                file=sys.stderr,
                flush=True,
            )

    return on_end


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

    if args.trace_format == "chrome" and not args.trace:
        print(
            "error: --trace-format chrome requires --trace FILE",
            file=sys.stderr,
        )
        return 2
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
    if args.trace:
        # Fail fast on an unwritable sink rather than after a full run.
        try:
            with open(args.trace, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            print(f"error: cannot write trace file {args.trace}: {exc}", file=sys.stderr)
            return 2
    writer = None
    if args.events:
        try:
            writer = obs.JsonlWriter(args.events)
        except OSError as exc:
            print(
                f"error: cannot write events file {args.events}: {exc}",
                file=sys.stderr,
            )
            return 2

    collector = metrics = None
    if args.profile or args.trace or args.progress or writer is not None:
        collector, metrics = obs.enable(
            obs.TraceCollector(on_end=_span_consumer(writer, args.progress))
        )
    try:
        return _run_main(args, config, collector, metrics, writer)
    finally:
        if writer is not None:
            writer.close()
        if collector is not None:
            obs.disable()


def _run_main(
    args: argparse.Namespace,
    config: ExperimentConfig,
    collector: obs.TraceCollector | None,
    metrics: obs.MetricsRegistry | None,
    writer: obs.JsonlWriter | None,
) -> int:
    """Run the experiment and print its tables, manifest and trace."""
    print(f"running pipeline on {args.benchmark} (Y = {args.target_yield})...")
    hits_before = cache_info().hits
    try:
        result = run_experiment(config)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        if args.trace and args.trace_format == "jsonl":
            try:
                manifest = obs.RunManifest.from_run(
                    config,
                    collector=collector,
                    registry=metrics,
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
        print(
            "hint: rerun, or use 'python -m repro campaign run' for "
            "resumable sweeps",
            file=sys.stderr,
        )
        return 130
    chrome = args.trace_format == "chrome"
    if collector is not None:
        # The span stream and the Chrome trace cover the experiment run, so
        # the stream ends on ``pipeline.run``; the span of the fit below
        # still reaches --profile and the manifest.
        collector.on_end = None
        if chrome:
            n_events = obs.write_chrome_trace(args.trace, collector)
    cache_status = "hit" if cache_info().hits > hits_before else "miss"
    print(
        f"pipeline cache: {cache_status} "
        + ("(reusing memoised result)" if cache_status == "hit" else "(full run)")
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

    if writer is not None:
        print(f"{writer.written} span records streamed to {args.events}")

    if args.profile:
        print("\n" + obs.render_profile(collector, metrics, engine=result.engine))

    if chrome:
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
