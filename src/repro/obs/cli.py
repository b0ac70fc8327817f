"""Run-history CLI: inspect, diff and gate past runs (``python -m repro obs``).

Subcommands operate on the JSON-lines trace files ``--trace`` appends
(:mod:`repro.obs.manifest`) and on the ``BENCH_*.json`` benchmark records:

``list [FILE...] [--campaign DIR] [--json] [--limit N]``
    One row per recorded run: benchmark, configuration hash, git revision,
    engine, cache status and the headline results — a quick answer to "what
    ran, when, and what came out".  ``--json`` emits the rows as a JSON
    array for scripting; ``--limit N`` keeps only the most recent N runs;
    ``--campaign DIR`` discovers every per-job manifest history a campaign
    directory holds (its own ``manifests.jsonl`` plus any inside the result
    store) and adds a job-id column to each row.
``html [--manifests FILE]... [--out report.html] [--last N]``
    Render the self-contained HTML dashboard (:mod:`repro.obs.html`) over
    one or more manifest histories: run-history trends, coverage and DL(T)
    curves, n-detection depth, pipeline waterfall, static analysis and
    resilience.  One file, inline CSS and SVG, no scripts, no
    external resources — open it anywhere, attach it to CI artifacts.
``diff FILE [A B]``
    Field-level comparison of two runs from one history file (indices
    default to the last two; negatives count from the end): configuration
    deltas, result deltas, stage-timing deltas and counter deltas.
``check-bench BENCH [--baseline FILE|git:REV] [--tolerance X]``
    Regression gate: compare a freshly-written benchmark record against a
    committed baseline.  Every shared numeric timing key (``*seconds``) must
    stay within ``tolerance`` x baseline; exits non-zero naming each
    regressed key.  The default baseline is the file as committed at
    ``HEAD`` (``git show HEAD:<path>``), so CI can overwrite the working
    copy with fresh numbers and still gate against the repository's.

Timing gates in shared CI are noisy, hence the generous default tolerance:
the gate exists to catch order-of-magnitude regressions (an accidentally
serialised pool, a dropped word-width), not single-digit-percent drift.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from repro.obs.manifest import RunManifest, read_manifests
from repro.obs.report import _table as _table_lines

__all__ = ["obs_main"]

DEFAULT_TOLERANCE = 3.0


def _table(
    headers: list[str], rows: list[list[str]], title: str | None = None
) -> str:
    lines = _table_lines(headers, rows)
    if title:
        lines.insert(0, title)
    return "\n".join(lines)


def build_obs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Inspect, diff and gate recorded runs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="tabulate the runs in trace files")
    p_list.add_argument("files", nargs="*", metavar="FILE")
    p_list.add_argument(
        "--campaign",
        metavar="DIR",
        help=(
            "discover per-job manifest histories inside a campaign "
            "directory (manifests.jsonl plus any under its result store) "
            "and label each row with its job id"
        ),
    )
    p_list.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit rows as a JSON array instead of an aligned table",
    )
    p_list.add_argument(
        "--limit",
        type=int,
        metavar="N",
        help="show only the most recent N runs (across all files)",
    )

    p_html = sub.add_parser(
        "html", help="render the self-contained HTML dashboard"
    )
    p_html.add_argument(
        "--manifests",
        action="append",
        metavar="FILE",
        help="manifest history file(s) (default: runs.jsonl; repeatable)",
    )
    p_html.add_argument(
        "--out",
        default="report.html",
        metavar="FILE",
        help="output HTML path (default: report.html)",
    )
    p_html.add_argument(
        "--last",
        type=int,
        metavar="N",
        help="render only the most recent N runs",
    )

    p_diff = sub.add_parser("diff", help="compare two runs from one file")
    p_diff.add_argument("file", metavar="FILE")
    p_diff.add_argument(
        "indices",
        nargs="*",
        type=int,
        metavar="INDEX",
        help="two run indices (default: the last two; negatives ok)",
    )

    p_bench = sub.add_parser(
        "check-bench", help="gate a fresh benchmark record against a baseline"
    )
    p_bench.add_argument("bench", metavar="BENCH_JSON")
    p_bench.add_argument(
        "--baseline",
        metavar="FILE|git:REV",
        help=(
            "baseline record: a JSON file, or git:REV to read the bench "
            "file as committed at REV (default: git:HEAD)"
        ),
    )
    p_bench.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=(
            "fail when fresh > baseline * tolerance for any timing key "
            f"(default: {DEFAULT_TOLERANCE})"
        ),
    )
    return parser


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------
def _job_id(manifest: RunManifest) -> str | None:
    """The campaign job id a manifest was written under, if any.

    Campaign supervisors stamp ``results["job_id"]`` (and ``results
    ["campaign"]``) into every per-job manifest; standalone runs carry
    neither.
    """
    job_id = (manifest.results or {}).get("job_id")
    return str(job_id) if isinstance(job_id, str) and job_id else None


def _manifest_row(
    index: int, source: str, manifest: RunManifest, with_job: bool = False
) -> list[str]:
    engine = manifest.engine or {}
    # Manifests recorded before the engine kind existed show their
    # serial/parallel mode instead.
    engine_label = str(engine.get("kind") or engine.get("engine") or "?")
    results = manifest.results or {}
    final_dl = results.get("final_DL")
    theta_max = results.get("theta_max_fit")
    wall = (manifest.stage_timings or {}).get("pipeline.run")
    row = [
        str(index),
        source,
        manifest.benchmark,
        manifest.config_hash[:12] or "?",
        str(manifest.git or "?"),
        manifest.cache or "-",
        engine_label,
        f"{float(theta_max):.3f}" if theta_max is not None else "-",
        f"{1e6 * float(final_dl):.0f}" if final_dl is not None else "-",
        f"{wall:.2f}" if wall is not None else "-",
    ]
    if with_job:
        job_id = _job_id(manifest)
        row.insert(2, job_id[:12] if job_id else "-")
    return row


def _manifest_json_row(
    index: int, source: str, manifest: RunManifest
) -> dict[str, object]:
    """The ``--json`` shape of one run row: typed values, not table text."""
    engine = manifest.engine or {}
    results = manifest.results or {}
    final_dl = results.get("final_DL")
    theta_max = results.get("theta_max_fit")
    wall = (manifest.stage_timings or {}).get("pipeline.run")
    return {
        "index": index,
        "file": source,
        "benchmark": manifest.benchmark,
        "config_hash": manifest.config_hash,
        "seed": manifest.seed,
        "git": manifest.git,
        "cache": manifest.cache,
        "engine_kind": engine.get("kind"),
        "theta_max": float(theta_max) if theta_max is not None else None,
        "final_DL_ppm": (
            1e6 * float(final_dl) if final_dl is not None else None
        ),
        "wall_s": float(wall) if wall is not None else None,
        "job_id": _job_id(manifest),
        "campaign": (manifest.results or {}).get("campaign"),
    }


def _campaign_manifest_files(campaign_dir: str) -> list[str]:
    """Manifest histories a campaign directory holds.

    The supervisor's own ``manifests.jsonl`` first, then any appended
    beside payloads in the (possibly shared) result store, recursively.
    """
    from pathlib import Path

    home = Path(campaign_dir)
    paths = []
    if (home / "manifests.jsonl").is_file():
        paths.append(home / "manifests.jsonl")
    results = home / "results"
    if results.is_dir():
        paths.extend(sorted(results.rglob("manifests.jsonl")))
    return [str(p) for p in paths]


def _list_main(
    files: list[str],
    as_json: bool = False,
    limit: int | None = None,
    campaign: str | None = None,
) -> int:
    files = list(files)
    if campaign is not None:
        discovered = _campaign_manifest_files(campaign)
        if not discovered and not files:
            print(
                f"error: no manifest histories found under campaign "
                f"directory {campaign}",
                file=sys.stderr,
            )
            return 2
        files.extend(discovered)
    if not files:
        print(
            "error: no trace files given (pass FILE... or --campaign DIR)",
            file=sys.stderr,
        )
        return 2
    entries: list[tuple[int, str, RunManifest]] = []
    for path in files:
        try:
            manifests = read_manifests(path)
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
        entries.extend((i, path, m) for i, m in enumerate(manifests))
    if limit is not None:
        if limit <= 0:
            print("error: --limit must be positive", file=sys.stderr)
            return 2
        entries = entries[-limit:]
    if as_json:
        print(
            json.dumps(
                [_manifest_json_row(i, p, m) for i, p, m in entries],
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    with_job = campaign is not None
    rows = [_manifest_row(i, p, m, with_job=with_job) for i, p, m in entries]
    if not rows:
        print("no runs recorded")
        return 0
    headers = [
        "#",
        "file",
        "benchmark",
        "config",
        "git",
        "cache",
        "engine",
        "theta_max",
        "DL ppm",
        "wall s",
    ]
    if with_job:
        headers.insert(2, "job")
    print(
        _table(
            headers,
            rows,
            title=f"{len(rows)} recorded run(s)",
        )
    )
    return 0


# ---------------------------------------------------------------------------
# html
# ---------------------------------------------------------------------------
def _html_main(
    files: list[str] | None, out: str, last: int | None
) -> int:
    from repro.obs.html import write_report

    files = files or ["runs.jsonl"]
    if last is not None and last <= 0:
        print("error: --last must be positive", file=sys.stderr)
        return 2
    manifests: list[RunManifest] = []
    for path in files:
        try:
            manifests.extend(read_manifests(path))
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    if not manifests:
        print(
            f"error: no runs recorded in {', '.join(files)}; run "
            "`python -m repro <benchmark> --trace FILE` first",
            file=sys.stderr,
        )
        return 2
    n_bytes = write_report(
        out, manifests, last=last, source=", ".join(files)
    )
    shown = min(len(manifests), last) if last else len(manifests)
    print(
        f"wrote {out} ({n_bytes:,} bytes, {shown} of "
        f"{len(manifests)} recorded run(s))"
    )
    return 0


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------
def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _diff_section(
    title: str,
    a: dict,
    b: dict,
    numeric_delta: bool = False,
) -> list[str]:
    """Rows for keys that differ between two flat dictionaries."""
    lines: list[str] = []
    rows: list[list[str]] = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        delta = ""
        if (
            numeric_delta
            and isinstance(va, (int, float))
            and isinstance(vb, (int, float))
            and not isinstance(va, bool)
            and not isinstance(vb, bool)
        ):
            delta = f"{vb - va:+.6g}"
            if va:
                delta += f" ({100.0 * (vb - va) / va:+.1f}%)"
        rows.append(
            [
                key,
                _fmt(va) if key in a else "-",
                _fmt(vb) if key in b else "-",
                delta,
            ]
        )
    if rows:
        lines.append(_table(["key", "A", "B", "delta"], rows, title=title))
    return lines


def _flat_counters(manifest: RunManifest) -> dict[str, object]:
    counters = (manifest.metrics or {}).get("counters", {})
    return dict(counters) if isinstance(counters, dict) else {}


def _diff_main(path: str, indices: list[int]) -> int:
    if indices and len(indices) != 2:
        print("error: diff takes zero or two run indices", file=sys.stderr)
        return 2
    try:
        manifests = read_manifests(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    if len(manifests) < 2:
        print(
            f"error: {path} records {len(manifests)} run(s); diff needs two",
            file=sys.stderr,
        )
        return 2
    ia, ib = indices if indices else (-2, -1)
    try:
        ma, mb = manifests[ia], manifests[ib]
    except IndexError:
        print(
            f"error: run index out of range (file records "
            f"{len(manifests)} runs)",
            file=sys.stderr,
        )
        return 2
    print(
        f"A: run {ia} ({ma.benchmark}, config {ma.config_hash[:12]}, "
        f"git {ma.git or '?'})"
    )
    print(
        f"B: run {ib} ({mb.benchmark}, config {mb.config_hash[:12]}, "
        f"git {mb.git or '?'})"
    )
    sections: list[str] = []
    sections += _diff_section("config", ma.config, mb.config)
    sections += _diff_section(
        "results", ma.results or {}, mb.results or {}, numeric_delta=True
    )
    sections += _diff_section(
        "stage timings (s)",
        ma.stage_timings or {},
        mb.stage_timings or {},
        numeric_delta=True,
    )
    sections += _diff_section(
        "counters", _flat_counters(ma), _flat_counters(mb), numeric_delta=True
    )
    if not sections:
        print("runs are identical in config, results, timings and counters")
    else:
        print("\n" + "\n\n".join(sections))
    return 0


# ---------------------------------------------------------------------------
# check-bench
# ---------------------------------------------------------------------------
def _timing_keys(record: object, prefix: str = "") -> dict[str, float]:
    """Flatten every numeric ``*seconds`` key of a nested bench record."""
    out: dict[str, float] = {}
    if isinstance(record, dict):
        for key, value in record.items():
            dotted = f"{prefix}.{key}" if prefix else str(key)
            if (
                str(key).endswith("seconds")
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
            ):
                out[dotted] = float(value)
            else:
                out.update(_timing_keys(value, dotted))
    elif isinstance(record, list):
        for i, value in enumerate(record):
            out.update(_timing_keys(value, f"{prefix}[{i}]"))
    return out


def _load_baseline(bench_path: str, baseline: str | None) -> object:
    """Parse the baseline record: a JSON file or a git revision of it."""
    if baseline is None:
        baseline = "git:HEAD"
    if baseline.startswith("git:"):
        rev = baseline[len("git:") :] or "HEAD"
        out = subprocess.run(
            ["git", "show", f"{rev}:./{bench_path}"],
            capture_output=True,
            text=True,
            timeout=10.0,
        )
        if out.returncode != 0:
            raise FileNotFoundError(
                f"git show {rev}:./{bench_path} failed: "
                f"{out.stderr.strip() or 'unknown error'}"
            )
        return json.loads(out.stdout)
    with open(baseline, encoding="utf-8") as handle:
        return json.load(handle)


def _check_bench_main(
    bench_path: str, baseline: str | None, tolerance: float
) -> int:
    if tolerance <= 0:
        print("error: --tolerance must be positive", file=sys.stderr)
        return 2
    try:
        with open(bench_path, encoding="utf-8") as handle:
            fresh = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {bench_path}: {exc}", file=sys.stderr)
        return 2
    try:
        base = _load_baseline(bench_path, baseline)
    except (
        OSError,
        json.JSONDecodeError,
        subprocess.SubprocessError,
    ) as exc:
        print(f"error: cannot read baseline: {exc}", file=sys.stderr)
        return 2

    fresh_times = _timing_keys(fresh)
    base_times = _timing_keys(base)
    shared = sorted(set(fresh_times) & set(base_times))
    if not shared:
        print(
            "error: no shared timing keys between fresh record and baseline",
            file=sys.stderr,
        )
        return 2
    only_base = sorted(set(base_times) - set(fresh_times))
    if only_base:
        print(
            f"note: {len(only_base)} baseline timing key(s) absent from the "
            f"fresh record: {', '.join(only_base[:5])}"
            + (" ..." if len(only_base) > 5 else "")
        )

    regressions: list[list[str]] = []
    rows: list[list[str]] = []
    for key in shared:
        fresh_s, base_s = fresh_times[key], base_times[key]
        limit = base_s * tolerance
        verdict = "ok" if fresh_s <= limit else "REGRESSION"
        row = [
            key,
            f"{base_s:.4f}",
            f"{fresh_s:.4f}",
            f"{fresh_s / base_s:.2f}x" if base_s else "inf",
            verdict,
        ]
        rows.append(row)
        if verdict != "ok":
            regressions.append(row)
    print(
        _table(
            ["timing key", "baseline s", "fresh s", "ratio", "verdict"],
            rows,
            title=(
                f"bench gate: {bench_path} vs "
                f"{baseline or 'git:HEAD'} (tolerance {tolerance:g}x)"
            ),
        )
    )
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} timing key(s) exceed "
            f"{tolerance:g}x the baseline",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: {len(shared)} timing key(s) within {tolerance:g}x baseline")
    return 0


def obs_main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro obs``."""
    args = build_obs_parser().parse_args(argv)
    if args.command == "list":
        return _list_main(
            args.files, args.as_json, args.limit, campaign=args.campaign
        )
    if args.command == "html":
        return _html_main(args.manifests, args.out, args.last)
    if args.command == "diff":
        return _diff_main(args.file, args.indices)
    return _check_bench_main(args.bench, args.baseline, args.tolerance)
