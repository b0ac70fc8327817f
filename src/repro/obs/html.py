"""Self-contained HTML dashboard over recorded run manifests.

``python -m repro obs html`` renders one HTML file — inline CSS, hand-rolled
inline SVG, zero scripts, zero external requests — from the JSON-lines
manifest history that ``--trace`` appends.  Panels:

* **Run history** — coverage, defect-level projection, wall time and
  patterns/second across every recorded run;
* **Coverage growth & DL(T)** — the latest run's ``T(k)``/``theta(k)``
  series and its measured-vs-fitted eq.-11 defect-level curve;
* **n-detection depth** — how many faults the sequence detected *d* times
  (Pomeranz/Reddy n-detection telemetry from ``detection_counts``);
* **Pipeline waterfall** — the latest run's span tree on a timeline;
* **Redundancy prover** — the latest run's proofs and PODEM statistics;
* **Resilience** — checkpoint restores and recomputes across the history.

Like the rest of :mod:`repro.obs` this module is stdlib-only; in
particular it must not import :mod:`repro.core` (numpy/scipy) — the fitted
DL(T) curve arrives pre-sampled inside ``manifest.curves``.  Manifests
written by older schema versions simply render fewer panels: every section
degrades to an explanatory note when its data is absent.

Charts follow one shared visual system: categorical series in fixed slot
order (blue then orange), 2 px lines, >= 8 px markers, thin bars anchored
to a baseline, hairline gridlines, one y-axis per chart, text in ink
tokens (never series colors), native ``<title>`` hover tooltips, and a
dark mode driven purely by ``prefers-color-scheme``.
"""

from __future__ import annotations

import math
from html import escape
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.manifest import RunManifest

__all__ = ["build_report", "write_report", "PANEL_IDS"]

#: Stable DOM ids, one per dashboard section — the CI smoke test asserts
#: each is present in the rendered report.
PANEL_IDS = (
    "panel-trends",
    "panel-coverage",
    "panel-ndetection",
    "panel-waterfall",
    "panel-analysis",
    "panel-resilience",
)

# Chart geometry (px).
_W, _H = 560, 230
_ML, _MR, _MT, _MB = 64, 14, 14, 34


# ---------------------------------------------------------------------------
# Small formatting helpers
# ---------------------------------------------------------------------------
def _fmt_num(value: float) -> str:
    """Compact human number: 1234567 -> '1.23M'."""
    if value == 0:
        return "0"
    for cut, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= cut:
            return f"{value / cut:.3g}{suffix}"
    if abs(value) >= 1:
        return f"{value:.4g}"
    return f"{value:.3g}"


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{1000.0 * seconds:.1f}ms"


def _fmt_ppm(fraction: float) -> str:
    return f"{1e6 * fraction:.0f}"


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """~n round tick values covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(1, n)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(round(value, 10))
        value += step
    return ticks or [lo, hi]


def _log_ticks(lo: float, hi: float) -> list[float]:
    """Decade ticks covering the positive range [lo, hi]."""
    lo_exp = math.floor(math.log10(lo))
    hi_exp = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(lo_exp, hi_exp + 1)]


# ---------------------------------------------------------------------------
# SVG chart builders
# ---------------------------------------------------------------------------
def _chart_frame(
    x_ticks: Sequence[float],
    y_ticks: Sequence[float],
    sx: Callable[[float], float],
    sy: Callable[[float], float],
    x_fmt: Callable[[float], str],
    y_fmt: Callable[[float], str],
    y_label: str = "",
) -> list[str]:
    """Gridlines, baseline, and tick labels shared by every XY chart."""
    parts: list[str] = []
    for tick in y_ticks:
        y = sy(tick)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
            f'class="grid"/>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{y + 3.5:.1f}" class="tick" '
            f'text-anchor="end">{escape(y_fmt(tick))}</text>'
        )
    parts.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'class="baseline"/>'
    )
    for tick in x_ticks:
        x = sx(tick)
        parts.append(
            f'<text x="{x:.1f}" y="{_H - _MB + 16}" class="tick" '
            f'text-anchor="middle">{escape(x_fmt(tick))}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="{_ML}" y="{_MT - 2}" class="axis-label" '
            f'text-anchor="start">{escape(y_label)}</text>'
        )
    return parts


def _line_chart(
    series: Sequence[dict],
    *,
    y_label: str = "",
    x_fmt: Callable[[float], str] = _fmt_num,
    y_fmt: Callable[[float], str] = _fmt_num,
    y_log: bool = False,
    tip: Callable[[str, float, float], str] | None = None,
) -> str:
    """An XY line chart.  ``series``: ``{label, cls, points, markers?}``.

    ``cls`` is the CSS series class (``s1``/``s2``); ``points`` is a list of
    (x, y) pairs.  With ``y_log`` non-positive y values are dropped (log
    scale has no zero) and a linear scale is used if nothing survives.
    """
    pts_all = [p for s in series for p in s["points"]]
    if y_log:
        pts_all = [p for p in pts_all if p[1] > 0]
    if not pts_all:
        return '<p class="note">(no data points)</p>'
    xs = [p[0] for p in pts_all]
    ys = [p[1] for p in pts_all]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_log:
        y_lo, y_hi = min(ys), max(ys)
        if y_hi == y_lo:
            y_hi = y_lo * 10
        y_ticks = _log_ticks(y_lo, y_hi)
        t_lo, t_hi = math.log10(y_ticks[0]), math.log10(y_ticks[-1])

        def sy(v: float) -> float:
            t = (math.log10(v) - t_lo) / (t_hi - t_lo or 1.0)
            return _H - _MB - t * (_H - _MT - _MB)

    else:
        y_lo = min(0.0, min(ys))
        y_ticks = _nice_ticks(y_lo, max(ys) or 1.0, 4)
        t_lo, t_hi = y_ticks[0], y_ticks[-1]

        def sy(v: float) -> float:
            t = (v - t_lo) / (t_hi - t_lo or 1.0)
            return _H - _MB - t * (_H - _MT - _MB)

    def sx(v: float) -> float:
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    x_ticks = _nice_ticks(x_lo, x_hi, 5)
    x_ticks = [t for t in x_ticks if x_lo <= t <= x_hi]
    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" role="img" '
        f'preserveAspectRatio="xMidYMid meet">'
    ]
    parts.extend(_chart_frame(x_ticks, y_ticks, sx, sy, x_fmt, y_fmt, y_label))
    for s in series:
        points = s["points"]
        if y_log:
            points = [p for p in points if p[1] > 0]
        if not points:
            continue
        cls = s.get("cls", "s1")
        label = s.get("label", "")
        if s.get("line", True) and len(points) > 1:
            coords = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in points)
            parts.append(f'<polyline class="line {cls}" points="{coords}"/>')
        if s.get("markers", False) or len(points) == 1:
            for x, y in points:
                text = (
                    tip(label, x, y)
                    if tip is not None
                    else f"{label}: ({x_fmt(x)}, {y_fmt(y)})"
                )
                parts.append(
                    f'<circle class="dot {cls}" cx="{sx(x):.1f}" '
                    f'cy="{sy(y):.1f}" r="4"><title>{escape(text)}</title>'
                    f"</circle>"
                )
    parts.append("</svg>")
    return "".join(parts)


def _bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    y_label: str = "",
    y_fmt: Callable[[float], str] = _fmt_num,
    tip: Callable[[str, float], str] | None = None,
) -> str:
    """A vertical bar chart (single series, thin bars on the baseline)."""
    if not values or max(values) <= 0:
        return '<p class="note">(no data points)</p>'
    y_ticks = _nice_ticks(0.0, max(values), 4)
    top = y_ticks[-1]

    def sy(v: float) -> float:
        return _H - _MB - (v / top) * (_H - _MT - _MB)

    n = len(values)
    span = (_W - _ML - _MR) / n
    bar_w = min(24.0, span * 0.6)
    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" role="img" '
        f'preserveAspectRatio="xMidYMid meet">'
    ]
    for tick in y_ticks:
        y = sy(tick)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
            f'class="grid"/>'
            f'<text x="{_ML - 6}" y="{y + 3.5:.1f}" class="tick" '
            f'text-anchor="end">{escape(y_fmt(tick))}</text>'
        )
    parts.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'class="baseline"/>'
    )
    label_every = max(1, n // 16)
    for i, (label, value) in enumerate(zip(labels, values)):
        cx = _ML + span * (i + 0.5)
        y = sy(value)
        h = max(0.0, _H - _MB - y)
        text = tip(label, value) if tip is not None else f"{label}: {y_fmt(value)}"
        parts.append(
            f'<rect class="bar s1" x="{cx - bar_w / 2:.1f}" y="{y:.1f}" '
            f'width="{bar_w:.1f}" height="{h:.1f}" rx="2">'
            f"<title>{escape(text)}</title></rect>"
        )
        if i % label_every == 0:
            parts.append(
                f'<text x="{cx:.1f}" y="{_H - _MB + 16}" class="tick" '
                f'text-anchor="middle">{escape(label)}</text>'
            )
    if y_label:
        parts.append(
            f'<text x="{_ML}" y="{_MT - 2}" class="axis-label" '
            f'text-anchor="start">{escape(y_label)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _timeline_rows(
    rows: Sequence[dict],
    t_total: float,
    *,
    row_h: int = 24,
    label_w: int = 170,
) -> str:
    """Horizontal time-positioned bars (waterfall / worker lanes).

    ``rows``: ``{label, start, dur, cls?, tip?}`` with times in seconds
    relative to a common origin; ``t_total`` is the full timeline span.
    """
    if not rows or t_total <= 0:
        return '<p class="note">(no spans recorded)</p>'
    width = _W
    height = _MT + row_h * len(rows) + _MB
    plot_w = width - label_w - _MR

    def sx(t: float) -> float:
        return label_w + (t / t_total) * plot_w

    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'preserveAspectRatio="xMidYMid meet">'
    ]
    for tick in _nice_ticks(0.0, t_total, 5):
        if tick > t_total * 1.001:
            continue
        x = sx(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MT}" x2="{x:.1f}" '
            f'y2="{height - _MB}" class="grid"/>'
            f'<text x="{x:.1f}" y="{height - _MB + 16}" class="tick" '
            f'text-anchor="middle">{escape(_fmt_s(tick))}</text>'
        )
    for i, row in enumerate(rows):
        y = _MT + row_h * i
        bar_y = y + (row_h - 14) / 2
        x0 = sx(max(0.0, row["start"]))
        w = max(2.0, (row["dur"] / t_total) * plot_w)
        cls = row.get("cls", "s1")
        tip_text = row.get(
            "tip", f"{row['label']}: {_fmt_s(row['dur'])}"
        )
        parts.append(
            f'<text x="{label_w - 8}" y="{y + row_h / 2 + 3.5:.1f}" '
            f'class="row-label" text-anchor="end">'
            f"{escape(str(row['label']))}</text>"
        )
        parts.append(
            f'<rect class="bar {cls}" x="{x0:.1f}" y="{bar_y:.1f}" '
            f'width="{w:.1f}" height="14" rx="2">'
            f"<title>{escape(tip_text)}</title></rect>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _legend(entries: Sequence[tuple[str, str]]) -> str:
    """Legend chips: [(label, series-class)] — only for >= 2 series."""
    if len(entries) < 2:
        return ""
    chips = "".join(
        f'<span class="chip"><span class="swatch {cls}"></span>'
        f"{escape(label)}</span>"
        for label, cls in entries
    )
    return f'<div class="legend">{chips}</div>'


def _panel(panel_id: str, title: str, body: str, caption: str = "") -> str:
    cap = f'<p class="caption">{escape(caption)}</p>' if caption else ""
    return (
        f'<section class="panel" id="{panel_id}">'
        f"<h2>{escape(title)}</h2>{body}{cap}</section>"
    )


def _note(text: str) -> str:
    return f'<p class="note">{escape(text)}</p>'


def _tiles(entries: Sequence[tuple[object, str, str]]) -> str:
    """A tile strip: ``(value, label, cls)`` triples, cls in ink/good/crit."""
    tiles = "".join(
        f'<div class="tile"><div class="tile-value {cls}">'
        f"{escape(str(value))}</div>"
        f'<div class="tile-label">{escape(label)}</div></div>'
        for value, label, cls in entries
    )
    return f'<div class="tiles">{tiles}</div>'


# ---------------------------------------------------------------------------
# Data extraction from manifests
# ---------------------------------------------------------------------------
def _num(value: object) -> float | None:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    return None


def _pipeline_wall(manifest: "RunManifest") -> float | None:
    return _num(manifest.stage_timings.get("pipeline.run"))


def _patterns_per_sec(manifest: "RunManifest") -> float | None:
    wall = _pipeline_wall(manifest)
    n = _num(manifest.results.get("n_patterns"))
    if wall and n:
        return n / wall
    return None


def _latest_with(
    manifests: Sequence["RunManifest"], predicate: Callable
) -> "RunManifest | None":
    for manifest in reversed(manifests):
        if predicate(manifest):
            return manifest
    return None


def _walk_spans(record: dict, depth: int = 0):
    yield record, depth
    for child in record.get("children", []):
        if isinstance(child, dict):
            yield from _walk_spans(child, depth + 1)


def _engine_kind(manifest: "RunManifest") -> str | None:
    """Engine kind (python/numpy) of a run, None for pre-registry manifests.

    The ``kind`` field appeared with the engine registry; histories recorded
    before it carry only the serial/parallel mode, and this returns None so
    callers can degrade to an unlabelled rendering instead of guessing.
    """
    engine = manifest.engine if isinstance(manifest.engine, dict) else {}
    kind = engine.get("kind")
    return str(kind) if kind else None


def _engine_mix_caption(manifests: Sequence["RunManifest"]) -> str:
    """Summarise which engine kinds produced a history, oldest schema last."""
    counts: dict[str, int] = {}
    for manifest in manifests:
        kind = _engine_kind(manifest) or "pre-engine-schema"
        counts[kind] = counts.get(kind, 0) + 1
    if not counts or set(counts) == {"pre-engine-schema"}:
        return ""
    ordered = sorted(
        counts.items(), key=lambda kv: (kv[0] == "pre-engine-schema", kv[0])
    )
    return "engines: " + ", ".join(
        f"{kind} ×{count}" for kind, count in ordered
    )


# ---------------------------------------------------------------------------
# Panels
# ---------------------------------------------------------------------------
def _trend_panel(manifests: Sequence["RunManifest"]) -> str:
    runs = list(enumerate(manifests))

    def chart(metric: Callable, y_label: str, y_fmt=_fmt_num, y_log=False):
        points = [
            (float(i), value)
            for i, m in runs
            if (value := metric(m)) is not None
        ]
        if not points:
            return _note("not recorded in this history")
        return _line_chart(
            [{"label": y_label, "cls": "s1", "points": points, "markers": True}],
            y_label=y_label,
            x_fmt=lambda v: str(int(v)),
            y_fmt=y_fmt,
            y_log=y_log,
        )

    grid = (
        '<div class="chart-grid">'
        + "".join(
            f"<div><h3>{escape(title)}</h3>{svg}</div>"
            for title, svg in (
                (
                    "Stuck-at coverage T",
                    chart(
                        lambda m: _num(m.results.get("final_T")),
                        "T (final)",
                        y_fmt=lambda v: f"{v:.3f}",
                    ),
                ),
                (
                    "Defect level (ppm)",
                    chart(
                        lambda m: _num(m.results.get("final_DL")),
                        "DL ppm",
                        y_fmt=_fmt_ppm,
                        y_log=True,
                    ),
                ),
                (
                    "Pipeline wall time",
                    chart(_pipeline_wall, "seconds", y_fmt=_fmt_s),
                ),
                (
                    "Throughput",
                    chart(_patterns_per_sec, "patterns/s"),
                ),
            )
        )
        + "</div>"
    )
    caption = (
        f"{len(manifests)} recorded run(s); x-axis is the run index in "
        "history order."
    )
    mix = _engine_mix_caption(manifests)
    if mix:
        caption += f" {mix}."
    return _panel("panel-trends", "Run history", grid, caption)


def _coverage_panel(manifests: Sequence["RunManifest"]) -> str:
    manifest = _latest_with(manifests, lambda m: bool(m.curves.get("k")))
    if manifest is None:
        return _panel(
            "panel-coverage",
            "Coverage growth & DL(T)",
            _note(
                "no per-run curves in this history — record runs with "
                "--trace using the current schema to populate this panel"
            ),
        )
    curves = manifest.curves
    ks = [float(k) for k in curves.get("k", [])]
    t_series = [float(v) for v in curves.get("T", [])]
    theta = [float(v) for v in curves.get("theta", [])]
    growth = _legend([("T(k) stuck-at", "s1"), ("theta(k) weighted", "s2")])
    growth += _line_chart(
        [
            {"label": "T(k)", "cls": "s1", "points": list(zip(ks, t_series))},
            {"label": "theta(k)", "cls": "s2", "points": list(zip(ks, theta))},
        ],
        y_label="coverage",
        x_fmt=lambda v: _fmt_num(v),
        y_fmt=lambda v: f"{v:.2f}",
    )
    dl = [float(v) for v in curves.get("DL", [])]
    fit_t = [float(v) for v in curves.get("fit_T", [])]
    fit_dl = [float(v) for v in curves.get("fit_DL", [])]
    dlt = _legend([("eq.-11 fit", "s1"), ("measured DL(theta(k))", "s2")])
    dlt += _line_chart(
        [
            {"label": "fit", "cls": "s1", "points": list(zip(fit_t, fit_dl))},
            {
                "label": "measured",
                "cls": "s2",
                "points": list(zip(t_series, dl)),
                "line": False,
                "markers": True,
            },
        ],
        y_label="DL (ppm, log)",
        x_fmt=lambda v: f"{v:.2f}",
        y_fmt=_fmt_ppm,
        y_log=True,
        tip=lambda label, x, y: f"{label}: T={x:.4f}, DL={_fmt_ppm(y)} ppm",
    )
    body = (
        '<div class="chart-grid">'
        f"<div><h3>Coverage growth</h3>{growth}</div>"
        f"<div><h3>Defect level vs coverage</h3>{dlt}</div>"
        "</div>"
    )
    caption = (
        f"latest recorded run: {manifest.benchmark}, seed {manifest.seed}, "
        f"config {manifest.config_hash[:12]}"
    )
    return _panel("panel-coverage", "Coverage growth & DL(T)", body, caption)


def _ndetection_panel(manifests: Sequence["RunManifest"]) -> str:
    manifest = _latest_with(
        manifests, lambda m: bool(m.curves.get("n_detection"))
    )
    if manifest is None:
        return _panel(
            "panel-ndetection",
            "n-detection depth",
            _note("no n-detection telemetry in this history"),
        )
    nd = manifest.curves["n_detection"]
    counts = [int(c) for c in nd.get("counts", [])]
    cap = int(nd.get("depth_cap", len(counts) - 1))
    labels = [str(d) for d in range(len(counts))]
    if labels:
        labels[-1] = f"{cap}+"
    svg = _bar_chart(
        labels,
        [float(c) for c in counts],
        y_label="faults",
        y_fmt=lambda v: _fmt_num(v),
        tip=lambda label, v: f"detected {label} times: {int(v)} fault(s)",
    )
    coverage_ge = [float(v) for v in nd.get("coverage_ge", [])]
    extra = ""
    if coverage_ge:
        cells = "".join(
            f"<td>{100.0 * v:.1f}%</td>" for v in coverage_ge
        )
        heads = "".join(
            f"<th>n&ge;{n}</th>" for n in range(1, len(coverage_ge) + 1)
        )
        extra = (
            '<table class="data"><thead><tr><th>coverage</th>'
            f"{heads}</tr></thead><tbody><tr><td>share</td>{cells}</tr>"
            "</tbody></table>"
        )
    caption = (
        "faults by detection count over the applied sequence "
        "(depth 0 = never detected); n-detection sets after Pomeranz & Reddy"
    )
    return _panel(
        "panel-ndetection", "n-detection depth", svg + extra, caption
    )


def _waterfall_panel(manifests: Sequence["RunManifest"]) -> str:
    manifest = _latest_with(manifests, lambda m: bool(m.spans))
    if manifest is None:
        return _panel(
            "panel-waterfall",
            "Pipeline waterfall",
            _note("no spans in this history — record runs with --trace"),
        )
    root = next(
        (s for s in manifest.spans if s.get("name") == "pipeline.run"),
        manifest.spans[0],
    )
    t0 = _num(root.get("t0"))
    t1 = _num(root.get("t1"))
    rows: list[dict] = []
    if t0 is not None and t1 is not None and t1 > t0:
        total = t1 - t0
        seen: dict[str, int] = {}
        for record, depth in _walk_spans(root):
            if depth > 2 or len(rows) >= 16:
                continue
            s0, s1_ = _num(record.get("t0")), _num(record.get("t1"))
            if s0 is None or s1_ is None:
                continue
            name = str(record.get("name", "?"))
            # Repeated same-name spans (per-vector ATPG sims) collapse to
            # their first occurrence to keep the waterfall readable.
            if seen.get(name):
                continue
            seen[name] = 1
            rows.append(
                {
                    "label": ("  " * depth) + name,
                    "start": s0 - t0,
                    "dur": s1_ - s0,
                    "cls": "s1" if depth != 1 else "s2",
                    "tip": (
                        f"{name}: {_fmt_s(s1_ - s0)} "
                        f"(starts at {_fmt_s(s0 - t0)})"
                    ),
                }
            )
        body = _timeline_rows(rows, total)
    else:
        body = _note("spans in this history carry no timeline endpoints")
    caption = (
        f"span timeline of the latest traced run ({manifest.benchmark}); "
        "hover a bar for exact timings"
    )
    return _panel("panel-waterfall", "Pipeline waterfall", body, caption)


def _analysis_panel(manifests: Sequence["RunManifest"]) -> str:
    """Redundancy-prover summary of the latest run that recorded one.

    Manifests written before the prover existed, or before it became the
    only static analysis, may carry no ``results["prover"]`` record; the
    panel degrades to a note instead of failing, so old histories still
    render.
    """
    manifest = _latest_with(
        manifests, lambda m: isinstance(m.results.get("prover"), dict)
    )
    if manifest is None:
        return _panel(
            "panel-analysis",
            "Redundancy prover",
            _note(
                "no prover records in this history — the runs predate the "
                "always-on redundancy prover"
            ),
        )
    prover = manifest.results["prover"]
    podem = prover.get("podem") or {}
    certs_failed = int(_num(prover.get("certs_failed")) or 0)
    by_method = prover.get("by_method") or {}
    methods = ", ".join(
        f"{name}: {count}" for name, count in sorted(by_method.items())
    )
    body = _tiles(
        (
            (prover.get("n_proved", 0), "faults proved untestable", "ink"),
            (prover.get("n_screened", "?"), "faults screened", "ink"),
            (prover.get("n_learned", 0), "learned implications", "ink"),
            (
                certs_failed,
                "certificates failed",
                "crit" if certs_failed else "good",
            ),
            (podem.get("backtracks", 0), "PODEM backtracks", "ink"),
            (podem.get("learned_prunes", 0), "learned prunes", "ink"),
            (podem.get("learned_conflicts", 0), "learned conflicts", "ink"),
        )
    )
    if methods:
        body += f'<p class="note">proofs by method — {escape(methods)}</p>'
    caption = (
        f"latest run with prover records ({escape(manifest.benchmark or '?')})"
        "; proved faults leave the coverage denominator before ATPG, each "
        "carrying an independently checked certificate"
    )
    return _panel("panel-analysis", "Redundancy prover", body, caption)


def _resilience_panel(manifests: Sequence["RunManifest"]) -> str:
    restored = recomputed = 0
    reported = 0
    for manifest in manifests:
        r = manifest.resilience
        if not isinstance(r, dict) or not r:
            continue
        reported += 1
        restored += len(r.get("stages_restored") or [])
        recomputed += len(r.get("stages_recomputed") or [])
    if not reported:
        return _panel(
            "panel-resilience",
            "Resilience",
            _note("no resilience records in this history"),
        )
    body = _tiles(
        (
            (restored, "stages restored", "ink"),
            (recomputed, "stages recomputed", "ink"),
        )
    )
    caption = (
        f"aggregated over {reported} run(s) with resilience records; a "
        "restored stage was read back from a checkpoint, not recomputed"
    )
    return _panel("panel-resilience", "Resilience", body, caption)


# ---------------------------------------------------------------------------
# Document assembly
# ---------------------------------------------------------------------------
_CSS = """
:root {
  color-scheme: light dark;
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --text-primary: #0b0b0b; --text-secondary: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834;
  --good: #0ca30c; --critical: #d03b3b;
  --border: rgba(11, 11, 11, 0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    --page: #0d0d0d; --surface-1: #1a1a19;
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5; --series-2: #d95926;
    --border: rgba(255, 255, 255, 0.10);
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--page);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
header { max-width: 1240px; margin: 0 auto 16px; }
header h1 { font-size: 20px; margin: 0 0 4px; }
header p { color: var(--text-secondary); margin: 0; }
main {
  max-width: 1240px; margin: 0 auto; display: grid; gap: 16px;
  grid-template-columns: repeat(auto-fit, minmax(580px, 1fr));
}
.panel {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; min-width: 0;
}
.panel h2 { font-size: 15px; margin: 0 0 10px; }
.panel h3 {
  font-size: 12px; font-weight: 600; color: var(--text-secondary);
  margin: 12px 0 4px;
}
svg { width: 100%; height: auto; display: block; }
.grid { stroke: var(--grid); stroke-width: 1; }
.baseline { stroke: var(--baseline); stroke-width: 1; }
.tick, .axis-label, .row-label {
  font: 11px system-ui, sans-serif; fill: var(--muted);
  font-variant-numeric: tabular-nums;
}
.row-label { fill: var(--text-secondary); }
.axis-label { fill: var(--text-secondary); }
.line { fill: none; stroke-width: 2; stroke-linejoin: round; }
.line.s1 { stroke: var(--series-1); } .line.s2 { stroke: var(--series-2); }
.dot.s1 { fill: var(--series-1); } .dot.s2 { fill: var(--series-2); }
.bar.s1 { fill: var(--series-1); } .bar.s2 { fill: var(--series-2); }
.legend { display: flex; gap: 14px; margin: 2px 0 6px; flex-wrap: wrap; }
.chip {
  display: inline-flex; align-items: center; gap: 6px;
  font-size: 12px; color: var(--text-secondary);
}
.swatch {
  width: 10px; height: 10px; border-radius: 2px; display: inline-block;
}
.swatch.s1 { background: var(--series-1); }
.swatch.s2 { background: var(--series-2); }
.chart-grid {
  display: grid; gap: 12px;
  grid-template-columns: repeat(auto-fit, minmax(250px, 1fr));
}
.caption, .note { color: var(--muted); font-size: 12px; margin: 8px 0 0; }
.note { font-style: italic; }
.tiles {
  display: grid; gap: 10px;
  grid-template-columns: repeat(auto-fit, minmax(120px, 1fr));
}
.tile {
  border: 1px solid var(--border); border-radius: 6px;
  padding: 10px 12px; text-align: center;
}
.tile-value {
  font-size: 24px; font-weight: 600;
  font-variant-numeric: tabular-nums;
}
.tile-value.good { color: var(--good); }
.tile-value.crit { color: var(--critical); }
.tile-label { color: var(--text-secondary); font-size: 11px; }
table.data {
  border-collapse: collapse; font-size: 12px; margin-top: 4px;
  font-variant-numeric: tabular-nums; width: 100%;
}
table.data th, table.data td {
  text-align: left; padding: 3px 10px 3px 0;
  border-bottom: 1px solid var(--grid); color: var(--text-secondary);
}
table.data th { color: var(--muted); font-weight: 600; }
footer {
  max-width: 1240px; margin: 16px auto 0; color: var(--muted);
  font-size: 12px;
}
"""


def build_report(
    manifests: Sequence["RunManifest"],
    last: int | None = None,
    source: str | None = None,
) -> str:
    """Render the full dashboard HTML for a manifest history.

    ``last`` keeps only the most recent N runs; ``source`` names the history
    file(s) in the header.  The output is a complete standalone document —
    no scripts, no external references.
    """
    manifests = list(manifests)
    if last is not None and last > 0:
        manifests = manifests[-last:]
    benchmarks = sorted({m.benchmark for m in manifests})
    subtitle = (
        f"{len(manifests)} run(s)"
        + (f" · {', '.join(benchmarks)}" if benchmarks else "")
        + (f" · {source}" if source else "")
    )
    panels = (
        _trend_panel(manifests)
        + _coverage_panel(manifests)
        + _ndetection_panel(manifests)
        + _waterfall_panel(manifests)
        + _analysis_panel(manifests)
        + _resilience_panel(manifests)
        if manifests
        else "".join(
            _panel(panel_id, panel_id.removeprefix("panel-").title(),
                   _note("no runs recorded"))
            for panel_id in PANEL_IDS
        )
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        '<meta name="viewport" content="width=device-width, initial-scale=1">\n'
        "<title>repro performance observatory</title>\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        "<header><h1>Performance observatory</h1>"
        f"<p>{escape(subtitle)}</p></header>\n"
        f"<main>{panels}</main>\n"
        "<footer>generated by python -m repro obs html — self-contained, "
        "no external resources; hover any mark for exact values</footer>\n"
        "</body>\n</html>\n"
    )


def write_report(
    path: str,
    manifests: Sequence["RunManifest"],
    last: int | None = None,
    source: str | None = None,
) -> int:
    """Write the dashboard to ``path``; returns the byte count written."""
    document = build_report(manifests, last=last, source=source)
    data = document.encode("utf-8")
    with open(path, "wb") as sink:
        sink.write(data)
    return len(data)
