"""Human-readable rendering of collected spans and metrics.

``python -m repro --profile`` prints these after the run: a stage-timing
tree (wall and CPU milliseconds, self-time for spans with children), the
"where the time goes" share table of the pipeline stages, and a table of
every counter, gauge and histogram summary.

Kept free of imports from :mod:`repro.experiments` (which imports the
instrumented pipeline, which imports :mod:`repro.obs`) — the tiny table
formatter is local.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, TraceCollector

__all__ = [
    "render_span_tree",
    "render_metrics",
    "render_profile",
    "render_time_shares",
]


def _fmt_ms(seconds: float) -> str:
    return f"{1000.0 * seconds:9.1f} ms"


#: Children sharing a name beyond this count render as one aggregate line
#: (e.g. the per-vector fault-sim calls inside the PODEM top-off loop).
_AGGREGATE_THRESHOLD = 4


def _span_lines(span: Span, depth: int, lines: list[str]) -> None:
    attrs = ""
    if span.attributes:
        attrs = "  [" + ", ".join(
            f"{k}={v}" for k, v in sorted(span.attributes.items())
        ) + "]"
    self_note = ""
    if span.children:
        self_note = f"  (self {1000.0 * span.self_wall_time:.1f} ms)"
    lines.append(
        f"{'  ' * depth}{span.name:<{max(1, 34 - 2 * depth)}}"
        f"{_fmt_ms(span.wall_time)}  cpu {_fmt_ms(span.cpu_time)}"
        f"{self_note}{attrs}"
    )
    by_name: dict[str, int] = {}
    for child in span.children:
        by_name[child.name] = by_name.get(child.name, 0) + 1
    aggregated: set[str] = set()
    for child in span.children:
        if by_name[child.name] >= _AGGREGATE_THRESHOLD:
            if child.name in aggregated:
                continue
            aggregated.add(child.name)
            group = [c for c in span.children if c.name == child.name]
            label = f"{child.name} ×{len(group)}"
            lines.append(
                f"{'  ' * (depth + 1)}{label:<{max(1, 34 - 2 * (depth + 1))}}"
                f"{_fmt_ms(sum(c.wall_time for c in group))}"
                f"  cpu {_fmt_ms(sum(c.cpu_time for c in group))}"
            )
        else:
            _span_lines(child, depth + 1, lines)


def render_span_tree(collector: TraceCollector) -> str:
    """The indented per-stage timing tree of every root span."""
    lines = ["stage timings (wall / thread-CPU):"]
    if not collector.roots:
        lines.append("  (no spans recorded)")
    for root in collector.roots:
        _span_lines(root, 1, lines)
    return "\n".join(lines)


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
    return lines


def render_metrics(registry: MetricsRegistry) -> str:
    """Counters, gauges and histogram summaries as one aligned table."""
    rows: list[list[str]] = []
    for name, counter in sorted(registry.counters.items()):
        rows.append([name, "counter", str(counter.value)])
    for name, gauge in sorted(registry.gauges.items()):
        if gauge.value is not None:
            rows.append([name, "gauge", f"{gauge.value:.6g}"])
    for name, hist in sorted(registry.histograms.items()):
        if not hist.count:
            continue
        rows.append(
            [
                name,
                "histogram",
                f"n={hist.count} mean={hist.mean:.3g} "
                f"p50={hist.percentile(50):.3g} "
                f"p95={hist.percentile(95):.3g} "
                f"min={hist.min:.3g} max={hist.max:.3g}",
            ]
        )
    lines = ["metrics:"]
    if rows:
        lines.extend("  " + line for line in _table(["name", "kind", "value"], rows))
    else:
        lines.append("  (no metrics recorded)")
    return "\n".join(lines)


def render_time_shares(collector: TraceCollector) -> str:
    """The "where the time goes" table: direct children of ``pipeline.run``.

    Children are aggregated by name over every ``pipeline.run`` span, each
    with its wall and its share of the ``pipeline.run`` total.  The
    ``(self)`` row is the remainder, so the shares add up to 100 % by
    construction.  Empty when no pipeline ran (e.g. a cache hit).
    """
    runs = collector.find("pipeline.run")
    total = sum(run.wall_time for run in runs)
    if not total:
        return ""
    walls: dict[str, float] = {}
    for run in runs:
        for child in run.children:
            walls[child.name] = walls.get(child.name, 0.0) + child.wall_time
    shares = sorted(walls.items(), key=lambda kv: -kv[1])
    shares.append(("(self)", total - sum(walls.values())))
    rows = [
        [name, _fmt_ms(seconds), f"{100.0 * seconds / total:6.2f} %"]
        for name, seconds in shares
    ]
    lines = [f"where the time goes (pipeline.run {_fmt_ms(total).strip()}):"]
    lines.extend("  " + line for line in _table(["stage", "wall", "share"], rows))
    return "\n".join(lines)


def _render_engine(engine: dict[str, object]) -> str:
    """One-block engine descriptor (``engine_info()`` of the last run)."""
    lines = ["engine:"]
    for key, value in engine.items():
        if value is None:
            continue
        lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def render_profile(
    collector: TraceCollector,
    registry: MetricsRegistry,
    engine: dict[str, object] | None = None,
) -> str:
    """The full ``--profile`` report: span tree, time shares, engine, metrics.

    ``engine`` is the fault-simulation engine descriptor
    (:meth:`~repro.simulation.parallel.ParallelFaultSimulator.engine_info`);
    when given it renders between the tree and the metrics, and a one-line
    resilience summary (retries / salvaged / serial chunks) follows the
    metrics when the run had anything to report.
    """
    parts = [render_span_tree(collector)]
    shares = render_time_shares(collector)
    if shares:
        parts.append(shares)
    if engine:
        parts.append(_render_engine(engine))
    parts.append(render_metrics(registry))
    retries = registry.counters.get("resilience.chunk_retries")
    salvaged = registry.counters.get("resilience.chunks_salvaged")
    degraded = registry.counters.get("resilience.degraded_runs")
    if any(c is not None and c.value for c in (retries, salvaged, degraded)):
        parts.append(
            "resilience: "
            f"{retries.value if retries else 0} chunk retries, "
            f"{salvaged.value if salvaged else 0} chunks salvaged, "
            f"{degraded.value if degraded else 0} degraded run(s)"
        )
    return "\n\n".join(parts)
