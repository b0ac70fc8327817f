"""Dependency-free observability: spans, metrics and run manifests.

Instrumented code uses four module-level helpers, all of which are no-ops
until collection is enabled::

    from repro import obs

    with obs.span("fault_sim", benchmark="c432"):
        obs.inc("fault_sim.patterns_applied", len(patterns))
        obs.observe("extraction.weights", weight)
        obs.set_gauge("fitting.R", fit.susceptibility_ratio)

The disabled path costs one module-global check per call (``span`` returns a
shared no-op context manager; the metric helpers early-return), so the
default pipeline timings do not regress.  ``obs.enable()`` installs a
thread-safe :class:`~repro.obs.trace.TraceCollector` and
:class:`~repro.obs.metrics.MetricsRegistry`; the CLI enables collection for
``--profile``, ``--trace``, ``--progress`` and ``--events`` runs.

Naming scheme (see ``docs/OBSERVABILITY.md``): dotted lower-case
``<stage>.<quantity>`` — e.g. ``podem.backtracks``, ``pipeline.cache_hit``,
``switch_sim.detected_potential``.
"""

from __future__ import annotations

from repro.obs.events import JsonlWriter, span_record
from repro.obs.export import (
    campaign_chrome_trace,
    chrome_trace,
    write_campaign_trace,
    write_chrome_trace,
)
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    config_hash,
    config_to_dict,
    git_describe,
    read_manifests,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import render_metrics, render_profile, render_span_tree
from repro.obs.trace import NULL_SPAN, Span, TraceCollector

__all__ = [
    "enable",
    "disable",
    "is_enabled",
    "span",
    "inc",
    "observe",
    "set_gauge",
    "collector",
    "registry",
    "Span",
    "TraceCollector",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunManifest",
    "MANIFEST_SCHEMA_VERSION",
    "config_hash",
    "config_to_dict",
    "git_describe",
    "read_manifests",
    "render_span_tree",
    "render_metrics",
    "render_profile",
    "NULL_SPAN",
    "JsonlWriter",
    "span_record",
    "chrome_trace",
    "write_chrome_trace",
    "campaign_chrome_trace",
    "write_campaign_trace",
]

_collector: TraceCollector | None = None
_registry: MetricsRegistry | None = None


def enable(
    trace_collector: TraceCollector | None = None,
    metrics_registry: MetricsRegistry | None = None,
) -> tuple[TraceCollector, MetricsRegistry]:
    """Install (fresh or given) collector + registry; returns both."""
    global _collector, _registry
    _collector = trace_collector or TraceCollector()
    _registry = metrics_registry or MetricsRegistry()
    return _collector, _registry


def disable() -> None:
    """Return to the zero-overhead no-op state."""
    global _collector, _registry
    _collector = None
    _registry = None


def is_enabled() -> bool:
    """True while a collector is installed."""
    return _collector is not None


def collector() -> TraceCollector | None:
    """The active span collector, or None when disabled."""
    return _collector


def registry() -> MetricsRegistry | None:
    """The active metrics registry, or None when disabled."""
    return _registry


def span(name: str, **attributes: object):
    """Open a (possibly no-op) timing span: ``with obs.span("stage"): ...``"""
    if _collector is None:
        return NULL_SPAN
    return _collector.start(name, attributes)


def inc(name: str, amount: int = 1) -> None:
    """Increment counter ``name`` (no-op while disabled)."""
    if _registry is None:
        return
    _registry.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op while disabled)."""
    if _registry is None:
        return
    _registry.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` (no-op while disabled)."""
    if _registry is None:
        return
    _registry.gauge(name).set(value)

