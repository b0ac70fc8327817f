"""Unit tests for the observability subsystem (repro.obs)."""

from __future__ import annotations

import threading
import time

import pytest

from repro import obs
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import NULL_SPAN


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Every test starts and ends with collection disabled."""
    obs.disable()
    yield
    obs.disable()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
def test_span_nesting_builds_a_tree():
    collector, _ = obs.enable()
    with obs.span("outer", stage="pipeline"):
        with obs.span("inner_a"):
            pass
        with obs.span("inner_a"):
            pass
        with obs.span("inner_b"):
            with obs.span("leaf"):
                pass

    assert len(collector.roots) == 1
    outer = collector.roots[0]
    assert outer.name == "outer"
    assert outer.attributes == {"stage": "pipeline"}
    assert [c.name for c in outer.children] == ["inner_a", "inner_a", "inner_b"]
    assert [c.name for c in outer.children[2].children] == ["leaf"]
    assert len(collector.find("inner_a")) == 2


def test_span_records_wall_and_cpu_time():
    collector, _ = obs.enable()
    with obs.span("timed"):
        time.sleep(0.01)
    (span,) = collector.roots
    assert span.wall_time >= 0.009
    assert span.end_wall is not None and span.end_cpu is not None
    # sleeping burns wall time, not CPU
    assert span.cpu_time < span.wall_time


def test_span_set_attaches_attributes():
    collector, _ = obs.enable()
    with obs.span("stage") as active:
        active.set(n_faults=7).set(coverage=0.5)
    assert collector.roots[0].attributes == {"n_faults": 7, "coverage": 0.5}


def test_stage_timings_aggregate_by_name():
    collector, _ = obs.enable()
    for _ in range(3):
        with obs.span("repeated"):
            pass
    timings = collector.stage_timings()
    assert set(timings) == {"repeated"}
    assert timings["repeated"] >= 0.0


def test_spans_are_thread_safe():
    collector, _ = obs.enable()

    def worker(tag: str) -> None:
        with obs.span("thread_root", tag=tag):
            with obs.span("thread_child"):
                pass

    threads = [threading.Thread(target=worker, args=(str(i),)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Each thread contributes exactly one root with one child: no cross-talk.
    assert len(collector.roots) == 8
    assert all(len(r.children) == 1 for r in collector.roots)


# ---------------------------------------------------------------------------
# No-op (disabled) path
# ---------------------------------------------------------------------------
def test_disabled_span_is_shared_noop_singleton():
    assert not obs.is_enabled()
    assert obs.span("anything", attr=1) is NULL_SPAN
    assert obs.span("other") is NULL_SPAN
    with obs.span("works_as_context_manager") as s:
        s.set(ignored=True)
    # Metric helpers silently discard.
    obs.inc("counter")
    obs.observe("hist", 1.0)
    obs.set_gauge("gauge", 2.0)
    assert obs.collector() is None and obs.registry() is None


def test_disabled_instrumentation_overhead_is_negligible():
    """100k disabled metric+span calls must stay far under a second."""
    assert not obs.is_enabled()
    start = time.perf_counter()
    for _ in range(100_000):
        obs.inc("x")
        obs.span("y")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0


def test_enable_disable_round_trip():
    collector, registry = obs.enable()
    assert obs.is_enabled()
    assert obs.collector() is collector and obs.registry() is registry
    obs.inc("seen")
    assert registry.counter("seen").value == 1
    obs.disable()
    obs.inc("seen")  # discarded
    assert registry.counter("seen").value == 1


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(5)
    assert registry.counter("c").value == 6
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1)
    registry.gauge("g").set(1.5)
    registry.gauge("g").set(2.5)
    assert registry.gauge("g").value == 2.5


def test_histogram_bucketing():
    hist = Histogram("h", bounds=[1.0, 10.0, 100.0])
    for value in (0.5, 0.9, 1.0, 5.0, 50.0, 500.0):
        hist.observe(value)
    # buckets are [lo, hi): <1.0, [1,10), [10,100), >=100
    assert hist.buckets == [2, 2, 1, 1]
    assert hist.count == 6
    assert hist.min == 0.5 and hist.max == 500.0
    assert hist.mean == pytest.approx(sum((0.5, 0.9, 1.0, 5.0, 50.0, 500.0)) / 6)
    populated = hist.nonzero_buckets()
    assert populated[0] == (None, 1.0, 2)
    assert populated[-1] == (100.0, None, 1)


def test_histogram_default_bounds_span_decades():
    hist = Histogram("weights")
    hist.observe(1e-8)
    hist.observe(1e-2)
    hist.observe(1e4)
    assert hist.count == 3
    assert len(hist.nonzero_buckets()) == 3  # three different decades


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("bad", bounds=[10.0, 1.0])


def test_histogram_percentile_tracks_sorted_raw_samples():
    # Bucketed percentiles are estimates; with bucket-aligned samples they
    # must stay within one bucket of the exact (sorted-sample) answer.
    import random

    rng = random.Random(42)
    samples = [rng.uniform(0.001, 1000.0) for _ in range(500)]
    hist = Histogram("h")
    for value in samples:
        hist.observe(value)
    ranked = sorted(samples)
    for q in (10, 25, 50, 75, 90, 95, 99):
        exact = ranked[min(len(ranked) - 1, int(q / 100.0 * len(ranked)))]
        estimate = hist.percentile(q)
        # Default bounds are decade-spaced: the estimate must land within
        # one decade of the exact sample statistic.
        assert exact / 10.0 <= estimate <= exact * 10.0


def test_histogram_percentile_edge_cases():
    hist = Histogram("h")
    hist.observe(5.0)
    hist.observe(7.0)
    assert hist.percentile(0) == 5.0  # exact min
    assert hist.percentile(100) == 7.0  # exact max
    assert 5.0 <= hist.percentile(50) <= 7.0  # clamped inside [min, max]
    with pytest.raises(ValueError):
        hist.percentile(-1)
    with pytest.raises(ValueError):
        hist.percentile(101)


def test_histogram_percentile_empty_raises():
    # A percentile of nothing is undefined; the old 0.0 silently masked
    # instruments that never observed a sample.
    hist = Histogram("empty")
    with pytest.raises(ValueError, match="empty histogram 'empty'"):
        hist.percentile(50)
    with pytest.raises(ValueError, match="no samples observed"):
        hist.percentile(0)
    # Out-of-range q still reports the range error, samples or not.
    with pytest.raises(ValueError, match=r"\[0, 100\]"):
        hist.percentile(150)

def test_registry_snapshot_is_jsonable():
    import json

    registry = MetricsRegistry()
    registry.counter("a").inc(3)
    registry.gauge("b").set(0.25)
    registry.histogram("c").observe(2.0)
    snap = registry.snapshot()
    parsed = json.loads(json.dumps(snap))
    assert parsed["counters"]["a"] == 3
    assert parsed["gauges"]["b"] == 0.25
    assert parsed["histograms"]["c"]["count"] == 1


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------
def test_manifest_round_trip(tmp_path):
    from repro.experiments import ExperimentConfig
    from repro.obs.manifest import RunManifest, config_hash, read_manifests

    collector, registry = obs.enable()
    with obs.span("pipeline.run"):
        with obs.span("stage_a"):
            pass
    registry.counter("pipeline.cache_miss").inc()
    registry.histogram("weights").observe(1e-6)

    config = ExperimentConfig(benchmark="c17", seed=99)
    manifest = RunManifest.from_run(
        config,
        collector=collector,
        registry=registry,
        cache="miss",
        results={"R": 1.9, "theta_max": 0.96},
    )
    path = tmp_path / "trace.jsonl"
    n_records = manifest.write(str(path))
    assert n_records >= 3  # manifest + >=1 span + metrics

    (parsed,) = read_manifests(str(path))
    assert parsed.benchmark == "c17"
    assert parsed.seed == 99
    assert parsed.cache == "miss"
    assert parsed.config_hash == config_hash(config)
    assert parsed.config["max_random_patterns"] == 768
    assert parsed.results == {"R": 1.9, "theta_max": 0.96}
    assert "pipeline.run" in parsed.stage_timings
    assert parsed.spans[0]["name"] == "pipeline.run"
    assert parsed.metrics["counters"]["pipeline.cache_miss"] == 1


def test_manifest_append_accumulates_runs(tmp_path):
    from repro.obs.manifest import RunManifest, read_manifests

    path = tmp_path / "trace.jsonl"
    RunManifest(benchmark="c17", seed=1).write(str(path))
    RunManifest(benchmark="c432", seed=2).write(str(path))
    manifests = read_manifests(str(path))
    assert [m.benchmark for m in manifests] == ["c17", "c432"]


def test_read_manifests_skips_torn_final_line(tmp_path):
    from repro.obs.manifest import RunManifest, read_manifests

    path = tmp_path / "trace.jsonl"
    RunManifest(benchmark="c17", seed=1).write(str(path))
    RunManifest(
        benchmark="c432", seed=2, metrics={"counters": {"x": 1}}
    ).write(str(path))
    # Tear the final (metrics) record mid-write, the way a killed run
    # leaves it: the run's manifest line survives, its last record doesn't.
    content = path.read_text()
    path.write_text(content[: len(content) - len(content.splitlines()[-1]) // 2 - 1])
    with pytest.warns(RuntimeWarning, match="corrupt/truncated"):
        manifests = read_manifests(str(path))
    assert [m.benchmark for m in manifests] == ["c17", "c432"]


def test_read_manifests_skips_garbage_interior_line(tmp_path):
    from repro.obs.manifest import RunManifest, read_manifests

    path = tmp_path / "trace.jsonl"
    RunManifest(benchmark="c17", seed=1).write(str(path))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{not json at all\n")
        handle.write("[1, 2, 3]\n")
    RunManifest(benchmark="c432", seed=2).write(str(path))
    with pytest.warns(RuntimeWarning):
        manifests = read_manifests(str(path))
    assert [m.benchmark for m in manifests] == ["c17", "c432"]


def test_config_hash_is_stable_and_sensitive():
    from repro.experiments import ExperimentConfig
    from repro.obs.manifest import config_hash

    a = config_hash(ExperimentConfig(benchmark="c17"))
    b = config_hash(ExperimentConfig(benchmark="c17"))
    c = config_hash(ExperimentConfig(benchmark="c17", seed=7))
    assert a == b
    assert a != c


# ---------------------------------------------------------------------------
# Instrumented pipeline pieces
# ---------------------------------------------------------------------------
def test_fault_sim_records_detection_counts(c17_circuit):
    from repro.atpg.patterns import random_patterns
    from repro.simulation import FaultSimulator, collapse_faults

    sim = FaultSimulator(c17_circuit)
    faults = collapse_faults(c17_circuit)
    patterns = random_patterns(len(c17_circuit.primary_inputs), 32, seed=3)
    result = sim.run(patterns, faults=faults, drop_detected=False)

    # Every detected fault has a positive count; n-detection sets shrink.
    for fault in result.detected:
        assert result.detections_of(fault) >= 1
    assert result.detection_counts
    assert max(result.detection_counts.values()) > 1
    n1 = result.n_detection_coverage(1)
    n5 = result.n_detection_coverage(5)
    assert n1 == result.coverage
    assert 0.0 <= n5 <= n1
    assert set(result.detected_n_times(1)) == set(result.detected)


def test_pipeline_increments_cache_counters():
    from repro.experiments import ExperimentConfig, run_experiment

    _, registry = obs.enable()
    config = ExperimentConfig(benchmark="c17", seed=4242, max_random_patterns=64)
    run_experiment(config)
    assert registry.counter("pipeline.cache_miss").value == 1
    assert registry.counter("pipeline.cache_hit").value == 0
    run_experiment(config)
    assert registry.counter("pipeline.cache_hit").value == 1


def test_profile_report_renders(c17_circuit):
    from repro.atpg.patterns import random_patterns
    from repro.experiments import ExperimentConfig, run_experiment
    from repro.simulation import FaultSimulator, collapse_faults

    collector, registry = obs.enable()
    sim = FaultSimulator(c17_circuit)
    patterns = random_patterns(len(c17_circuit.primary_inputs), 16, seed=1)
    sim.run(patterns, faults=collapse_faults(c17_circuit))

    report = obs.render_profile(collector, registry)
    assert "fault_sim.run" in report
    assert "fault_sim.patterns_applied" in report
    assert "counter" in report
    # No pipeline ran yet: no "where the time goes" table.
    assert "where the time goes" not in report

    run_experiment(
        ExperimentConfig(benchmark="c17", seed=4343, max_random_patterns=64)
    )
    report = obs.render_profile(collector, registry)
    (block,) = [
        part
        for part in report.split("\n\n")
        if part.startswith("where the time goes")
    ]
    # Title, column headers and the rule line, then one row per stage.
    rows = [line.split() for line in block.splitlines()[3:]]
    names = [row[0] for row in rows]
    (run,) = collector.find("pipeline.run")
    children = {child.name for child in run.children}
    assert "pipeline.static_analysis" in children
    assert "pipeline.build_coverage" in children
    assert sorted(names) == sorted(children | {"(self)"})
    assert names[-1] == "(self)"
    shares = [float(row[-2]) for row in rows]
    assert sum(shares) == pytest.approx(100.0, abs=0.1)


def test_extraction_counters_where_the_cost_is(c17_design):
    from repro.defects import DefectStatistics, extract_faults
    from repro.defects.extraction import facing_pairs
    from repro.layout.geometry import Layer

    # Off: a registry left over from an earlier run receives nothing.
    _, stale = obs.enable()
    obs.disable()
    extract_faults(c17_design)
    assert not stale.snapshot()["counters"]

    _, registry = obs.enable()
    extract_faults(c17_design)
    counters = registry.snapshot()["counters"]
    pairs, examined = facing_pairs(c17_design.shapes, DefectStatistics().size.x_max)
    conductors = [layer.value for layer in Layer if layer.is_conductor]
    for layer in conductors:
        assert counters[f"extraction.pairs_examined.{layer}"] == examined[layer]
    assert sum(examined.values()) > len(pairs) > 0
    # At the default densities every facing pair has a positive weight.
    accepted = sum(counters[f"extraction.pairs_accepted.{layer}"] for layer in conductors)
    assert accepted == len(pairs)
    assert counters["extraction.open_nodes_separated"] > 0


def test_switch_sim_counters_per_fault_class(c17_design):
    from collections import Counter

    from repro.atpg import random_patterns
    from repro.defects import extract_faults
    from repro.switchsim import SwitchLevelFaultSimulator

    faults = extract_faults(c17_design).faults
    patterns = random_patterns(5, 100, seed=3)

    # Off: a registry left over from an earlier run receives nothing.
    _, stale = obs.enable()
    obs.disable()
    SwitchLevelFaultSimulator(c17_design, patterns).run(faults)
    assert not stale.snapshot()["counters"]
    assert not stale.snapshot()["gauges"]

    collector, registry = obs.enable()
    sim = SwitchLevelFaultSimulator(c17_design, patterns)
    sim.run(faults)
    counters = registry.snapshot()["counters"]
    by_class = Counter(type(fault).__name__ for fault in faults)
    for name, count in by_class.items():
        assert counters[f"switch_sim.faults.{name}"] == count
    # Wall per fault class, taken around each fault's dispatch.
    gauges = registry.snapshot()["gauges"]
    walls = [gauges.pop(f"switch_sim.wall_s.{name}") for name in by_class]
    assert all(seconds > 0 for seconds in walls)
    assert not [name for name in gauges if name.startswith("switch_sim.wall_s.")]
    (run,) = collector.find("switch_sim.run")
    assert sum(walls) <= run.wall_time
    injections = sum(
        counters.get(f"switch_sim.injections.{name}", 0) for name in by_class
    )
    assert injections == sim._n_injections
    # Every distinct force is simulated once, however many injections use it.
    assert counters["switch_sim.detection_words"] == len(sim._detections)
    assert 0 < counters["switch_sim.detection_words"] < injections

    # A second run on the same simulator reuses every filled force.
    sim.run(faults)
    again = registry.snapshot()["counters"]
    assert again["switch_sim.detection_words"] == len(sim._detections)
    assert again["switch_sim.faults.BridgeFault"] == 2 * by_class["BridgeFault"]


def test_prover_counters_by_method_work_and_phase():
    from repro.analysis import analyze_circuit
    from repro.circuit.iscas import BENCHMARKS

    alu4_circuit = BENCHMARKS["alu4"]()

    # Off: a registry left over from an earlier run receives nothing.
    _, stale = obs.enable()
    obs.disable()
    analyze_circuit(alu4_circuit, prove=True)
    assert not stale.snapshot()["counters"]

    collector, registry = obs.enable()
    analysis = analyze_circuit(alu4_circuit, prove=True)
    snapshot = registry.snapshot()
    counters, gauges = snapshot["counters"], snapshot["gauges"]
    prover = analysis.prover
    proved = {
        name.removeprefix("analysis.proved."): value
        for name, value in counters.items()
        if name.startswith("analysis.proved.")
    }
    assert proved == prover.by_method
    assert sum(proved.values()) == counters["analysis.proved_faults"] > 0
    for key, value in prover.work.items():
        assert counters[f"analysis.prover.{key}"] == value
    phases = ("fire", "static_learning")
    walls = [gauges[f"analysis.prover.wall_s.{phase}"] for phase in phases]
    assert all(seconds > 0 for seconds in walls)
    (span,) = collector.find("analysis.prover")
    assert sum(walls) <= span.wall_time
