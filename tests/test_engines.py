"""Engine registry + cross-engine bit-exactness of the numpy bitslice kernel.

The numpy engine is only allowed to be *faster* than the python wide-word
reference, never different: every test here pins some slice of the
equivalence claim.

* registry — ``resolve_engine`` honours explicit requests, ``auto``
  degrades to python (with a recorded reason) instead of failing, and an
  explicit ``numpy`` request on a platform that fails the preflight raises
  up front;
* equivalence — a hypothesis property asserts identical
  ``FaultSimResult`` contents (first detections, detection counts,
  coverage curves) across benchmarks, word widths and both drop modes,
  serial and parallel;
* resilience — chunk salvage and the serial fallback stay bit-exact with
  the numpy engine active under injected chaos.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuit.iscas import load_benchmark
from repro.resilience import ChaosPlan, ChaosRule, chaos
from repro.simulation import (
    ENGINE_KINDS,
    ENGINE_NAMES,
    EngineUnavailableError,
    FaultSimulator,
    NumpyFaultSimulator,
    ParallelFaultSimulator,
    collapse_faults,
    create_engine,
    numpy_preflight,
    resolve_engine,
)
from repro.simulation.numpy_sim import DEFAULT_NUMPY_WIDTH


@pytest.fixture(autouse=True)
def _clean_state():
    chaos.uninstall()
    obs.disable()
    yield
    chaos.uninstall()
    obs.disable()


def _patterns(circuit, n, seed=7):
    rng = random.Random(seed)
    n_pi = len(circuit.primary_inputs)
    return [[rng.randint(0, 1) for _ in range(n_pi)] for _ in range(n)]


def _assert_identical(result, reference):
    assert result.faults == reference.faults
    assert result.n_patterns == reference.n_patterns
    assert result.first_detection == reference.first_detection
    assert result.detection_counts == reference.detection_counts
    assert result.coverage_curve() == reference.coverage_curve()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_engine_name_constants():
    assert ENGINE_NAMES == ("python", "numpy", "auto")
    assert ENGINE_KINDS == ("python", "numpy")


def test_resolve_explicit_requests():
    assert resolve_engine("python") == ("python", "requested")
    # CI always has a healthy numpy; the preflight-failure path is forced
    # below by poisoning the cache.
    assert resolve_engine("numpy") == ("numpy", "requested")


def test_resolve_auto_picks_numpy_and_records_reason():
    kind, reason = resolve_engine("auto")
    assert kind == "numpy"
    assert reason.startswith("auto: ")


def test_resolve_auto_degrades_on_bad_width():
    kind, reason = resolve_engine("auto", width=100)
    assert kind == "python"
    assert "64" in reason


def test_resolve_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("fortran")


def test_explicit_numpy_rejects_bad_width():
    with pytest.raises(EngineUnavailableError, match="multiple of 64"):
        resolve_engine("numpy", width=100)


def test_explicit_numpy_fails_closed_when_preflight_fails(monkeypatch):
    from repro.simulation import engines

    monkeypatch.setattr(
        engines, "_preflight_cache", (False, "forced by test")
    )
    with pytest.raises(EngineUnavailableError, match="forced by test"):
        resolve_engine("numpy")
    kind, reason = resolve_engine("auto")
    assert kind == "python"
    assert reason == "auto: forced by test"


def test_preflight_passes_and_is_cached():
    first = numpy_preflight()
    assert first == (True, "uint64 bitslice probes passed")
    assert numpy_preflight() is first


def test_create_engine_defaults():
    ckt = load_benchmark("c17")
    python_engine = create_engine("python", ckt)
    assert isinstance(python_engine, FaultSimulator)
    assert python_engine.kind == "python"
    numpy_engine = create_engine("numpy", ckt)
    assert isinstance(numpy_engine, NumpyFaultSimulator)
    assert numpy_engine.kind == "numpy"
    assert numpy_engine.width == DEFAULT_NUMPY_WIDTH
    assert isinstance(create_engine("auto", ckt), NumpyFaultSimulator)


def test_numpy_engine_validates_width():
    ckt = load_benchmark("c17")
    with pytest.raises(ValueError):
        NumpyFaultSimulator(ckt, width=100)
    with pytest.raises(ValueError):
        NumpyFaultSimulator(ckt, width=0)


# ---------------------------------------------------------------------------
# Cross-engine equivalence
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("bench", ["c17", "c432_like", "c880_like"])
@pytest.mark.parametrize("drop", [False, True])
def test_numpy_matches_python_on_benchmarks(bench, drop):
    ckt = load_benchmark(bench)
    faults = collapse_faults(ckt)
    patterns = _patterns(ckt, 130, seed=11)
    # Same width for both engines: with fault dropping the detection
    # counts are defined per detection *group*, so group boundaries are
    # part of the contract.
    reference = FaultSimulator(ckt, width=128).run(
        patterns, faults=faults, drop_detected=drop
    )
    result = NumpyFaultSimulator(ckt, width=128, lane_batch=13).run(
        patterns, faults=faults, drop_detected=drop
    )
    _assert_identical(result, reference)


@settings(max_examples=20, deadline=None)
@given(
    bench=st.sampled_from(["c17", "c432_like"]),
    width_words=st.integers(min_value=1, max_value=4),
    n_patterns=st.integers(min_value=1, max_value=200),
    drop=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_cross_engine_equivalence_property(
    bench, width_words, n_patterns, drop, seed
):
    ckt = load_benchmark(bench)
    faults = collapse_faults(ckt)
    patterns = _patterns(ckt, n_patterns, seed=seed)
    width = 64 * width_words
    reference = FaultSimulator(ckt, width=width).run(
        patterns, faults=faults, drop_detected=drop
    )
    result = NumpyFaultSimulator(ckt, width=width, lane_batch=7).run(
        patterns, faults=faults, drop_detected=drop
    )
    _assert_identical(result, reference)


@pytest.mark.parametrize("engine", ["python", "numpy", "auto"])
def test_parallel_engines_match_serial_reference(engine):
    ckt = load_benchmark("c432_like")
    faults = collapse_faults(ckt)
    patterns = _patterns(ckt, 96, seed=3)
    reference = FaultSimulator(ckt, width=128).run(patterns, faults=faults)
    pool = ParallelFaultSimulator(
        ckt, width=128, max_workers=2, crossover=0, engine=engine
    )
    pool._sleep = lambda s: None
    result = pool.run(patterns, faults=faults)
    _assert_identical(result, reference)
    info = pool.engine_info()
    assert info["requested"] == engine
    assert info["kind"] in ENGINE_KINDS
    assert info["kind"] == ("python" if engine == "python" else "numpy")
    assert pool.last_engine == "parallel"


def test_engine_info_records_defaults_and_reason():
    from repro.simulation.engines import default_crossover

    ckt = load_benchmark("c17")
    pool = ParallelFaultSimulator(ckt, engine="auto")
    info = pool.engine_info()
    assert info["kind"] == "numpy"
    assert info["requested"] == "auto"
    assert str(info["reason"]).startswith("auto: ")
    assert info["word_width"] == DEFAULT_NUMPY_WIDTH
    assert info["crossover"] == default_crossover("numpy")
    python_pool = ParallelFaultSimulator(ckt, engine="python")
    assert python_pool.engine_info()["crossover"] == (
        default_crossover("python")
    )


# ---------------------------------------------------------------------------
# Resilience with the numpy engine active
# ---------------------------------------------------------------------------
def test_chaos_salvage_stays_bit_exact_with_numpy_engine():
    ckt = load_benchmark("c432_like")
    faults = collapse_faults(ckt)
    patterns = _patterns(ckt, 64, seed=5)
    reference = FaultSimulator(ckt, width=64).run(patterns, faults=faults)
    # Chunk 0 fails on every attempt: retries exhaust and the supervisor
    # must salvage the healthy chunk and re-run the failed one serially —
    # through the numpy engine's own _simulate_groups.
    plan = ChaosPlan(
        rules=(
            ChaosRule(
                point="parallel.chunk",
                kind="exception",
                keys={0},
                attempts={0, 1, 2, 3},
            ),
        )
    )
    pool = ParallelFaultSimulator(
        ckt, width=64, max_workers=2, crossover=0, engine="numpy"
    )
    pool._sleep = lambda s: None
    with chaos.active(plan), pytest.warns(RuntimeWarning, match="degraded"):
        result = pool.run(patterns, faults=faults)
    _assert_identical(result, reference)
    info = pool.engine_info()
    assert info["kind"] == "numpy"
    assert info["degraded"] is True
    assert info["chunks_serial"] >= 1


def test_total_pool_failure_salvages_everything_through_numpy_serial():
    ckt = load_benchmark("c432_like")
    faults = collapse_faults(ckt)
    patterns = _patterns(ckt, 64, seed=9)
    reference = FaultSimulator(ckt, width=64).run(patterns, faults=faults)
    # Every chunk fails on every attempt: the pool contributes nothing and
    # the complete fault list re-runs through the numpy engine serially.
    plan = ChaosPlan(
        rules=(
            ChaosRule(point="parallel.chunk", kind="exception", keys={0, 1}),
        )
    )
    pool = ParallelFaultSimulator(
        ckt, width=64, max_workers=2, crossover=0, engine="numpy"
    )
    pool._sleep = lambda s: None
    with chaos.active(plan), pytest.warns(RuntimeWarning, match="degraded"):
        result = pool.run(patterns, faults=faults)
    _assert_identical(result, reference)
    info = pool.engine_info()
    assert info["kind"] == "numpy"
    assert info["degraded"] is True
    assert info["chunks_serial"] == 2
    assert info["chunks_salvaged"] == 0
