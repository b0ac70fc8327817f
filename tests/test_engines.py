"""Cross-engine bit-exactness of the numpy bitslice kernel.

The numpy engine runs the pipeline's stuck-at stage and is only allowed to
be *faster* than the python wide-word reference, never different: every
test here pins some slice of the equivalence claim.

* packing — ``pack_bitslice`` lays patterns out as little-endian words on
  any host;
* equivalence — a hypothesis property asserts identical
  ``FaultSimResult`` contents (first detections, detection counts,
  coverage curves) across benchmarks, word widths and both drop modes.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.iscas import load_benchmark
from repro.simulation import (
    FaultSimulator,
    NumpyFaultSimulator,
    collapse_faults,
    pack_bitslice,
)
from repro.simulation.numpy_sim import DEFAULT_NUMPY_WIDTH


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
# Packing and construction
# ---------------------------------------------------------------------------
def test_pack_bitslice_sets_pattern_p_at_bit_p():
    patterns = [[0, 1] for _ in range(65)]
    for p in (0, 2, 3, 63):
        patterns[p][0] = 1
    words = pack_bitslice(patterns, 2)
    assert words.dtype == np.uint64
    assert words.shape == (2, 2)  # 65 patterns -> 2 words per input
    assert int(words[0, 0]) == (1 << 0) | (1 << 2) | (1 << 3) | (1 << 63)
    assert int(words[1, 0]) == 0
    # The tail word holds only pattern 64; padding bits stay clear.
    assert int(words[0, 1]) == (1 << 64) - 1
    assert int(words[1, 1]) == 1


def test_numpy_engine_validates_width():
    ckt = load_benchmark("c17")
    with pytest.raises(ValueError):
        NumpyFaultSimulator(ckt, width=100)
    with pytest.raises(ValueError):
        NumpyFaultSimulator(ckt, width=0)


def test_pipeline_stuck_stage_runs_numpy_at_default_width():
    from repro.experiments import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(benchmark="c17"))
    assert result.engine == {"kind": "numpy", "word_width": DEFAULT_NUMPY_WIDTH}


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
