"""Unit tests for random-pattern generation with coverage tracking."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, GateType, parity_tree
from repro.circuit.iscas import load_benchmark
from repro.simulation import (
    NumpyFaultSimulator,
    collapse_faults,
    full_fault_universe,
)
from repro.atpg import generate_random_tests
from tests.fault_sim_oracle import batch_random_tests
from tests.strategies import small_circuits


def test_random_reaches_full_coverage_on_c17(c17_circuit):
    result = generate_random_tests(
        c17_circuit, target_coverage=1.0, max_patterns=512, seed=3
    )
    assert result.coverage == 1.0
    assert not result.undetected
    assert result.test_set.n_random == len(result.test_set)


def test_coverage_accounting_consistent(c17_circuit):
    faults = collapse_faults(c17_circuit)
    result = generate_random_tests(c17_circuit, faults, target_coverage=0.8)
    assert len(result.detected) + len(result.undetected) == len(faults)
    sim = NumpyFaultSimulator(c17_circuit)
    check = sim.run(result.test_set.patterns, faults=faults)
    assert set(check.first_detection) == set(result.detected)


def test_target_coverage_stops_early(c17_circuit):
    low = generate_random_tests(c17_circuit, target_coverage=0.5, seed=3)
    high = generate_random_tests(c17_circuit, target_coverage=1.0, seed=3)
    assert low.coverage >= 0.5
    assert len(low.test_set) <= len(high.test_set)


def test_max_patterns_cap():
    ckt = parity_tree(16)
    result = generate_random_tests(
        ckt, target_coverage=1.0, max_patterns=128, patience=10_000
    )
    assert len(result.test_set) <= 128


def test_patience_terminates():
    # A tiny patience stops generation quickly even short of target.
    ckt = parity_tree(16)
    result = generate_random_tests(
        ckt, target_coverage=1.0, max_patterns=100_000, patience=64, seed=5
    )
    assert len(result.test_set) < 100_000


def test_reproducible_with_seed(c17_circuit):
    a = generate_random_tests(c17_circuit, seed=11)
    b = generate_random_tests(c17_circuit, seed=11)
    assert a.test_set.patterns == b.test_set.patterns
    assert a.coverage == b.coverage


# ---------------------------------------------------------------------------
# The one-pass stop rule against the 64-vector batch loop
# ---------------------------------------------------------------------------
def _assert_same_run(result, reference):
    assert result.test_set.patterns == reference.test_set.patterns
    assert result.test_set.sources == reference.test_set.sources
    assert result.detected == reference.detected  # order included
    assert result.undetected == reference.undetected
    assert result.coverage == reference.coverage


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    ckt=small_circuits(max_inputs=10, max_gates=16),
    universe=st.sampled_from(["collapsed", "full", "half", "empty"]),
    target=st.sampled_from([0.3, 0.7, 0.9, 0.97, 1.0]),
    max_patterns=st.sampled_from([0, 1, 63, 64, 65, 100, 128, 200, 333]),
    patience=st.integers(1, 300),
    seed=st.integers(0, 2**16),
)
def test_one_pass_matches_batch_loop(
    ckt, universe, target, max_patterns, patience, seed
):
    if universe == "collapsed":
        faults = collapse_faults(ckt)
    elif universe == "full":
        faults = full_fault_universe(ckt)
    elif universe == "half":
        faults = collapse_faults(ckt)[::2]
    else:
        faults = []
    kwargs = dict(
        target_coverage=target,
        max_patterns=max_patterns,
        patience=patience,
        seed=seed,
    )
    _assert_same_run(
        generate_random_tests(ckt, faults, **kwargs),
        batch_random_tests(ckt, faults, **kwargs),
    )


def _slow_and_redundant():
    """An 8-input AND, detected about once per 256 vectors, and a
    redundant ``m/sa0`` that keeps coverage below 1 so patience decides."""
    ckt = Circuit(name="slow")
    for net in ["a", "b"] + [f"i{k}" for k in range(8)]:
        ckt.add_input(net)
    ckt.add_gate(GateType.AND, ["a", "b"], "m")
    ckt.add_gate(GateType.OR, ["a", "m"], "z")
    ckt.add_gate(GateType.AND, [f"i{k}" for k in range(8)], "y")
    ckt.add_output("z")
    ckt.add_output("y")
    return ckt


def test_one_pass_matches_batch_loop_at_every_patience():
    """Every patience up to two batches, so each useless run the loop sees
    is also hit exactly (the ``useless_run < patience`` boundary)."""
    ckt = _slow_and_redundant()
    faults = full_fault_universe(ckt)
    for patience in range(1, 130):
        kwargs = dict(
            target_coverage=1.0, max_patterns=700, patience=patience, seed=5
        )
        _assert_same_run(
            generate_random_tests(ckt, faults, **kwargs),
            batch_random_tests(ckt, faults, **kwargs),
        )


@pytest.mark.parametrize("bench", ["c432", "c880", "alu4", "par16"])
@pytest.mark.parametrize("seed", [1234, 7])
def test_one_pass_matches_batch_loop_on_benchmarks(bench, seed):
    ckt = load_benchmark(bench)
    faults = collapse_faults(ckt)
    kwargs = dict(target_coverage=0.9, max_patterns=768, seed=seed)
    _assert_same_run(
        generate_random_tests(ckt, faults, **kwargs),
        batch_random_tests(ckt, faults, **kwargs),
    )


def test_c432_default_prefix_is_704_vectors():
    """The pipeline's random prefix on c432 (screened faults, defaults)."""
    from repro.analysis import analyze_circuit
    from repro.experiments.pipeline import ExperimentConfig

    config = ExperimentConfig(benchmark="c432")
    ckt = load_benchmark("c432")
    collapsed = collapse_faults(ckt)
    screened = analyze_circuit(ckt, faults=collapsed).screen(collapsed)
    kwargs = dict(
        target_coverage=config.random_coverage_target,
        max_patterns=config.max_random_patterns,
        seed=config.seed,
    )
    result = generate_random_tests(ckt, screened, **kwargs)
    assert len(result.test_set) == 704
    _assert_same_run(result, batch_random_tests(ckt, screened, **kwargs))


def test_word_width_is_ignored(c17_circuit):
    reference = generate_random_tests(c17_circuit, seed=9, max_patterns=200)
    for width in (64, 100, 4096):
        _assert_same_run(
            generate_random_tests(
                c17_circuit, seed=9, max_patterns=200, word_width=width
            ),
            reference,
        )
