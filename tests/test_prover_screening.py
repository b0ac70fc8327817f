"""Oracle for proving only what the random stream leaves undetected.

The pipeline simulates the whole random stream before analysis and hands
the prover only the faults no vector detects.  That is sound because a
detected fault is testable, and it changes nothing because each fault's
proof is independent of the others: proving every collapsed fault and
proving only the undetected ones give the same faults, reasons, methods and
certificates, whatever order the prover's lemma caches fill in.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import analyze_circuit
from repro.atpg import simulate_random_stream
from repro.circuit.iscas import load_benchmark
from repro.experiments.pipeline import ExperimentConfig
from repro.simulation import NumpyFaultSimulator, collapse_faults
from tests.strategies import small_circuits


def proved(circuit, faults) -> dict[str, object]:
    prover = analyze_circuit(circuit, faults=faults, prove=True).prover
    assert prover is not None
    return {
        "proved": prover.proved,
        "reasons": prover.reasons,
        "methods": prover.methods,
        "certificates": prover.certificates,
        "certs_failed": prover.certs_failed,
    }


def undetected(stream, faults):
    return [f for f in faults if f not in stream.first_detection]


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    circuit=small_circuits(max_inputs=6, max_gates=14),
    n_vectors=st.integers(min_value=0, max_value=80),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_screening_proves_the_same_faults(circuit, n_vectors, seed):
    faults = collapse_faults(circuit)
    stream = simulate_random_stream(circuit, faults, n_vectors, seed)
    everything = proved(circuit, faults)
    # Every input vector: no proved fault may be detected by any of them.
    n = len(circuit.primary_inputs)
    exhaustive = [list(bits) for bits in itertools.product((0, 1), repeat=n)]
    detected = NumpyFaultSimulator(circuit).run(exhaustive, faults=faults)
    assert not set(everything["proved"]) & set(stream.first_detection)
    assert not set(everything["proved"]) & set(detected.first_detection)
    assert proved(circuit, undetected(stream, faults)) == everything


@pytest.mark.parametrize("name,n_left,n_proved", [("c432", 86, 45), ("c880", 8, 4)])
def test_screening_proves_the_same_faults_on_benchmarks(name, n_left, n_proved):
    config = ExperimentConfig(benchmark=name)
    circuit = load_benchmark(name)
    faults = collapse_faults(circuit)
    stream = simulate_random_stream(
        circuit, faults, config.max_random_patterns, config.seed
    )
    left = undetected(stream, faults)
    everything = proved(circuit, faults)
    assert len(left) == n_left
    assert len(everything["proved"]) == n_proved
    assert proved(circuit, left) == everything
