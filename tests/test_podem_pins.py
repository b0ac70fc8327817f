"""PODEM outcomes on c432 and c880, pinned at their recorded values.

Every implication, frontier and backtrace choice decides which vector the
search finds, how often it backtracks and which targets abort, so these
pins catch any change to the search's order of decisions.  The inputs are
the pipeline's own: the faults the random prefix leaves undetected among
those the prover did not remove (it sees only the faults the whole random
stream leaves), the prover's learned implications and the analysis SCOAP
measures, all at the default :class:`ExperimentConfig`.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis import analyze_circuit
from repro.atpg.podem import generate_deterministic_tests
from repro.atpg.random_atpg import generate_random_tests, simulate_random_stream
from repro.circuit.iscas import load_benchmark
from repro.experiments.pipeline import ExperimentConfig
from repro.simulation.faults import collapse_faults

PINS = {
    "c432": {
        "n_targets": 41,
        "backtracks": 15,
        "aborted": [],
        "redundant": [],
        "learned_prunes": 0,
        "learned_conflicts": 4,
        "n_vectors": 15,
        "vectors_sha256": (
            "ea4f98a40a4a63d54ec75cb6b23f01cb6a3f06297492e7e40cf8ad6a3884e57f"
        ),
    },
    "c880": {
        "n_targets": 85,
        "backtracks": 4006,
        "aborted": ["OP3.in0(K0)/sa1", "OP5.in0(K0)/sa1"],
        "redundant": [],
        "learned_prunes": 0,
        "learned_conflicts": 0,
        "n_vectors": 39,
        "vectors_sha256": (
            "eb03972858f025c61ad2d99bf740d8e72067af2da37aa092404e028c8fbb3533"
        ),
    },
}


def _podem_outcome(name: str) -> dict[str, object]:
    config = ExperimentConfig(benchmark=name)
    circuit = load_benchmark(name)
    collapsed = collapse_faults(circuit)
    stream = simulate_random_stream(
        circuit, collapsed, max_patterns=config.max_random_patterns, seed=config.seed
    )
    analysis = analyze_circuit(
        circuit,
        faults=[f for f in collapsed if f not in stream.first_detection],
        prove=True,
    )
    random_result = generate_random_tests(
        circuit,
        analysis.screen(collapsed),
        target_coverage=config.random_coverage_target,
        max_patterns=config.max_random_patterns,
        seed=config.seed,
        stream=stream,
    )
    result = generate_deterministic_tests(
        circuit,
        random_result.undetected,
        backtrack_limit=config.backtrack_limit,
        untestable=analysis.untestable_faults(),
        scoap=analysis.scoap,
        learned=analysis.prover.learned,
    )
    patterns = json.dumps(result.test_set.patterns).encode()
    return {
        "n_targets": len(random_result.undetected),
        "backtracks": result.backtracks,
        "aborted": [str(f) for f in result.aborted],
        "redundant": [str(f) for f in result.redundant],
        "learned_prunes": result.learned_prunes,
        "learned_conflicts": result.learned_conflicts,
        "n_vectors": len(result.test_set),
        "vectors_sha256": hashlib.sha256(patterns).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(PINS))
def test_podem_outcome_pinned(name):
    assert _podem_outcome(name) == PINS[name]
