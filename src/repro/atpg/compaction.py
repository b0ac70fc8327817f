"""Static test-set compaction.

Reverse-order pass: drop a vector when the remaining set still detects every
fault the full set detected.  Used by the ablation benches to study how test
length interacts with the coverage-growth curves; the paper's main experiment
applies the *uncompacted* sequence, since its curves are per-vector.
"""

from __future__ import annotations

from repro.atpg.patterns import TestSet
from repro.circuit.netlist import Circuit
from repro.simulation.faults import StuckAtFault
from repro.simulation.numpy_sim import NumpyFaultSimulator

__all__ = ["compact_test_set"]


def compact_test_set(
    circuit: Circuit,
    test_set: TestSet,
    faults: list[StuckAtFault],
) -> TestSet:
    """Return a subsequence of ``test_set`` with equal fault detection.

    Greedy reverse-order elimination: each vector is tentatively removed and
    kept out if coverage of the originally-detected faults is preserved.
    Complexity is O(vectors x fault-sim); fine at benchmark scale.
    """
    simulator = NumpyFaultSimulator(circuit)
    baseline = simulator.run(test_set.patterns, faults=faults)
    must_detect = set(baseline.first_detection)

    kept_indices = list(range(len(test_set)))
    for candidate in reversed(range(len(test_set))):
        trial = [i for i in kept_indices if i != candidate]
        patterns = [test_set.patterns[i] for i in trial]
        result = simulator.run(patterns, faults=list(must_detect))
        if set(result.first_detection) == must_detect:
            kept_indices = trial

    compacted = TestSet(n_inputs=test_set.n_inputs)
    for i in kept_indices:
        compacted.append(test_set.patterns[i], test_set.sources[i])
    return compacted
