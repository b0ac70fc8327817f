"""Unit tests for static test-set compaction."""

from repro.atpg import TestSet, compact_test_set, generate_random_tests
from repro.simulation import NumpyFaultSimulator, collapse_faults


def test_compaction_preserves_coverage(c17_circuit):
    faults = collapse_faults(c17_circuit)
    generated = generate_random_tests(
        c17_circuit, faults, target_coverage=1.0, max_patterns=512, seed=2
    )
    assert generated.coverage == 1.0
    compacted = compact_test_set(c17_circuit, generated.test_set, faults)
    assert len(compacted) <= len(generated.test_set)

    sim = NumpyFaultSimulator(c17_circuit)
    result = sim.run(compacted.patterns, faults=faults)
    assert result.coverage == 1.0


def test_compaction_removes_duplicates(c17_circuit):
    faults = collapse_faults(c17_circuit)
    ts = TestSet(n_inputs=5)
    base = generate_random_tests(
        c17_circuit, faults, target_coverage=1.0, max_patterns=512, seed=2
    ).test_set
    for pattern in base.patterns:
        ts.append(pattern, "random")
        ts.append(pattern, "random")  # duplicate every vector
    compacted = compact_test_set(c17_circuit, ts, faults)
    assert len(compacted) <= len(base)


def test_compaction_keeps_provenance(c17_circuit):
    faults = collapse_faults(c17_circuit)
    base = generate_random_tests(
        c17_circuit, faults, target_coverage=1.0, max_patterns=512, seed=2
    ).test_set
    compacted = compact_test_set(c17_circuit, base, faults)
    assert all(source == "random" for source in compacted.sources)
