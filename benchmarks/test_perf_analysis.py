"""Performance guards for the static-analysis subsystem.

The implication screen is the only super-linear piece of the analysis
pass, so these benches pin its work counters (closures computed, queue
steps taken) on the largest built-in circuit and time the full
``analyze_circuit`` facade.  The dominance-collapsing guard is a pure
invariant: layering dominance on top of equivalence must never grow the
collapsed fault list.
"""

import pytest

from repro.analysis import (
    ImplicationEngine,
    analyze_circuit,
    compute_scoap,
    dominance_collapse,
    find_untestable_faults,
    prove_untestable,
    static_learning,
)
from repro.atpg import PodemAtpg
from repro.circuit import BENCHMARKS, load_benchmark
from repro.circuit.iscas import c880_like
from repro.simulation import StuckAtFault, collapse_faults

# Measured on c880_like: ~1.9k closures / ~203k queue steps.  The bounds
# leave ~2.5x headroom so refactors fail loudly only on real regressions.
MAX_CLOSURES = 5_000
MAX_QUEUE_STEPS = 1_000_000

# Prover budget on c432_like (see test_perf_prover_c432 for the measured
# values the caps derive from).
MAX_PROVER_CLOSURES = 3_500
MAX_PROVER_STEPS = 350_000


@pytest.fixture(scope="module")
def c880():
    return c880_like()


def test_perf_scoap_c880(benchmark, c880):
    measures = benchmark(compute_scoap, c880)
    assert len(measures.cc0) == len(c880.nets)


def test_perf_implication_screen_c880(benchmark, c880):
    def screen():
        engine = ImplicationEngine(c880)
        return find_untestable_faults(c880, engine=engine), engine

    report, engine = benchmark.pedantic(screen, rounds=2, iterations=1)
    # Work-bound guard: the screen must stay within a fixed budget even
    # as heuristics evolve, or the pre-simulation pass stops being cheap.
    assert engine.stats["closures"] <= MAX_CLOSURES
    assert engine.stats["steps"] <= MAX_QUEUE_STEPS
    assert report.n_screened > 0


def test_perf_analyze_facade_c880(benchmark, c880):
    result = benchmark.pedantic(analyze_circuit, args=(c880,), rounds=2, iterations=1)
    assert result.ok
    assert result.untestable is not None


def test_perf_prover_c432(benchmark):
    # The full proof-carrying run on c432: 49 faults proved (the screen's
    # 48 plus the static-learning extra), every certificate checked.
    # Measured: 1,593 traced closures and 153,150 closure steps; the caps
    # leave ~2x headroom so only a real work blow-up fails.
    circuit = load_benchmark("c432_like")

    result = benchmark.pedantic(
        prove_untestable, args=(circuit,), rounds=1, iterations=1
    )
    assert len(result.proved) == 49
    assert result.certs_failed == 0
    assert result.by_method == {"fire": 48, "static_learning": 1}
    assert result.work["closures"] <= MAX_PROVER_CLOSURES
    assert result.work["steps"] <= MAX_PROVER_STEPS


def test_perf_podem_learned_backtrack_delta_c432(benchmark):
    # The learned base must keep paying for itself in the ATPG search:
    # on the c432 LA/LB/LC bus faults each two-backtrack search closes in
    # one, cutting total backtracks in half (54 -> 27, deterministic).
    circuit = load_benchmark("c432_like")
    learned = static_learning(circuit)
    faults = [
        StuckAtFault(f"{group}{i}", 0)
        for group in ("LA", "LB", "LC")
        for i in range(9)
    ]

    def search(base):
        atpg = PodemAtpg(circuit, backtrack_limit=300, learned=base)
        outcomes = [atpg.generate(f) for f in faults]
        return atpg, outcomes

    plain_atpg, plain = search(None)
    smart_atpg, smart = benchmark.pedantic(
        search, args=(learned,), rounds=1, iterations=1
    )
    assert [o.status for o in smart] == [o.status for o in plain]
    total_plain = sum(o.backtracks for o in plain)
    total_smart = sum(o.backtracks for o in smart)
    assert total_smart < total_plain
    assert total_smart <= total_plain // 2 + len(faults) // 4
    assert smart_atpg.learned_conflicts > 0


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_dominance_never_grows_fault_list(name):
    circuit = load_benchmark(name)
    equivalence_only = collapse_faults(circuit)
    dominance = dominance_collapse(circuit)
    assert len(dominance.collapsed) <= len(equivalence_only)
    assert set(dominance.collapsed) <= set(equivalence_only)
