"""Performance benchmarks of the substrate components.

These are honest pytest-benchmark timings (multiple rounds) of the hot
paths: packed logic simulation, stuck-at fault simulation, PODEM, layout
generation, fault extraction and switch-level fault simulation.  They track
the cost structure of the pipeline rather than a paper figure.
"""

import pytest

from repro import obs
from repro.atpg import PodemAtpg, random_patterns
from repro.circuit import c432_like
from repro.defects import extract_faults
from repro.layout import build_layout
from repro.simulation import LogicSimulator, collapse_faults
from repro.switchsim import SwitchLevelFaultSimulator
from tests.fault_sim_oracle import FaultSimulator

# Switch-level planning work on c432_like under 256 random vectors.
# Measured: 216 tap solves (one per distinct cell kind, tapped node, input
# code and external state) and 37,125 state pairs intersected.  The caps
# leave ~2.5x headroom so only a real blow-up of the state tables fails.
MAX_SWITCH_TAP_SOLVES = 540
MAX_SWITCH_STATE_PAIRS = 93_000


@pytest.fixture(scope="module")
def c432():
    return c432_like()


@pytest.fixture(scope="module")
def c432_patterns(c432):
    return random_patterns(len(c432.primary_inputs), 256, seed=9)


def test_perf_logic_sim(benchmark, c432, c432_patterns):
    sim = LogicSimulator(c432)
    benchmark(sim.run_patterns, c432_patterns)


def test_perf_fault_sim(benchmark, c432, c432_patterns):
    sim = FaultSimulator(c432)
    faults = collapse_faults(c432)
    benchmark.pedantic(
        sim.run, args=(c432_patterns,), kwargs={"faults": faults}, rounds=3
    )


def test_perf_podem_single_fault(benchmark, c432):
    from repro.simulation import StuckAtFault

    atpg = PodemAtpg(c432)
    benchmark(atpg.generate, StuckAtFault("AD3", 0))


def test_perf_layout_generation(benchmark, c432):
    benchmark.pedantic(build_layout, args=(c432,), rounds=2, iterations=1)


def test_perf_fault_extraction(benchmark, c432):
    design = build_layout(c432)
    benchmark.pedantic(extract_faults, args=(design,), rounds=2, iterations=1)


def test_perf_switch_sim(benchmark, c432, c432_patterns):
    design = build_layout(c432)
    faults = extract_faults(design).faults

    def fresh_simulator():
        return (SwitchLevelFaultSimulator(design, c432_patterns),), {}

    result = benchmark.pedantic(
        lambda sim: sim.run(faults), setup=fresh_simulator, rounds=3
    )
    assert 0 < len(result.first_detection) <= len(faults)

    _, registry = obs.enable()
    try:
        SwitchLevelFaultSimulator(design, c432_patterns).run(faults)
    finally:
        obs.disable()
    counters = registry.snapshot()["counters"]
    assert 0 < counters["switch_sim.tap_solves"] <= MAX_SWITCH_TAP_SOLVES
    assert 0 < counters["switch_sim.state_pairs"] <= MAX_SWITCH_STATE_PAIRS
