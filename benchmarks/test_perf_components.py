"""Performance benchmarks of the substrate components.

These are honest pytest-benchmark timings (multiple rounds) of the hot
paths: packed logic simulation, stuck-at fault simulation, PODEM, layout
generation and fault extraction.  They track the cost structure of the
pipeline rather than a paper figure.
"""

import pytest

from repro.atpg import PodemAtpg, random_patterns
from repro.circuit import c432_like
from repro.defects import extract_faults
from repro.layout import build_layout
from repro.simulation import LogicSimulator, collapse_faults
from tests.fault_sim_oracle import FaultSimulator


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
