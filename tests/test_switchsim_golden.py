"""Golden digests of switch-level simulation results.

Each digest is the sha256 of one ``SwitchLevelFaultSimulator.run`` over the
circuit's extracted faults and a fixed seeded random vector set: the strict,
potential and IDDQ first detections and ``repr`` of every IDDQ peak, keyed
by fault index.  No ATPG and no prover run, so the inputs are cheap and
fixed.  300 vectors span one full 256-bit group and a partial last group.
A PR that changes a value here must say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import obs
from repro.atpg import random_patterns
from repro.circuit.iscas import load_benchmark
from repro.defects import extract_faults
from repro.layout import build_layout
from repro.switchsim import SwitchLevelFaultSimulator

N_VECTORS = 300
VECTOR_SEED = 11

GOLDEN = {
    "c17": "e2636d4a2471e05be43766f232788eb09dac3be21f52d3be27b45fa58428344e",
    "alu4": "1a84d1f249a8b85338e5705113166b184eebdd2023316163f266621f70a5ea82",
    "c432": "30ce5dd80984ba5211ddf1937fd1d20cddccd8134060609f9df0ecde9878ea32",
    "c880": "8a078ac435accf1713e4a225fddfe74ff4acc753f14394391f1e35186f69428f",
}


def switch_result_digest(result) -> str:
    """sha256 over index-keyed first detections and ``repr`` of IDDQ peaks."""
    index_of = {id(fault): i for i, fault in enumerate(result.faults)}

    def rows(by_id: dict, encode=lambda v: v) -> list:
        return sorted([index_of[key], encode(v)] for key, v in by_id.items())

    payload = {
        "n_patterns": result.n_patterns,
        "strict": rows(result.first_detection),
        "potential": rows(result.first_detection_potential),
        "iddq": rows(result.first_detection_iddq),
        "iddq_peak": rows(result.iddq_peak, repr),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Switch-sim counters of the alu4 golden run: forces simulated, and faults
#: and masked injections per fault class.  Computed with the lazily filled
#: python detection table that preceded the batched numpy fill.
ALU4_COUNTERS = {
    "switch_sim.detection_words": 1196,
    "switch_sim.faults.BridgeFault": 3168,
    "switch_sim.faults.FloatingNetFault": 919,
    "switch_sim.faults.TransistorGateOpen": 326,
    "switch_sim.faults.TransistorStuckOn": 515,
    "switch_sim.faults.TransistorStuckOpen": 1051,
    "switch_sim.injections.BridgeFault": 10660,
    "switch_sim.injections.FloatingNetFault": 1099,
    "switch_sim.injections.TransistorGateOpen": 252,
    "switch_sim.injections.TransistorStuckOn": 532,
    "switch_sim.injections.TransistorStuckOpen": 2056,
}


def simulate(circuit_name: str):
    design = build_layout(load_benchmark(circuit_name))
    faults = extract_faults(design).faults
    n_inputs = len(design.mapped.primary_inputs)
    patterns = random_patterns(n_inputs, N_VECTORS, seed=VECTOR_SEED)
    return SwitchLevelFaultSimulator(design, patterns).run(faults)


@pytest.mark.parametrize("circuit", sorted(GOLDEN))
def test_switch_sim_digest_is_pinned(circuit):
    assert switch_result_digest(simulate(circuit)) == GOLDEN[circuit]


def test_switch_sim_counters_are_pinned():
    _, registry = obs.enable()
    try:
        simulate("alu4")
    finally:
        obs.disable()
    counters = registry.snapshot()["counters"]
    pinned = {
        name: value
        for name, value in counters.items()
        if name == "switch_sim.detection_words"
        or name.startswith(("switch_sim.faults.", "switch_sim.injections."))
    }
    assert pinned == ALU4_COUNTERS
