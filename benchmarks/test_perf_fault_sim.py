"""Wall-clock benchmark: the three-way engine race, seed vs python vs numpy.

The seed fault simulator (64-bit words, name-keyed dicts, eager cone
extraction, no compilation) is embedded below *verbatim in structure* so the
comparison is against the actual pre-optimization engine, not a strawman.
The benchmark races three generations of the inner loop over the full
collapsed stuck-at universe and asserts:

* the python wide-word compiled engine is **bit-exact** against the seed
  and at least **3x faster** on the c880-class benchmark;
* the numpy uint64 bitslice engine is **bit-exact** against both and at
  least **3x faster again** than the python wide-word engine.

Results (full trajectory, per-engine seconds and patterns/sec) are written
to ``BENCH_fault_sim.json`` at the repo root and gated in CI by
``obs check-bench``.

Modes
-----
Full mode (default) runs c880.  Quick mode — ``FAULT_SIM_BENCH_QUICK=1`` —
runs c432 with fewer patterns and skips the speedup floors (CI smoke:
shared runners make wall-clock ratios flaky); it still checks bit-exactness
and still writes the JSON artifact.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.atpg import random_patterns
from repro.circuit.iscas import load_benchmark
from repro.circuit.levelize import levelize, output_cone
from repro.circuit.library import ALL_ONES_64, evaluate_gate_packed
from repro.circuit.netlist import Circuit, Gate
from repro.simulation import (
    FaultSimulator,
    NumpyFaultSimulator,
    StuckAtFault,
    collapse_faults,
)
from repro.simulation.faults import FaultSite

QUICK = bool(os.environ.get("FAULT_SIM_BENCH_QUICK"))
BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_fault_sim.json"


# ---------------------------------------------------------------------------
# The seed engine, frozen.  64 patterns per word, name-keyed value dicts,
# per-fault cone re-walk with no compiled schedule — the baseline every
# optimization in repro.simulation.fault_sim is measured against.
# ---------------------------------------------------------------------------


def _seed_pack_patterns(
    patterns: Sequence[Sequence[int]], n_inputs: int
) -> list[list[int]]:
    groups: list[list[int]] = []
    for start in range(0, len(patterns), 64):
        chunk = patterns[start : start + 64]
        words = [0] * n_inputs
        for bit, vector in enumerate(chunk):
            for i, value in enumerate(vector):
                if value:
                    words[i] |= 1 << bit
        groups.append(words)
    return groups


class _SeedLogicSimulator:
    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.order: list[Gate] = levelize(circuit)
        self._n_inputs = len(circuit.primary_inputs)

    def simulate_packed(self, input_words: Sequence[int]) -> dict[str, int]:
        values: dict[str, int] = dict(
            zip(self.circuit.primary_inputs, input_words)
        )
        for gate in self.order:
            operands = [values[net] for net in gate.inputs]
            values[gate.output] = evaluate_gate_packed(
                gate.gate_type, operands, ALL_ONES_64
            )
        return values


@dataclass
class _SeedConeInfo:
    gates: list[Gate] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)


class SeedFaultSimulator:
    """The seed repo's cone-restricted 64-bit fault simulator."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.logic = _SeedLogicSimulator(circuit)
        self._order = levelize(circuit)
        self._cones: dict[str, _SeedConeInfo] = {}
        po_set = set(circuit.primary_outputs)
        for net in circuit.nets:
            cone_nets = output_cone(circuit, net)
            info = _SeedConeInfo(
                gates=[g for g in self._order if g.output in cone_nets],
                outputs=[
                    po for po in circuit.primary_outputs if po in cone_nets
                ],
            )
            if net in po_set and net not in info.outputs:
                info.outputs.append(net)
            self._cones[net] = info

    def detection_word(
        self, fault: StuckAtFault, good_values: dict[str, int]
    ) -> int:
        stuck_word = ALL_ONES_64 if fault.value else 0
        cone = self._cones[fault.net]
        faulty: dict[str, int] = {}
        if fault.site is FaultSite.NET:
            faulty[fault.net] = stuck_word
        diff = 0
        for gate in cone.gates:
            operands = []
            for pin, net in enumerate(gate.inputs):
                if (
                    fault.site is FaultSite.GATE_INPUT
                    and gate.name == fault.gate
                    and pin == fault.pin
                ):
                    operands.append(stuck_word)
                else:
                    operands.append(faulty.get(net, good_values[net]))
            value = evaluate_gate_packed(gate.gate_type, operands, ALL_ONES_64)
            if fault.site is FaultSite.NET and gate.output == fault.net:
                value = stuck_word
            faulty[gate.output] = value
        for po in cone.outputs:
            diff |= faulty.get(po, good_values[po]) ^ good_values[po]
        return diff & ALL_ONES_64

    def run(
        self,
        patterns: Sequence[Sequence[int]],
        faults: list[StuckAtFault],
        drop_detected: bool = True,
    ) -> tuple[dict[StuckAtFault, int], dict[StuckAtFault, int]]:
        n_inputs = len(self.circuit.primary_inputs)
        groups = _seed_pack_patterns(patterns, n_inputs)
        first_detection: dict[StuckAtFault, int] = {}
        detection_counts: dict[StuckAtFault, int] = {}
        active = list(faults)
        for group_index, words in enumerate(groups):
            if not active:
                break
            base = group_index * 64
            n_here = min(64, len(patterns) - base)
            group_mask = (1 << n_here) - 1
            good = self.logic.simulate_packed(words)
            survivors: list[StuckAtFault] = []
            for fault in active:
                diff = self.detection_word(fault, good) & group_mask
                if diff:
                    first = base + ((diff & -diff).bit_length() - 1) + 1
                    if (
                        fault not in first_detection
                        or first < first_detection[fault]
                    ):
                        first_detection[fault] = first
                    detection_counts[fault] = (
                        detection_counts.get(fault, 0) + diff.bit_count()
                    )
                    if not drop_detected:
                        survivors.append(fault)
                else:
                    survivors.append(fault)
            active = survivors
        return first_detection, detection_counts


# ---------------------------------------------------------------------------
# The benchmark proper.
# ---------------------------------------------------------------------------


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_engine_race_seed_vs_python_vs_numpy():
    benchmark = "c432" if QUICK else "c880"
    n_patterns = 256 if QUICK else 1024
    circuit = load_benchmark(benchmark)
    faults = collapse_faults(circuit)
    patterns = random_patterns(
        len(circuit.primary_inputs), n_patterns, seed=42
    )

    # Full-universe run: every fault against every pattern, no dropping —
    # the exact n-detection telemetry workload.  Construction is inside the
    # timed region for every engine: the seed engine's eager per-net cone
    # extraction and the compiled engines' compilation are real costs.
    def run_seed():
        sim = SeedFaultSimulator(circuit)
        return sim.run(patterns, faults, drop_detected=False)

    (seed_first, seed_counts), seed_seconds = _timed(run_seed)

    def run_wide():
        sim = FaultSimulator(circuit)  # default wide width, single process
        return sim.run(patterns, faults=faults, drop_detected=False)

    wide_result, wide_seconds = _timed(run_wide)

    def run_numpy():
        sim = NumpyFaultSimulator(circuit)  # default bitslice width
        return sim.run(patterns, faults=faults, drop_detected=False)

    numpy_result, numpy_seconds = _timed(run_numpy)

    # Bit-exact across all three generations, detection counts included.
    assert wide_result.first_detection == seed_first
    assert wide_result.detection_counts == seed_counts
    assert numpy_result.first_detection == seed_first
    assert numpy_result.detection_counts == seed_counts

    # Fault dropping changes only how much work is skipped, never the
    # first-detection indices.
    wide = FaultSimulator(circuit)
    assert wide.run(patterns, faults=faults).first_detection == seed_first
    numpy_sim = NumpyFaultSimulator(circuit)
    assert (
        numpy_sim.run(patterns, faults=faults).first_detection == seed_first
    )

    def _pps(seconds):
        return round(n_patterns / seconds, 1) if seconds > 0 else None

    speedup = seed_seconds / wide_seconds if wide_seconds > 0 else float("inf")
    numpy_speedup = (
        seed_seconds / numpy_seconds if numpy_seconds > 0 else float("inf")
    )
    numpy_vs_wide = (
        wide_seconds / numpy_seconds if numpy_seconds > 0 else float("inf")
    )
    record = {
        "benchmark": benchmark,
        "mode": "quick" if QUICK else "full",
        "n_patterns": n_patterns,
        "n_faults": len(faults),
        "seed_engine": {
            "word_width": 64,
            "seconds": round(seed_seconds, 4),
            "patterns_per_second": _pps(seed_seconds),
        },
        "wide_engine": {
            "word_width": wide.width,
            "seconds": round(wide_seconds, 4),
            "speedup_vs_seed": round(speedup, 2),
            "patterns_per_second": _pps(wide_seconds),
        },
        "numpy_engine": {
            "word_width": numpy_sim.width,
            "lane_batch": numpy_sim.lane_batch,
            "seconds": round(numpy_seconds, 4),
            "speedup_vs_seed": round(numpy_speedup, 2),
            "speedup_vs_wide": round(numpy_vs_wide, 2),
            "patterns_per_second": _pps(numpy_seconds),
        },
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")

    if not QUICK:
        assert speedup >= 3.0, (
            f"wide-word engine speedup {speedup:.2f}x < 3x "
            f"(seed {seed_seconds:.3f}s, wide {wide_seconds:.3f}s)"
        )
        assert numpy_vs_wide >= 3.0, (
            f"numpy bitslice speedup {numpy_vs_wide:.2f}x < 3x vs python "
            f"wide-word (wide {wide_seconds:.3f}s, numpy {numpy_seconds:.3f}s)"
        )
