"""Property tests: the wide-word engine is bit-exact at every width.

The engine's correctness story rests on three invariants, proved here on
randomly generated circuits and pattern sets:

* packing is lossless — ``pack_patterns``/``unpack_word`` round-trip at any
  word width;
* logic simulation is width-invariant — ``output_words`` agrees across
  widths and with the scalar simulator;
* fault simulation is width-invariant — ``FaultSimResult`` is identical
  (first detections *and* detection counts) across widths {64, 256, 1024}.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit, GateType, c17
from repro.simulation import (
    LogicSimulator,
    collapse_faults,
    pack_patterns,
    unpack_word,
)
from tests.fault_sim_oracle import FaultSimulator

WIDTHS = [64, 256, 1024]

bits = st.integers(min_value=0, max_value=1)
widths = st.sampled_from(WIDTHS + [1, 7, 100])


@settings(max_examples=60, deadline=None)
@given(
    patterns=st.lists(
        st.lists(bits, min_size=3, max_size=3), min_size=1, max_size=80
    ),
    width=widths,
)
def test_pack_unpack_roundtrip(patterns, width):
    groups = pack_patterns(patterns, 3, width=width)
    rebuilt = []
    for g, words in enumerate(groups):
        n_here = min(width, len(patterns) - g * width)
        columns = [unpack_word(w, n_here) for w in words]
        rebuilt.extend([col[p] for col in columns] for p in range(n_here))
    assert rebuilt == patterns


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_patterns=st.integers(min_value=1, max_value=200),
)
def test_output_words_bit_exact_across_widths(seed, n_patterns):
    ckt = c17()
    rng = random.Random(seed)
    patterns = [[rng.randint(0, 1) for _ in range(5)] for _ in range(n_patterns)]

    scalar = [LogicSimulator(ckt).outputs(vec) for vec in patterns]
    for width in WIDTHS:
        sim = LogicSimulator(ckt, width=width)
        assert sim.run_patterns(patterns) == scalar


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_patterns=st.integers(min_value=1, max_value=150),
    drop=st.booleans(),
)
def test_fault_sim_result_bit_exact_across_widths(seed, n_patterns, drop):
    ckt = c17()
    rng = random.Random(seed)
    patterns = [[rng.randint(0, 1) for _ in range(5)] for _ in range(n_patterns)]
    faults = collapse_faults(ckt)

    reference = FaultSimulator(ckt, width=64).run(
        patterns, faults=faults, drop_detected=drop
    )
    for width in WIDTHS[1:]:
        result = FaultSimulator(ckt, width=width).run(
            patterns, faults=faults, drop_detected=drop
        )
        assert result.first_detection == reference.first_detection
        assert result.n_patterns == reference.n_patterns
        assert result.faults == reference.faults
        if not drop:
            # With dropping, counts cover the fault's last simulated group,
            # whose extent is the word width; without dropping they are
            # exact over the whole sequence and must agree.
            assert result.detection_counts == reference.detection_counts


@st.composite
def random_circuits(draw):
    gate_types = [
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.XNOR,
        GateType.NOT,
        GateType.BUF,
    ]
    n_inputs = draw(st.integers(min_value=2, max_value=5))
    n_gates = draw(st.integers(min_value=1, max_value=14))
    ckt = Circuit(name="rand")
    nets = [ckt.add_input(f"i{k}") for k in range(n_inputs)]
    for g in range(n_gates):
        gt = draw(st.sampled_from(gate_types))
        fan = 1 if gt in (GateType.NOT, GateType.BUF) else draw(st.integers(2, 3))
        sources = [nets[draw(st.integers(0, len(nets) - 1))] for _ in range(fan)]
        out = f"g{g}"
        ckt.add_gate(gt, sources, out)
        nets.append(out)
    ckt.add_output(nets[-1])
    ckt.validate()
    return ckt


@settings(max_examples=25, deadline=None)
@given(
    ckt=random_circuits(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_patterns=st.integers(min_value=1, max_value=120),
)
def test_fault_sim_width_invariance_on_random_circuits(ckt, seed, n_patterns):
    rng = random.Random(seed)
    n = len(ckt.primary_inputs)
    patterns = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n_patterns)]
    faults = collapse_faults(ckt)

    reference = FaultSimulator(ckt, width=64).run(
        patterns, faults=faults, drop_detected=False
    )
    for width in WIDTHS[1:]:
        result = FaultSimulator(ckt, width=width).run(
            patterns, faults=faults, drop_detected=False
        )
        assert result.first_detection == reference.first_detection
        assert result.detection_counts == reference.detection_counts
