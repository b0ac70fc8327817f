"""Independent oracles for the switch-level simulator's vectorised paths.

* the detection-table fill (numpy lanes with single and multi-site forces)
  against the python engine's ``detection_word``/``detection_word_multi``;
* the batched resolve (detection table plus packed masks) against a
  brute-force scalar evaluation of every masked vector with the stuck-at
  forces applied;
* ``retained_bits`` (charge retention as carries, over packed words and
  over the per-fault planner's python ints) against the sequential state
  machine it replaced;
* the per-fault planner's ``_tap_levels`` (one ``solve_with_tap`` per
  distinct key) against the per-vector loop, and the array planner's
  internal-bridge detections against the per-vector evaluation;
* the class-wide array planner against the per-fault planner
  (``tests/switchsim_oracle.py``), fault for fault, on random circuits and
  on the whole c432 fault list.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.atpg import random_patterns
from repro.circuit import Circuit, GateType
from repro.circuit.iscas import load_benchmark
from repro.defects import (
    BridgeFault,
    FloatingNetFault,
    TransistorGateOpen,
    TransistorStuckOn,
    TransistorStuckOpen,
    extract_faults,
)
from repro.layout import build_layout
from repro.layout.cells import GND, VDD
from repro.simulation import LogicSimulator, NumpyFaultSimulator
from repro.simulation.faults import FaultSite, StuckAtFault
from repro.simulation.logic_sim import pack_patterns
from repro.simulation.numpy_sim import pack_bitslice
from repro.switchsim import SwitchLevelFaultSimulator, solve_with_tap
from repro.switchsim import simulator as simulator_module
from repro.switchsim.simulator import Detection, _pack_masks, retained_bits
from repro.switchsim.simulator import _Plan as ArrayPlan
from tests.fault_sim_oracle import FaultSimulator
from tests.strategies import small_circuits
from tests.switchsim_oracle import PerFaultSimulator, _mask_bits, _Plan
from tests.switchsim_oracle import retained_bits as retained_int_bits
from tests.switchsim_reference import forced_outputs

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def simulator(ckt: Circuit, n_vectors: int, seed: int) -> SwitchLevelFaultSimulator:
    design = build_layout(ckt)
    patterns = random_patterns(len(design.mapped.primary_inputs), n_vectors, seed)
    return SwitchLevelFaultSimulator(design, patterns)


def as_bits(injections) -> list:
    """Injections with boolean vector masks, their masks as bitsets."""
    return [(forces, _mask_bits(mask)) for forces, mask in injections]


def first_masked_detection(sim, injections) -> int | None:
    """One query over ``injections``, planned, filled and resolved."""
    oracle = PerFaultSimulator(sim)
    plan = _Plan(sim.n_patterns)
    query = plan.query(injections)
    return oracle._resolve(plan, oracle._fill(plan))[query]


# ----------------------------------------------------------------------
# Detection-table fill against the python engine
# ----------------------------------------------------------------------
def random_force_tuples(circuit, rng: random.Random, n_lanes: int) -> list:
    """Lanes of single NET, single pin, multi-pin and mixed NET+pin forces."""
    readers: dict[str, list[tuple[str, int]]] = {}
    for gate in circuit.gates:
        for pin, net in enumerate(gate.inputs):
            readers.setdefault(net, []).append((gate.name, pin))
    read_nets = sorted(readers)
    lanes = []
    for _ in range(n_lanes):
        kind = rng.choice(("net", "pin", "pins", "mixed"))
        net = rng.choice(read_nets)
        pins = rng.sample(readers[net], rng.randint(1, len(readers[net])))
        value = rng.randint(0, 1)
        pin_forces = tuple(
            StuckAtFault(net, value, FaultSite.GATE_INPUT, gate, pin)
            for gate, pin in pins
        )
        if kind == "net":
            lanes.append((StuckAtFault(rng.choice(circuit.nets), value),))
        elif kind == "pin":
            lanes.append(pin_forces[:1])
        elif kind == "pins":
            lanes.append(pin_forces)
        else:
            # A NET force anywhere (possibly on the pinned net itself, where
            # the pin force wins) with its own value.
            net_force = StuckAtFault(rng.choice(circuit.nets), rng.randint(0, 1))
            lanes.append((net_force, *pin_forces))
    return lanes


def python_detection_words(circuit, patterns, lanes) -> list[int]:
    """The python engine's detection word of every lane, one packed word."""
    n = len(patterns)
    reference = FaultSimulator(circuit, width=max(1, n))
    good = [0] * reference.logic.n_nets
    if patterns:
        (words,) = pack_patterns(patterns, len(circuit.primary_inputs), n)
        good = reference.logic.simulate_packed_list(words)
    return [
        (
            reference.detection_word(lane[0], good)
            if len(lane) == 1
            else reference.detection_word_multi(lane, good)
        )
        & ((1 << n) - 1)
        for lane in lanes
    ]


C17 = load_benchmark("c17")


@SLOW
@given(
    ckt=small_circuits(),
    n_vectors=st.integers(0, 150),
    seed=st.integers(0, 2**16),
    n_lanes=st.integers(0, 70),
)
@example(ckt=C17, n_vectors=0, seed=1, n_lanes=8)
@example(ckt=C17, n_vectors=1, seed=2, n_lanes=8)
@example(ckt=C17, n_vectors=63, seed=3, n_lanes=40)
@example(ckt=C17, n_vectors=64, seed=4, n_lanes=40)
@example(ckt=C17, n_vectors=65, seed=5, n_lanes=70)
def test_numpy_lane_fill_matches_python_engine(ckt, n_vectors, seed, n_lanes):
    patterns = random_patterns(len(ckt.primary_inputs), n_vectors, seed)
    lanes = random_force_tuples(ckt, random.Random(seed), n_lanes)
    n_words = -(-n_vectors // 64)
    engine = NumpyFaultSimulator(ckt, width=64 * max(1, n_words))
    good = engine.good_block(pack_bitslice(patterns, len(ckt.primary_inputs)))
    table = engine.detection_words(good, n_vectors, lanes)
    assert table.shape == (len(lanes), n_words)
    actual = [int.from_bytes(row.astype("<u8").tobytes(), "little") for row in table]
    assert actual == python_detection_words(ckt, patterns, lanes)


# ----------------------------------------------------------------------
# Batched resolve against brute force
# ----------------------------------------------------------------------
def brute_force_first(circuit, patterns, injections) -> int | None:
    """First (1-based) masked vector where any injection changes an output."""
    logic = LogicSimulator(circuit)
    first = None
    for forces, mask in injections:
        for k in np.flatnonzero(mask).tolist():
            good = forced_outputs(circuit, patterns[k])
            assert good == logic.outputs(patterns[k])
            if forced_outputs(circuit, patterns[k], forces) != good:
                first = k + 1 if first is None else min(first, k + 1)
                break
    return first


@st.composite
def injections_for(draw, circuit, n_vectors):
    readers: dict[str, list[tuple[str, int]]] = {}
    for gate in circuit.gates:
        for pin, net in enumerate(gate.inputs):
            readers.setdefault(net, []).append((gate.name, pin))
    out = []
    for _ in range(draw(st.integers(0, 4))):
        value = draw(st.integers(0, 1))
        if draw(st.booleans()):
            forces = (StuckAtFault(draw(st.sampled_from(circuit.nets)), value),)
        else:
            # A floating net reaches every pin it feeds: prefer fanout nets.
            fanout = [net for net in sorted(readers) if len(readers[net]) > 1]
            net = draw(st.sampled_from(fanout or sorted(readers)))
            pins = draw(
                st.lists(
                    st.sampled_from(readers[net]),
                    min_size=min(2, len(readers[net])),
                    unique=True,
                )
            )
            forces = tuple(
                StuckAtFault(net, value, FaultSite.GATE_INPUT, gate, pin)
                for gate, pin in pins
            )
        if draw(st.integers(0, 4)) == 0:
            mask = np.zeros(n_vectors, dtype=bool)
        else:
            bits = draw(st.lists(st.booleans(), min_size=n_vectors, max_size=n_vectors))
            mask = np.array(bits, dtype=bool)
        out.append((forces, mask))
    return out


@SLOW
@given(
    ckt=small_circuits(),
    n_vectors=st.integers(0, 150),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_first_masked_detection_matches_brute_force(ckt, n_vectors, seed, data):
    sim = simulator(ckt, n_vectors, seed)
    injections = data.draw(injections_for(sim.mapped, n_vectors))
    expected = brute_force_first(sim.mapped, sim.patterns, injections)
    # One plan: the whole set twice (in both orders) and each injection on
    # its own, resolved in one pass over one fill.
    bits = as_bits(injections)
    oracle = PerFaultSimulator(sim)
    plan = _Plan(sim.n_patterns)
    both = [plan.query(bits), plan.query(bits[::-1])]
    singles = [plan.query([injection]) for injection in bits]
    firsts = oracle._resolve(plan, oracle._fill(plan))
    assert [firsts[q] for q in both] == [expected, expected]
    assert [firsts[q] for q in singles] == [
        brute_force_first(sim.mapped, sim.patterns, [injection])
        for injection in injections
    ]
    nonempty = sum(bool(mask.any()) for _, mask in injections)
    assert plan.n_injections == 3 * nonempty
    # Only the forces of nonempty masks are simulated; a second plan reads
    # every force from the filled table.
    n_rows = len(sim._rows)
    assert n_rows == len({forces for forces, mask in injections if mask.any()})
    assert first_masked_detection(sim, bits) == expected
    assert len(sim._rows) == n_rows
    # The same injections as one packed block, as the array planner adds
    # them: one query, only the nonempty masks.
    kept = [(forces, mask) for forces, mask in injections if mask.any()]
    masks = np.array([mask for _, mask in kept], dtype=bool)
    block = ArrayPlan(sim.n_patterns)
    block.new_queries(1)
    block.add_block(
        np.zeros(len(kept), dtype=np.intp),
        np.array([block.force_id(forces) for forces, _ in kept], dtype=np.intp),
        _pack_masks(masks.reshape(len(kept), n_vectors), sim.n_words),
    )
    (first,) = sim._resolve(block, sim._fill(block)).tolist()
    assert (first or None) == expected


# ----------------------------------------------------------------------
# Charge retention against the sequential state machine
# ----------------------------------------------------------------------
def sequential_levels(up, down) -> list[int]:
    """The per-vector charge-retention loop the vectorised form replaced."""
    levels = []
    state = 2  # unknown initial charge
    for u, d in zip(up, down):
        if u > 0 and d <= 0:
            faulty = 1
        elif d > 0 and u <= 0:
            faulty = 0
        elif u <= 0 and d <= 0:
            faulty = state  # floating: retains charge
        else:  # contention
            faulty = 2
        if faulty != 2:
            state = faulty
        levels.append(faulty)
    return levels


conductances = st.sampled_from([0.0, 0.75, 1.5, 4.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(conductances, conductances), max_size=200))
@example([])
@example([(0.0, 0.0)] * 5)
@example([(1.5, 4.0), (0.0, 0.0), (1.5, 0.0), (1.5, 4.0), (0.0, 0.0)])
@example([(0.0, 4.0), (0.0, 0.0), (0.0, 0.0), (1.5, 0.0), (0.0, 0.0)])
# A held level carried across word boundaries, and a pull in the last bit.
@example([(1.5, 0.0)] + [(0.0, 0.0)] * 130)
@example([(0.0, 0.0)] * 63 + [(0.0, 4.0)] + [(0.0, 0.0)] * 64 + [(1.5, 0.0)])
def test_retained_levels_match_sequential_loop(pairs):
    up = [u for u, _ in pairs]
    down = [d for _, d in pairs]
    expected = sequential_levels(up, down)
    pulls = [
        [u > 0 and d <= 0 for u, d in pairs],
        [d > 0 and u <= 0 for u, d in pairs],
        [u <= 0 and d <= 0 for u, d in pairs],
    ]

    def levels(level1: int, level0: int) -> list[int]:
        return [
            1 if level1 >> k & 1 else 0 if level0 >> k & 1 else 2
            for k in range(len(pairs))
        ]

    # The per-fault planner's python-int carry.
    every = (1 << len(pairs)) - 1
    as_int = [sum(1 << k for k, pull in enumerate(p) if pull) for p in pulls]
    assert levels(*retained_int_bits(*as_int, every)) == expected

    # The array planner's carry over packed uint64 words, on two rows.
    n_words = -(-len(pairs) // 64)
    rows = [
        _pack_masks(np.array([p, p], dtype=bool).reshape(2, -1), n_words)
        for p in pulls
    ]
    every_row = _pack_masks(np.ones((1, len(pairs)), dtype=bool), n_words)[0]
    level1, level0 = retained_bits(*rows, every_row)
    for row in range(2):
        assert levels(
            int.from_bytes(level1[row].astype("<u8").tobytes(), "little"),
            int.from_bytes(level0[row].astype("<u8").tobytes(), "little"),
        ) == expected


# ----------------------------------------------------------------------
# Internal-node bridges against the per-vector solve_with_tap loop
# ----------------------------------------------------------------------
def reference_tap_levels(oracle, cell, tap_index, ext_vals, ext_drive):
    combos = oracle._combo_indices(cell)
    n = len(cell.inputs)
    out_new, tap_val = [], []
    for k in range(oracle.n_patterns):
        bits = tuple((int(combos[k]) >> i) & 1 for i in range(n))
        out_k, tap_k = solve_with_tap(
            cell.gate_type, bits, tap_index, float(ext_vals[k]), float(ext_drive[k])
        )
        out_new.append(out_k)
        tap_val.append(tap_k)
    return out_new, tap_val


def reference_internal_bridge(sim, cell, tap_index, external) -> Detection:
    """The per-vector internal-bridge evaluation the state-pair pass replaced."""
    oracle = PerFaultSimulator(sim)
    ext_vals = oracle._rail_or_values(external)
    ext_drive = oracle._rail_or_drive(external)
    out_vals = sim.values[cell.output]
    out_new, tap_val = reference_tap_levels(
        oracle, cell, tap_index, ext_vals, ext_drive
    )
    masks = {name: np.zeros(sim.n_patterns, dtype=bool) for name in
             ("out0", "out1", "outx", "ext0", "ext1", "extx", "iddq")}
    for k in range(sim.n_patterns):
        good_out = int(out_vals[k])
        if out_new[k] == 2:
            masks["outx"][k] = True
        elif out_new[k] != good_out:
            masks["out1" if out_new[k] else "out0"][k] = True
        if external not in (VDD, GND):
            if tap_val[k] == 2:
                masks["extx"][k] = True
            elif tap_val[k] != int(ext_vals[k]):
                masks["ext1" if tap_val[k] else "ext0"][k] = True
        if out_new[k] == 2 or tap_val[k] == 2 or out_new[k] != good_out:
            masks["iddq"][k] = True
    out = cell.output
    bits = {name: _mask_bits(mask) for name, mask in masks.items()}
    strict_inj = oracle._flip_injections(out, bits["out0"], bits["out1"])
    strict_inj += oracle._flip_injections(external, bits["ext0"], bits["ext1"])
    potential_inj = list(strict_inj)
    potential_inj += oracle._x_injections(out, bits["outx"])
    potential_inj += oracle._x_injections(external, bits["extx"])
    peak = 0.0
    if masks["iddq"].any():
        peak = float(np.where(masks["iddq"], np.minimum(ext_drive, 4.0), 0.0).max())
    return Detection(
        first_masked_detection(sim, strict_inj),
        first_masked_detection(sim, potential_inj),
        oracle._first_true(masks["iddq"]),
        iddq_current=peak,
    )


@SLOW
@given(
    ckt=small_circuits(),
    n_vectors=st.integers(0, 90),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_internal_bridges_match_per_vector_loop(ckt, n_vectors, seed, data):
    sim = simulator(ckt, n_vectors, seed)
    oracle = PerFaultSimulator(sim)
    cells = sorted(sim.cells.values(), key=lambda cell: cell.instance)
    cell = data.draw(st.sampled_from(cells))
    external = data.draw(st.sampled_from([VDD, GND, *sim.mapped.nets]))
    ext_vals = oracle._rail_or_values(external)
    ext_drive = oracle._rail_or_drive(external)
    n = len(cell.inputs)
    for tap_index in range(n):
        out_new, tap_val = oracle._tap_levels(cell, tap_index, external)
        assert (out_new.tolist(), tap_val.tolist()) == reference_tap_levels(
            oracle, cell, tap_index, ext_vals, ext_drive
        )
    # Through the fault: a bridge from a series-chain node to the external.
    if n > 1 and cell.gate_type in (GateType.NAND, GateType.NOR):
        side = "n" if cell.gate_type is GateType.NAND else "p"
        tap_index = data.draw(st.integers(1, n - 1))
        internal = f"{cell.instance}#{side}{tap_index}"
        fault = BridgeFault(weight=1.0, net_a=internal, net_b=external)
        assert sim._dispatch(fault) == reference_internal_bridge(
            sim, cell, tap_index, external
        )


# ----------------------------------------------------------------------
# The class-wide array planner against the per-fault planner
# ----------------------------------------------------------------------
def planned_run(sim, faults) -> tuple[dict, dict]:
    """(results keyed by fault index, pinned counters) of one ``run``."""
    _, registry = obs.enable()
    try:
        result = sim.run(faults)
    finally:
        obs.disable()
    index_of = {id(fault): i for i, fault in enumerate(faults)}

    def rows(by_id: dict, encode=lambda v: v) -> dict:
        return {index_of[key]: encode(value) for key, value in by_id.items()}

    counters = {
        name: value
        for name, value in registry.snapshot()["counters"].items()
        if name == "switch_sim.detection_words"
        or name.startswith(("switch_sim.faults.", "switch_sim.injections."))
    }
    return (
        {
            "strict": rows(result.first_detection),
            "potential": rows(result.first_detection_potential),
            "iddq": rows(result.first_detection_iddq),
            "peak": rows(result.iddq_peak, repr),
        },
        counters,
    )


@st.composite
def every_class_faults(draw, design) -> list:
    """The extracted faults plus drawn faults of all five classes, with the
    corner cases the extractor rarely produces."""
    mapped = design.mapped
    nets = sorted(mapped.nets)
    devices = [device.name for device in design.transistors]
    chain_nodes = sorted(
        {net for t in design.transistors for net in (t.source, t.drain) if "#" in net}
    )
    faults = list(extract_faults(design).faults)
    faults.append(BridgeFault(weight=1.0, net_a=VDD, net_b=GND))
    for _ in range(draw(st.integers(0, 6))):
        ends = st.sampled_from([VDD, GND, *nets])
        a, b = draw(st.lists(ends, min_size=2, max_size=2))
        faults.append(BridgeFault(weight=1.0, net_a=a, net_b=b))
    if chain_nodes:
        for _ in range(draw(st.integers(0, 4))):
            node = draw(st.sampled_from(chain_nodes))
            other = draw(st.sampled_from([VDD, GND, *nets, *chain_nodes]))
            faults.append(BridgeFault(weight=1.0, net_a=node, net_b=other))
    faults.append(BridgeFault(weight=1.0, net_a="ghost#n1", net_b=nets[0]))
    for device in draw(st.lists(st.sampled_from(devices), max_size=6)):
        faults.append(TransistorStuckOn(weight=1.0, transistor=device))
        faults.append(TransistorGateOpen(weight=1.0, transistor=device))
        faults.append(TransistorStuckOpen(weight=1.0, transistors=(device,)))
    spread = draw(st.lists(st.sampled_from(devices), min_size=1, max_size=5))
    faults.append(TransistorStuckOpen(weight=1.0, transistors=tuple(spread)))
    faults.append(FloatingNetFault(weight=1.0, net=GND, stuck_open=tuple(spread)))
    faults.append(TransistorStuckOpen(weight=1.0, transistors=("ghost.N0",)))
    faults.append(TransistorStuckOn(weight=1.0, transistor="ghost.P0"))
    readers: dict[str, list[str]] = {}
    for gate in mapped.gates:
        for net in gate.inputs:
            readers.setdefault(net, []).append(gate.name)
    for net in draw(st.lists(st.sampled_from(sorted(readers)), max_size=3)):
        floating = tuple((gate, net) for gate in readers[net])
        faults.append(FloatingNetFault(weight=1.0, net=net, floating_inputs=floating))
    faults.append(
        FloatingNetFault(weight=1.0, net="ghost", floating_inputs=(("ghost", "x"),))
    )
    faults.append(
        FloatingNetFault(
            weight=1.0, net=mapped.primary_outputs[0], floats_output_port=True
        )
    )
    return faults


@SLOW
@given(
    ckt=small_circuits(),
    n_vectors=st.integers(0, 150),
    seed=st.integers(0, 2**16),
    thresholds=st.sampled_from([(0.49, 0.51), (0.3, 0.7)]),
    data=st.data(),
)
@example(ckt=C17, n_vectors=0, seed=1, thresholds=(0.49, 0.51), data=None)
@example(ckt=C17, n_vectors=64, seed=2, thresholds=(0.49, 0.51), data=None)
@example(ckt=C17, n_vectors=130, seed=3, thresholds=(0.3, 0.7), data=None)
def test_array_planner_matches_per_fault_oracle(
    ckt, n_vectors, seed, thresholds, data
):
    design = build_layout(ckt)
    if data is None:
        faults = list(extract_faults(design).faults)
    else:
        faults = data.draw(every_class_faults(design))
    patterns = random_patterns(len(design.mapped.primary_inputs), n_vectors, seed)
    array = planned_run(
        SwitchLevelFaultSimulator(design, patterns, *thresholds), faults
    )
    oracle = PerFaultSimulator(
        SwitchLevelFaultSimulator(design, patterns, *thresholds)
    )
    assert array == planned_run(oracle, faults)
    # Each fault planned on its own resolves as in the oracle.
    sim = SwitchLevelFaultSimulator(design, patterns, *thresholds)
    for fault in faults[::5]:
        assert sim._dispatch(fault) == oracle._dispatch(fault)


def test_c432_fault_list_matches_per_fault_oracle():
    design = build_layout(load_benchmark("c432"))
    faults = extract_faults(design).faults
    patterns = random_patterns(len(design.mapped.primary_inputs), 200, seed=5)
    array = planned_run(SwitchLevelFaultSimulator(design, patterns), faults)
    oracle = PerFaultSimulator(SwitchLevelFaultSimulator(design, patterns))
    assert array == planned_run(oracle, faults)


def test_chunked_planning_matches_one_chunk(monkeypatch):
    # One state row (or cell plan) per chunk: every chunk boundary of the
    # planner's passes is crossed, and nothing may change.
    design = build_layout(C17)
    faults = list(extract_faults(design).faults)
    patterns = random_patterns(len(design.mapped.primary_inputs), 130, seed=6)
    whole = planned_run(SwitchLevelFaultSimulator(design, patterns), faults)
    monkeypatch.setattr(simulator_module, "_CHUNK_WORDS", 1)
    monkeypatch.setattr(simulator_module, "_CHUNK_CELLS", 1)
    assert planned_run(SwitchLevelFaultSimulator(design, patterns), faults) == whole
