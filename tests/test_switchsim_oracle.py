"""Independent oracles for the switch-level simulator's vectorised paths.

* the detection-table fill (numpy lanes with single and multi-site forces)
  against the python engine's ``detection_word``/``detection_word_multi``;
* the batched resolve (detection table plus packed masks) against a
  brute-force scalar evaluation of every masked vector with the stuck-at
  forces applied;
* ``retained_bits`` (charge retention as carries over bitsets) against the
  sequential state machine it replaced;
* ``_tap_levels`` (one ``solve_with_tap`` per distinct key) and the
  internal-bridge detections built on it against the per-vector loop.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.atpg import random_patterns
from repro.circuit import Circuit, GateType
from repro.circuit.iscas import load_benchmark
from repro.defects import BridgeFault
from repro.layout import build_layout
from repro.layout.cells import GND, VDD
from repro.simulation import LogicSimulator, NumpyFaultSimulator
from repro.simulation.faults import FaultSite, StuckAtFault
from repro.simulation.logic_sim import pack_patterns
from repro.simulation.numpy_sim import pack_bitslice
from repro.switchsim import SwitchLevelFaultSimulator, solve_with_tap
from repro.switchsim.simulator import Detection, _mask_bits, _Plan, retained_bits
from tests.fault_sim_oracle import FaultSimulator
from tests.strategies import small_circuits

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
    plan = _Plan(sim.n_patterns)
    query = plan.query(injections)
    return sim._resolve(plan, sim._fill(plan))[query]


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
_GATE_FN = {
    GateType.AND: lambda xs: int(all(xs)),
    GateType.NAND: lambda xs: 1 - int(all(xs)),
    GateType.OR: lambda xs: int(any(xs)),
    GateType.NOR: lambda xs: 1 - int(any(xs)),
    GateType.XOR: lambda xs: sum(xs) % 2,
    GateType.XNOR: lambda xs: 1 - sum(xs) % 2,
    GateType.NOT: lambda xs: 1 - xs[0],
    GateType.BUF: lambda xs: xs[0],
}


def forced_outputs(circuit, vector, forces=()) -> list[int]:
    """Primary outputs of one vector, evaluated gate by gate under ``forces``."""
    net_force = {f.net: f.value for f in forces if f.site is FaultSite.NET}
    pin_force = {
        (f.gate, f.pin): f.value for f in forces if f.site is FaultSite.GATE_INPUT
    }
    values = {
        pi: net_force.get(pi, v) for pi, v in zip(circuit.primary_inputs, vector)
    }
    pending = list(circuit.gates)
    while pending:
        later = []
        for gate in pending:
            if all(net in values for net in gate.inputs):
                ins = [
                    pin_force.get((gate.name, pin), values[net])
                    for pin, net in enumerate(gate.inputs)
                ]
                value = _GATE_FN[gate.gate_type](ins)
                values[gate.output] = net_force.get(gate.output, value)
            else:
                later.append(gate)
        pending = later
    return [values[po] for po in circuit.primary_outputs]


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
    plan = _Plan(sim.n_patterns)
    both = [plan.query(bits), plan.query(bits[::-1])]
    singles = [plan.query([injection]) for injection in bits]
    firsts = sim._resolve(plan, sim._fill(plan))
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
@given(st.lists(st.tuples(conductances, conductances), max_size=80))
@example([])
@example([(0.0, 0.0)] * 5)
@example([(1.5, 4.0), (0.0, 0.0), (1.5, 0.0), (1.5, 4.0), (0.0, 0.0)])
@example([(0.0, 4.0), (0.0, 0.0), (0.0, 0.0), (1.5, 0.0), (0.0, 0.0)])
def test_retained_levels_match_sequential_loop(pairs):
    up = [u for u, _ in pairs]
    down = [d for _, d in pairs]

    def vectors(pulls) -> int:
        return sum(1 << k for k, pull in enumerate(pulls) if pull)

    level1, level0 = retained_bits(
        vectors(u > 0 and d <= 0 for u, d in pairs),
        vectors(d > 0 and u <= 0 for u, d in pairs),
        vectors(u <= 0 and d <= 0 for u, d in pairs),
        (1 << len(pairs)) - 1,
    )
    levels = [
        1 if level1 >> k & 1 else 0 if level0 >> k & 1 else 2
        for k in range(len(pairs))
    ]
    assert levels == sequential_levels(up, down)


# ----------------------------------------------------------------------
# Internal-node bridges against the per-vector solve_with_tap loop
# ----------------------------------------------------------------------
def reference_tap_levels(sim, cell, tap_index, ext_vals, ext_drive):
    combos = sim._combo_indices(cell)
    n = len(cell.inputs)
    out_new, tap_val = [], []
    for k in range(sim.n_patterns):
        bits = tuple((int(combos[k]) >> i) & 1 for i in range(n))
        out_k, tap_k = solve_with_tap(
            cell.gate_type, bits, tap_index, float(ext_vals[k]), float(ext_drive[k])
        )
        out_new.append(out_k)
        tap_val.append(tap_k)
    return out_new, tap_val


def reference_internal_bridge(sim, cell, tap_index, external) -> Detection:
    """The per-vector internal-bridge evaluation the unique-key path replaced."""
    ext_vals = sim._rail_or_values(external)
    ext_drive = sim._rail_or_drive(external)
    out_vals = sim.values[cell.output]
    out_new, tap_val = reference_tap_levels(sim, cell, tap_index, ext_vals, ext_drive)
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
    strict_inj = sim._flip_injections(out, bits["out0"], bits["out1"])
    strict_inj += sim._flip_injections(external, bits["ext0"], bits["ext1"])
    potential_inj = list(strict_inj)
    potential_inj += sim._x_injections(out, bits["outx"])
    potential_inj += sim._x_injections(external, bits["extx"])
    peak = 0.0
    if masks["iddq"].any():
        peak = float(np.where(masks["iddq"], np.minimum(ext_drive, 4.0), 0.0).max())
    return Detection(
        first_masked_detection(sim, strict_inj),
        first_masked_detection(sim, potential_inj),
        sim._first_true(masks["iddq"]),
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
    cells = sorted(sim.cells.values(), key=lambda cell: cell.instance)
    cell = data.draw(st.sampled_from(cells))
    external = data.draw(st.sampled_from([VDD, GND, *sim.mapped.nets]))
    ext_vals = sim._rail_or_values(external)
    ext_drive = sim._rail_or_drive(external)
    n = len(cell.inputs)
    for tap_index in range(n):
        out_new, tap_val = sim._tap_levels(cell, tap_index, external)
        assert (out_new.tolist(), tap_val.tolist()) == reference_tap_levels(
            sim, cell, tap_index, ext_vals, ext_drive
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
