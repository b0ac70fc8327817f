"""Property-based tests (hypothesis) on core invariants.

These cover the model identities the paper's derivation rests on, plus
simulator-level invariants on randomly generated circuits.
"""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    coverage_at,
    residual_defect_level,
    sousa_defect_level,
    susceptibility_ratio,
    theta_of_T,
    weighted_coverage_at,
    williams_brown,
    weight_from_probability,
    probability_from_weight,
    yield_from_weights,
    weights_for_yield,
)

yields = st.floats(min_value=0.05, max_value=0.99)
coverages = st.floats(min_value=0.0, max_value=1.0)
ratios = st.floats(min_value=0.2, max_value=8.0)
theta_maxes = st.floats(min_value=0.5, max_value=1.0)


@given(y=yields, t=coverages)
def test_wb_bounds(y, t):
    dl = williams_brown(y, t)
    assert 0.0 <= dl <= 1.0 - y + 1e-12


@given(y=yields, t=coverages, r=ratios, tm=theta_maxes)
def test_sousa_bounds_and_reduction(y, t, r, tm):
    dl = sousa_defect_level(y, t, r, tm)
    assert 0.0 <= dl < 1.0
    assert sousa_defect_level(y, t, 1.0, 1.0) == pytest.approx(williams_brown(y, t))


@given(y=yields, r=ratios, tm=theta_maxes, t1=coverages, t2=coverages)
def test_sousa_monotone_in_coverage(y, r, tm, t1, t2):
    lo, hi = sorted((t1, t2))
    assert sousa_defect_level(y, hi, r, tm) <= sousa_defect_level(y, lo, r, tm) + 1e-12


@given(y=yields, r=ratios, tm=theta_maxes)
def test_sousa_floor_is_residual(y, r, tm):
    assert sousa_defect_level(y, 1.0, r, tm) == pytest.approx(
        residual_defect_level(y, tm)
    )


@given(
    s_t=st.floats(min_value=1.1, max_value=50.0),
    s_r=st.floats(min_value=1.1, max_value=50.0),
    tm=theta_maxes,
    k=st.floats(min_value=1.0, max_value=1e8),
)
def test_eq9_eliminates_k(s_t, s_r, tm, k):
    """theta(k) == theta_of_T(T(k)) for every k — the paper's eq. 9."""
    from hypothesis import assume

    T = coverage_at(k, s_t)
    # Once T rounds to within float eps of 1, (1 - T) has no significant
    # bits left and the identity cannot be checked numerically.
    assume(T < 1 - 1e-9)
    theta = weighted_coverage_at(k, s_r, tm)
    r = susceptibility_ratio(s_t, s_r)
    assert theta == pytest.approx(theta_of_T(T, r, tm), rel=1e-6, abs=1e-9)


@given(p=st.floats(min_value=0.0, max_value=0.999999))
def test_weight_probability_bijection(p):
    assert probability_from_weight(weight_from_probability(p)) == pytest.approx(p)


@given(
    ws=st.lists(st.floats(min_value=1e-9, max_value=0.5), min_size=1, max_size=30),
    target=st.floats(min_value=0.05, max_value=0.95),
)
def test_yield_scaling_invariants(ws, target):
    scaled = weights_for_yield(ws, target)
    assert yield_from_weights(scaled) == pytest.approx(target)
    # Scaling preserves weight ordering.
    order = sorted(range(len(ws)), key=lambda i: ws[i])
    order_scaled = sorted(range(len(ws)), key=lambda i: scaled[i])
    assert order == order_scaled


# ----------------------------------------------------------------------
# Random-circuit simulator invariants
# ----------------------------------------------------------------------
@st.composite
def random_circuits(draw):
    from repro.circuit import Circuit, GateType

    rng_types = [
        GateType.AND,
        GateType.NAND,
        GateType.OR,
        GateType.NOR,
        GateType.XOR,
        GateType.NOT,
    ]
    n_inputs = draw(st.integers(min_value=2, max_value=5))
    n_gates = draw(st.integers(min_value=1, max_value=12))
    ckt = Circuit(name="rand")
    nets = [ckt.add_input(f"i{k}") for k in range(n_inputs)]
    for g in range(n_gates):
        gt = draw(st.sampled_from(rng_types))
        fan = 1 if gt is GateType.NOT else draw(st.integers(2, 3))
        sources = [
            nets[draw(st.integers(0, len(nets) - 1))] for _ in range(fan)
        ]
        out = f"g{g}"
        ckt.add_gate(gt, sources, out)
        nets.append(out)
    ckt.add_output(nets[-1])
    ckt.validate()
    return ckt


@settings(max_examples=40, deadline=None)
@given(ckt=random_circuits(), code=st.integers(min_value=0, max_value=2**20))
def test_packed_equals_scalar_on_random_circuits(ckt, code):
    from repro.simulation import LogicSimulator

    sim = LogicSimulator(ckt)
    n = len(ckt.primary_inputs)
    vec = [(code >> i) & 1 for i in range(n)]
    scalar = sim.outputs(vec)
    packed_rows = sim.run_patterns([vec])
    assert packed_rows[0] == scalar


@settings(max_examples=25, deadline=None)
@given(ckt=random_circuits())
def test_collapsing_never_loses_detection_sets(ckt):
    from repro.simulation import (
        NumpyFaultSimulator,
        collapse_faults,
        full_fault_universe,
        pack_bitslice,
    )

    sim = NumpyFaultSimulator(ckt)
    n = len(ckt.primary_inputs)
    vectors = [[(c >> i) & 1 for i in range(n)] for c in range(2**n)]
    good = sim.good_block(pack_bitslice(vectors, n))

    def signature(fault):
        (words,) = sim.detection_words(good, len(vectors), [(fault,)])
        return tuple(words.tolist())

    collapsed_sigs = {signature(f) for f in collapse_faults(ckt)}
    for fault in full_fault_universe(ckt):
        assert signature(fault) in collapsed_sigs


@settings(max_examples=15, deadline=None)
@given(ckt=random_circuits())
def test_podem_agrees_with_exhaustive_detectability(ckt):
    from repro.atpg import AtpgStatus, PodemAtpg
    from repro.simulation import NumpyFaultSimulator, collapse_faults

    atpg = PodemAtpg(ckt, backtrack_limit=4000)
    sim = NumpyFaultSimulator(ckt)
    n = len(ckt.primary_inputs)
    vectors = [[(c >> i) & 1 for i in range(n)] for c in range(2**n)]
    faults = collapse_faults(ckt)
    exhaustive = sim.run(vectors, faults=faults).first_detection
    for fault in faults:
        detectable = fault in exhaustive
        outcome = atpg.generate(fault)
        if outcome.status == AtpgStatus.TESTED:
            assert detectable
            check = sim.run([outcome.pattern], faults=[fault])
            assert fault in check.first_detection
        elif outcome.status == AtpgStatus.REDUNDANT:
            assert not detectable, f"{fault} falsely proved redundant"
