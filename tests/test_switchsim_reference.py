"""The switch-level simulator's strict θ(k) against a transistor-level reference.

For stuck-on, stuck-open (with charge retention) and gate-open faults the
strict first detection of :class:`SwitchLevelFaultSimulator` must equal that
of :class:`~tests.switchsim_reference.TransistorReference`, which resolves
the faulty cell vector by vector from its conductances and propagates only
definite flips through a python evaluation of the circuit.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.atpg import random_patterns
from repro.circuit.iscas import load_benchmark
from repro.defects import (
    TransistorGateOpen,
    TransistorStuckOn,
    TransistorStuckOpen,
    extract_faults,
)
from repro.layout import build_layout
from repro.switchsim import SwitchLevelFaultSimulator
from tests.strategies import small_circuits
from tests.switchsim_reference import TransistorReference

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: (v_low, v_high): the library's narrow band, and a wide one where more
#: fights read X.
THRESHOLDS = st.sampled_from([(0.49, 0.51), (0.3, 0.7), (0.45, 0.5)])


def transistor_faults(design) -> list:
    """Every device stuck on, stuck open and gate-open, plus the extracted
    (possibly multi-device, multi-cell) stuck-open sets."""
    faults: list = []
    for device in design.transistors:
        faults.append(TransistorStuckOn(weight=1.0, transistor=device.name))
        faults.append(TransistorStuckOpen(weight=1.0, transistors=(device.name,)))
        faults.append(TransistorGateOpen(weight=1.0, transistor=device.name))
    faults.extend(
        fault
        for fault in extract_faults(design).faults
        if isinstance(fault, TransistorStuckOpen)
    )
    return faults


C17 = load_benchmark("c17")


@SLOW
@given(
    ckt=small_circuits(),
    n_vectors=st.integers(0, 80),
    seed=st.integers(0, 2**16),
    thresholds=THRESHOLDS,
)
@example(ckt=C17, n_vectors=0, seed=1, thresholds=(0.49, 0.51))
@example(ckt=C17, n_vectors=70, seed=2, thresholds=(0.49, 0.51))
@example(ckt=C17, n_vectors=70, seed=3, thresholds=(0.3, 0.7))
def test_strict_detection_matches_transistor_reference(
    ckt, n_vectors, seed, thresholds
):
    design = build_layout(ckt)
    patterns = random_patterns(len(design.mapped.primary_inputs), n_vectors, seed)
    sim = SwitchLevelFaultSimulator(design, patterns, *thresholds)
    reference = TransistorReference(sim)
    faults = transistor_faults(design)
    result = sim.run(faults)
    expected = [reference.strict(fault) for fault in faults]
    assert [result.detected_voltage(fault) for fault in faults] == expected
    # Planned on its own, a fault resolves the same way.
    for fault, first in list(zip(faults, expected))[::7]:
        assert sim._dispatch(fault).strict == first
