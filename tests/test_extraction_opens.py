"""Oracle tests for the array open passes.

``FaultExtractor.extract_opens`` enumerates, weighs and merges every open
event in column passes.  It must produce exactly the faults of the
per-event pass in ``tests/extraction_oracle.py``: the same order, class,
key, origin, ``repr(weight)`` and first event's ``instance``, and the same
``extraction.open_nodes_separated`` count.  The designs are generated
layouts of random circuits, the same layouts with shapes deleted (so nets
split, members go unreached and stripes lose contacts or channels), and
the six golden benchmarks.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuit.iscas import load_benchmark
from repro.defects import DefectMechanism, DefectStatistics
from repro.defects.extraction import FaultExtractor
from repro.defects.fault_types import FaultList
from repro.layout import build_layout
from repro.layout.geometry import Layer, Rect
from tests.extraction_oracle import reference_opens
from tests.strategies import small_circuits

_OPENS = [m for m in DefectMechanism if m.is_open]


def fault_rows(faults) -> list[tuple]:
    return [
        (type(f).__name__, f.key(), f.origin, repr(f.weight), vars(f).get("instance"))
        for f in faults
    ]


def assert_opens_match_oracle(design, stats: DefectStatistics) -> None:
    expected, separated = reference_opens(design, stats)
    _, registry = obs.enable()
    try:
        faults = FaultList()
        FaultExtractor(design, stats).extract_opens(faults)
    finally:
        obs.disable()
    counters = registry.snapshot()["counters"]
    assert fault_rows(faults) == fault_rows(expected)
    assert counters.get("extraction.open_nodes_separated", 0) == separated


@st.composite
def statistics(draw) -> DefectStatistics:
    """The default table with some open mechanisms weighing nothing."""
    zero = draw(st.sets(st.sampled_from(_OPENS), max_size=3))
    stats = DefectStatistics()
    return DefectStatistics(
        densities={m: 0.0 if m in zero else d for m, d in stats.densities.items()}
    )


@settings(max_examples=60, deadline=None)
@given(circuit=small_circuits(), stats=statistics())
def test_open_passes_match_per_event_oracle(circuit, stats):
    assert_opens_match_oracle(build_layout(circuit), stats)


@settings(max_examples=60, deadline=None)
@given(circuit=small_circuits(), stats=statistics(), data=st.data())
def test_open_passes_match_oracle_on_damaged_layouts(circuit, stats, data):
    design = build_layout(circuit)
    n = len(design.shapes)
    dropped = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n // 4))
    damaged = SimpleNamespace(
        shapes=[s for k, s in enumerate(design.shapes) if k not in dropped],
        transistors=design.transistors,
        cell_of_net=design.cell_of_net,
        mapped=design.mapped,
    )
    assert_opens_match_oracle(damaged, stats)


@pytest.mark.parametrize("circuit", ["c17", "mux8", "dec4", "par16", "alu4", "c432"])
def test_open_passes_match_oracle_on_golden_benchmarks(circuit):
    assert_opens_match_oracle(build_layout(load_benchmark(circuit)), DefectStatistics())


def test_open_passes_match_oracle_when_a_break_cuts_off_two_ranges():
    """A loop makes one break cut off two DFS ranges that do not abut.

    All metal1 on primary input ``a``: port ``P`` feeds wire ``W``, which
    carries gate pins ``X1`` and ``X2`` and a branch ``L`` that loops back to
    ``P`` through ``M`` and ``M1``.  Breaking ``W`` right of ``L`` floats
    ``X1`` and ``X2``, but not ``L``, which sits between them in preorder.
    """
    m1 = Layer.METAL1
    shapes = [
        Rect(m1, 0.0, 0.0, 2.0, 1.0, net="a", purpose="port"),  # P
        Rect(m1, 2.0, 0.0, 10.0, 1.0, net="a"),  # W
        Rect(m1, 3.0, 1.0, 4.0, 4.0, net="a", purpose="gate", owner="u1"),  # X1
        Rect(m1, 5.0, 1.0, 6.0, 5.0, net="a"),  # L
        Rect(m1, 8.0, 1.0, 9.0, 4.0, net="a", purpose="gate", owner="u2"),  # X2
        Rect(m1, 0.0, 5.0, 6.0, 6.0, net="a"),  # M
        Rect(m1, 0.0, 1.0, 1.0, 6.0, net="a"),  # M1
    ]
    design = SimpleNamespace(
        shapes=shapes,
        transistors=[],
        cell_of_net={},
        mapped=SimpleNamespace(primary_inputs=["a"], primary_outputs=[]),
    )
    assert_opens_match_oracle(design, DefectStatistics())
    faults = FaultList()
    FaultExtractor(design, DefectStatistics()).extract_opens(faults)
    floated = {f.floating_inputs for f in faults}
    assert (("u1", "a"), ("u2", "a")) in floated
