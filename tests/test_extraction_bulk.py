"""Oracle tests for the array bridge pass and the fault-list merge.

``FaultExtractor.extract_bridges`` weighs, classifies and merges every
facing pair in array passes.  It must produce exactly the faults of the
per-pair loop it replaced: one ``average_critical_area`` call, one
classification and one ``FaultList.add`` per pair, in pair order.  The
comparison covers order, key, origin and ``repr(weight)``.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.defects import (
    DefectMechanism,
    DefectStatistics,
    SizeDistribution,
)
from repro.defects.critical_area import average_critical_area
from repro.defects.extraction import FaultExtractor, facing_pairs
from repro.defects.fault_types import (
    BridgeFault,
    FaultList,
    FloatingNetFault,
    TransistorStuckOn,
)
from repro.defects.statistics import LAYER_MECHANISMS
from repro.layout.cells import Transistor
from repro.layout.geometry import Layer, Rect
from repro.layout.sweep import ShapeColumns

_DIFF_LAYERS = (Layer.NDIFF, Layer.PDIFF)


# ---------------------------------------------------------------------------
# The per-pair loop, as it ran before the array pass
# ---------------------------------------------------------------------------
def reference_add(by_key: dict, fault) -> None:
    """``FaultList.add`` before it skipped known origins."""
    if fault.weight <= 0:
        return
    existing = by_key.get(fault.key())
    if existing is None:
        by_key[fault.key()] = fault
    else:
        existing.weight += fault.weight
        merged = set(existing.origin) | set(fault.origin)
        existing.origin = tuple(sorted(merged, key=lambda m: m.value))


def reference_bridges(design, stats: DefectStatistics) -> list:
    sd_pair = {}
    for t in design.transistors:
        key = (t.name.rsplit(".", 1)[0], frozenset((t.source, t.drain)))
        sd_pair.setdefault(key, t.name)
    shapes = design.shapes
    by_key: dict = {}
    columns, _ = facing_pairs(ShapeColumns.of(shapes), stats.size.x_max)
    for ia, ib, spacing, run in zip(*(column.tolist() for column in columns)):
        a, b = shapes[ia], shapes[ib]
        mech = LAYER_MECHANISMS[a.layer][0]
        weight = stats.density(mech) * average_critical_area(run, spacing, stats.size)
        if weight <= 0:
            continue
        fault = BridgeFault(weight=weight, origin=(mech,), net_a=a.net, net_b=b.net)
        if a.layer in _DIFF_LAYERS and a.owner and a.owner == b.owner:
            name = sd_pair.get((a.owner, frozenset((a.net, b.net))))
            if name is not None:
                fault = TransistorStuckOn(
                    weight=weight, origin=(mech,), transistor=name, instance=a.owner
                )
        reference_add(by_key, fault)
    return list(by_key.values())


def fault_rows(faults) -> list[tuple]:
    return [
        (type(f).__name__, f.key(), f.origin, repr(f.weight), vars(f).get("instance"))
        for f in faults
    ]


# ---------------------------------------------------------------------------
# Random designs: coarse coordinates repeat (run, spacing), few nets share
# pairs across layers, and same-owner diffusion pairs match devices.
# ---------------------------------------------------------------------------
_LAYERS = [Layer.METAL1, Layer.METAL2, Layer.POLY, *[Layer.NDIFF, Layer.PDIFF] * 2]
_NETS = ["a", "b", "c", "d", "u1#1", ""]
_OWNERS = ["", "u1", "u2"]
_SHORTS = [
    DefectMechanism.METAL1_SHORT,
    DefectMechanism.METAL2_SHORT,
    DefectMechanism.POLY_SHORT,
    DefectMechanism.DIFF_SHORT,
]


@st.composite
def designs(draw):
    shapes = []
    for _ in range(draw(st.integers(0, 30))):
        x = draw(st.integers(0, 40)) * 0.5
        y = draw(st.integers(0, 40)) * 0.5
        w = draw(st.integers(1, 24)) * 0.5
        h = draw(st.integers(1, 4)) * 0.5
        if draw(st.booleans()):
            w, h = h, w
        shapes.append(
            Rect(
                draw(st.sampled_from(_LAYERS)),
                x,
                y,
                x + w,
                y + h,
                net=draw(st.sampled_from(_NETS)),
                owner=draw(st.sampled_from(_OWNERS)),
            )
        )
    channel = Rect(Layer.POLY, 100.0, 100.0, 101.0, 101.0)
    transistors = [
        Transistor(
            name=f"{owner}.m{k}",
            polarity=draw(st.sampled_from("np")),
            gate="g",
            source=draw(st.sampled_from(_NETS[:3])),
            drain=draw(st.sampled_from(_NETS[2:5])),
            width=1.0,
            length=1.0,
            channel=channel,
        )
        for k, owner in enumerate(
            draw(st.lists(st.sampled_from(["u1", "u2"]), min_size=1, max_size=6))
        )
    ]
    densities = {
        mech: draw(st.sampled_from([0.0, 1e-7, 3e-7, 8e-7])) for mech in _SHORTS
    }
    x_max = draw(st.sampled_from([2.0, 5.0, 30.0]))
    stats = DefectStatistics(size=SizeDistribution(x_max=x_max), densities=densities)
    design = SimpleNamespace(shapes=shapes, transistors=transistors, cell_of_net={})
    return design, stats


@settings(max_examples=200, deadline=None)
@given(case=designs())
def test_bulk_bridge_pass_matches_per_pair_loop(case):
    design, stats = case
    faults = FaultList()
    FaultExtractor(design, stats).extract_bridges(faults)
    assert fault_rows(faults) == fault_rows(reference_bridges(design, stats))


def test_bulk_bridge_pass_covers_merges_and_stuck_on():
    """A hand-built case with every path the hypothesis search aims at."""
    shapes = [
        # One net pair on metal1 twice and on poly: a cross-layer merge.
        Rect(Layer.METAL1, 0.0, 0.0, 10.0, 1.0, net="a"),
        Rect(Layer.METAL1, 0.0, 2.0, 10.0, 3.0, net="b"),
        Rect(Layer.METAL1, 0.0, 4.0, 10.0, 5.0, net="a"),
        Rect(Layer.POLY, 20.0, 0.0, 30.0, 1.0, net="b"),
        Rect(Layer.POLY, 20.0, 2.0, 30.0, 3.0, net="a"),
        # A same-owner diffusion pair across a channel: a stuck-on device.
        Rect(Layer.NDIFF, 40.0, 0.0, 41.0, 4.0, net="a", owner="u1"),
        Rect(Layer.NDIFF, 42.0, 0.0, 43.0, 4.0, net="u1#1", owner="u1"),
        # Metal2 pairs weigh nothing: their mechanism has zero density.
        Rect(Layer.METAL2, 60.0, 0.0, 70.0, 1.0, net="c"),
        Rect(Layer.METAL2, 60.0, 2.0, 70.0, 3.0, net="d"),
    ]
    device = Transistor(
        "u1.m0", "n", "g", "a", "u1#1", 1.0, 1.0, Rect(Layer.POLY, 41, 0, 42, 4)
    )
    design = SimpleNamespace(shapes=shapes, transistors=[device], cell_of_net={})
    densities = {
        DefectMechanism.METAL1_SHORT: 8e-7,
        DefectMechanism.POLY_SHORT: 5e-7,
        DefectMechanism.DIFF_SHORT: 2e-7,
    }
    stats = DefectStatistics(densities=densities)
    faults = FaultList()
    FaultExtractor(design, stats).extract_bridges(faults)
    assert fault_rows(faults) == fault_rows(reference_bridges(design, stats))
    keys = [f.key() for f in faults]
    assert keys == [("bridge", "a", "b"), ("t-on", "u1.m0")]
    assert faults.faults[0].origin == (
        DefectMechanism.METAL1_SHORT,
        DefectMechanism.POLY_SHORT,
    )


# ---------------------------------------------------------------------------
# FaultList.add: skipping known origins changes nothing
# ---------------------------------------------------------------------------
_OPENS = [
    DefectMechanism.CONTACT_OPEN,
    DefectMechanism.VIA_OPEN,
    DefectMechanism.METAL1_OPEN,
]


@settings(max_examples=200, deadline=None)
@given(
    adds=st.lists(
        st.tuples(
            st.sampled_from(["x", "y", "z"]),
            st.lists(st.sampled_from(_OPENS), min_size=1, max_size=2, unique=True),
            st.sampled_from([0.0, 1e-7, 2.5e-7, 3e-7]),
        ),
        max_size=20,
    )
)
def test_fault_list_add_matches_origin_union(adds):
    faults, reference = FaultList(), {}
    for net, origin, weight in adds:
        for sink in (faults.add, lambda f: reference_add(reference, f)):
            sink(FloatingNetFault(weight=weight, origin=tuple(origin), net=net))
    assert fault_rows(faults) == fault_rows(reference.values())

