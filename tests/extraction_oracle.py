"""Test oracle for open extraction: one fault per event, added in turn.

:func:`reference_opens` is the per-event open pass that
``FaultExtractor.extract_opens`` replaced.  It walks every net in order of
first appearance and every shape of the net in index order, computes each
event's weight with one scalar ``average_critical_area`` call, classifies
it and adds one fault to a :class:`FaultList` per event, merging on the
way.  The array passes must produce exactly its faults, in its order, with
every weight bit (``tests/test_extraction_opens.py``).

It shares with the array passes only the connectivity
(:func:`connectivity_edges`, :func:`neighbour_lists`) and
:class:`Separation`, which ``tests/test_extraction_sweep.py`` checks
against one BFS per removed node.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Generic, TypeVar

from repro.defects.critical_area import average_critical_area
from repro.defects.fault_types import (
    FaultList,
    FloatingNetFault,
    TransistorGateOpen,
    TransistorStuckOpen,
)
from repro.defects.separation import Separation
from repro.defects.statistics import (
    LAYER_MECHANISMS,
    DefectMechanism,
    DefectStatistics,
)
from repro.layout.cells import GND, VDD
from repro.layout.extract import connectivity_edges, neighbour_lists
from repro.layout.geometry import Layer
from repro.layout.sweep import ShapeColumns

_SUPPLIES = (VDD, GND)
_DIFF_LAYERS = (Layer.NDIFF, Layer.PDIFF)
_GENERIC_OPEN_LAYERS = (Layer.METAL1, Layer.METAL2)

T = TypeVar("T")
_Floating = tuple[int, tuple[tuple[tuple[str, str], ...], bool, tuple[str, ...]] | None]


class _Members(Generic[T]):
    """Values of one class of a net's shapes, in DFS preorder of the shapes."""

    def __init__(self, values: dict[int, T], reach: Separation):
        placed = sorted(
            (at, i) for i in values if (at := reach.position(i)) is not None
        )
        self.positions = [at for at, _ in placed]
        self.values = [values[i] for _, i in placed]
        self.unreached = [
            (i, value) for i, value in values.items() if reach.position(i) is None
        ]

    def cut_off(
        self, starts: Sequence[int], stops: Sequence[int], removed: int
    ) -> list[T]:
        found = [value for i, value in self.unreached if i != removed]
        for lo, hi in zip(starts, stops):
            found += self.values[
                bisect_left(self.positions, lo) : bisect_left(self.positions, hi)
            ]
        return found


@dataclass
class _NetContext:
    name: str
    nodes: list[int] = field(default_factory=list)
    adjacency: dict[int, list[int]] = field(default_factory=dict)
    anchors: set[int] = field(default_factory=set)
    gate_shapes: set[int] = field(default_factory=set)
    po_ports: set[int] = field(default_factory=set)
    diff_shapes: set[int] = field(default_factory=set)
    floaters: tuple[_Members, _Members, _Members] | None = None
    floating: dict[int, _Floating] = field(default_factory=dict)

    @cached_property
    def from_anchors(self) -> Separation:
        return Separation(self.adjacency, self.anchors)

    @cached_property
    def from_sinks(self) -> Separation:
        return Separation(self.adjacency, self.gate_shapes | self.po_ports)


class ReferenceOpens:
    """The per-event open pass over one design and one density table."""

    def __init__(self, design, statistics: DefectStatistics):
        self.design = design
        self.stats = statistics
        self.size = statistics.size
        self.shapes = shapes = design.shapes
        columns = ShapeColumns.of(shapes)
        edges = connectivity_edges(columns)
        a, b = edges[:, 0], edges[:, 1]
        same_net = columns.labelled[a] & (columns.net[a] == columns.net[b])
        self._net_neighbours = neighbour_lists(len(shapes), edges[same_net])
        self._neighbours = neighbour_lists(len(shapes), edges)
        self._instance_of = {
            t.name: t.name.rsplit(".", 1)[0] for t in design.transistors
        }
        self._devices_by_gate: dict[str, list] = defaultdict(list)
        for t in design.transistors:
            self._devices_by_gate[t.gate].append(t)
        self._adjacent_transistors = self._map_seg_transistors()
        #: ``extraction.open_nodes_separated`` of the pass.
        self.separated = 0

    def extract(self, faults: FaultList) -> None:
        for ctx in self._build_net_contexts().values():
            self._opens_for_net(ctx, faults)

    def _build_net_contexts(self) -> dict[str, _NetContext]:
        contexts: dict[str, _NetContext] = {}
        po_set = set(self.design.mapped.primary_outputs)
        pi_set = set(self.design.mapped.primary_inputs)
        for i, shape in enumerate(self.shapes):
            if not shape.net:
                continue
            ctx = contexts.get(shape.net)
            if ctx is None:
                ctx = contexts[shape.net] = _NetContext(name=shape.net)
            ctx.nodes.append(i)
            ctx.adjacency[i] = self._net_neighbours[i]
            if shape.purpose == "gate":
                ctx.gate_shapes.add(i)
            if shape.purpose == "port" and shape.net in po_set:
                ctx.po_ports.add(i)
            if shape.layer in _DIFF_LAYERS and shape.owner:
                ctx.diff_shapes.add(i)
        for net, ctx in contexts.items():
            if net in _SUPPLIES:
                ctx.anchors = {
                    i
                    for i in ctx.nodes
                    if self.shapes[i].layer is Layer.METAL2 and not self.shapes[i].owner
                }
            elif net in pi_set:
                ctx.anchors = {
                    i for i in ctx.nodes if self.shapes[i].purpose == "port"
                }
            else:
                driver = self.design.cell_of_net.get(net)
                if driver is not None:
                    ctx.anchors = {
                        i
                        for i in ctx.diff_shapes
                        if self.shapes[i].owner == driver.instance
                    }
        return contexts

    def _opens_for_net(self, ctx: _NetContext, faults: FaultList) -> None:
        internal = "#" in ctx.name
        for i in ctx.nodes:
            shape = self.shapes[i]
            if shape.layer in _DIFF_LAYERS:
                self._diff_open(i, faults)
            elif shape.layer.is_cut:
                self._cut_open(ctx, i, faults)
            elif shape.layer is Layer.POLY and shape.purpose == "gate":
                self._gate_stripe_opens(i, faults)
            elif shape.layer in _GENERIC_OPEN_LAYERS and not internal:
                self._wire_opens(ctx, i, faults)

    def _diff_open(self, node: int, faults: FaultList) -> None:
        shape = self.shapes[node]
        mech = LAYER_MECHANISMS[shape.layer][1]
        weight = self.stats.density(mech) * average_critical_area(
            shape.length, shape.min_dimension, self.size
        )
        if weight <= 0:
            return
        affected = self._adjacent_transistors.get(node, ())
        if affected:
            faults.add(
                TransistorStuckOpen(
                    weight=weight,
                    origin=(mech,),
                    transistors=tuple(sorted(affected)),
                    instance=shape.owner,
                )
            )

    def _gate_stripe_opens(self, node: int, faults: FaultList) -> None:
        shape = self.shapes[node]
        mech = DefectMechanism.POLY_OPEN
        density = self.stats.density(mech)
        if density <= 0:
            return
        devices = [
            t
            for t in self._devices_by_gate.get(shape.net, ())
            if t.channel.llx >= shape.llx - 1e-9
            and t.channel.urx <= shape.urx + 1e-9
            and t.channel.lly >= shape.lly - 1e-9
            and t.channel.ury <= shape.ury + 1e-9
        ]
        if not devices:
            return
        instance = self._instance_of.get(devices[0].name, shape.owner)
        contacts = [
            (self.shapes[j].lly, self.shapes[j].ury)
            for j in self._neighbours[node]
            if self.shapes[j].layer is Layer.CONTACT
        ]
        channels = sorted(
            ((t.channel.lly, t.channel.ury, t) for t in devices),
            key=lambda item: item[0],
        )
        if not contacts:
            return
        contact_top = max(c[1] for c in contacts)
        prev_top = contact_top
        floating_above: list = [t for _, __, t in channels]
        for lly, ury, _device in channels:
            gap = lly - prev_top
            if gap > 0:
                weight = density * average_critical_area(gap, shape.width, self.size)
                if weight > 0:
                    if len(floating_above) == len(devices):
                        faults.add(
                            FloatingNetFault(
                                weight=weight,
                                origin=(mech,),
                                net=shape.net,
                                floating_inputs=((instance, shape.net),),
                            )
                        )
                    elif len(floating_above) == 1:
                        faults.add(
                            TransistorGateOpen(
                                weight=weight,
                                origin=(mech,),
                                transistor=floating_above[0].name,
                                instance=instance,
                            )
                        )
                    else:
                        faults.add(
                            TransistorStuckOpen(
                                weight=weight,
                                origin=(mech,),
                                transistors=tuple(
                                    sorted(t.name for t in floating_above)
                                ),
                                instance=instance,
                            )
                        )
            prev_top = max(prev_top, ury)
            floating_above = floating_above[1:]

    def _cut_open(self, ctx: _NetContext, node: int, faults: FaultList) -> None:
        shape = self.shapes[node]
        mech = (
            DefectMechanism.CONTACT_OPEN
            if shape.layer is Layer.CONTACT
            else DefectMechanism.VIA_OPEN
        )
        weight = self.stats.density(mech)
        if weight <= 0 or not ctx.anchors:
            return
        self._emit_open(ctx, node, weight, mech, faults)

    def _wire_opens(self, ctx: _NetContext, node: int, faults: FaultList) -> None:
        shape = self.shapes[node]
        mech = LAYER_MECHANISMS[shape.layer][1]
        density = self.stats.density(mech)
        if density <= 0 or not ctx.anchors:
            return
        neighbours = ctx.adjacency.get(node, [])
        if len(neighbours) < 2:
            return
        horizontal = shape.width >= shape.height
        span_of = (
            (lambda r: (max(r.llx, shape.llx), min(r.urx, shape.urx)))
            if horizontal
            else (lambda r: (max(r.lly, shape.lly), min(r.ury, shape.ury)))
        )
        marks = sorted(
            (span_of(self.shapes[j]) + (j,) for j in neighbours),
            key=lambda item: item[0],
        )
        gaps: list[tuple[int, float]] = []
        prev_hi = marks[0][1]
        for k, (lo, hi, _) in enumerate(marks[1:], 1):
            gap = lo - prev_hi
            if gap > 0:
                weight = density * average_critical_area(
                    gap, shape.min_dimension, self.size
                )
                if weight > 0:
                    gaps.append((k, weight))
            prev_hi = max(prev_hi, hi)
        if not gaps:
            return
        reach = ctx.from_anchors
        alive = [reach.reaches(node, j) for _, _, j in marks]
        for k, weight in gaps:
            if any(alive[:k]) and any(alive[k:]):
                self._stranded_anchor_check(ctx, node, weight, mech, faults)
            else:
                self._emit_open(ctx, node, weight, mech, faults)

    def _stranded_anchor_check(
        self,
        ctx: _NetContext,
        node: int,
        weight: float,
        mech: DefectMechanism,
        faults: FaultList,
    ) -> None:
        if not ctx.gate_shapes and not ctx.po_ports:
            return
        reach = ctx.from_sinks
        stranded = [a for a in ctx.anchors if not reach.reaches(node, a)]
        if not stranded:
            return
        devices: set[str] = set()
        for a in stranded:
            devices.update(self._adjacent_transistors.get(a, ()))
        if devices:
            faults.add(
                TransistorStuckOpen(
                    weight=weight,
                    origin=(mech,),
                    transistors=tuple(sorted(devices)),
                    instance=self.shapes[stranded[0]].owner,
                )
            )

    def _emit_open(
        self,
        ctx: _NetContext,
        removed: int,
        weight: float,
        mech: DefectMechanism,
        faults: FaultList,
    ) -> None:
        separated, effect = self._floating(ctx, removed)
        self.separated += separated
        if effect is not None:
            floating_inputs, floats_po, stuck_open = effect
            faults.add(
                FloatingNetFault(
                    weight=weight,
                    origin=(mech,),
                    net=ctx.name,
                    floating_inputs=floating_inputs,
                    floats_output_port=floats_po,
                    stuck_open=stuck_open,
                )
            )

    def _floating(self, ctx: _NetContext, removed: int) -> _Floating:
        found = ctx.floating.get(removed)
        if found is not None:
            return found
        reach = ctx.from_anchors
        starts, stops = reach.cut_ranges(removed)
        separated = sum(stops) - sum(starts) + len(reach.unreached)
        if reach.position(removed) is None:
            separated -= 1
        effect = None
        if separated:
            if ctx.floaters is None:
                ctx.floaters = self._floaters(ctx)
            gates, ports, diffs = ctx.floaters
            owners = gates.cut_off(starts, stops, removed)
            floats_po = bool(ports.cut_off(starts, stops, removed))
            stuck_open = set(chain.from_iterable(diffs.cut_off(starts, stops, removed)))
            if owners or floats_po or stuck_open:
                effect = (
                    tuple(sorted({(owner, ctx.name) for owner in owners})),
                    floats_po,
                    tuple(sorted(stuck_open)),
                )
        found = ctx.floating[removed] = (separated, effect)
        return found

    def _floaters(self, ctx: _NetContext) -> tuple[_Members, _Members, _Members]:
        reach = ctx.from_anchors
        ports = ctx.po_ports - ctx.gate_shapes
        diffs = ctx.diff_shapes - ctx.gate_shapes - ctx.po_ports
        return (
            _Members({i: self.shapes[i].owner for i in ctx.gate_shapes}, reach),
            _Members(dict.fromkeys(ports, True), reach),
            _Members({i: self._adjacent_transistors.get(i, ()) for i in diffs}, reach),
        )

    def _map_seg_transistors(self) -> dict[int, tuple[str, ...]]:
        by_owner: dict[str, list] = defaultdict(list)
        for t in self.design.transistors:
            by_owner[t.name.rsplit(".", 1)[0]].append(t)
        mapping: dict[int, tuple[str, ...]] = {}
        for i, shape in enumerate(self.shapes):
            if shape.layer not in _DIFF_LAYERS or not shape.owner:
                continue
            polarity = "n" if shape.layer is Layer.NDIFF else "p"
            names = []
            for t in by_owner.get(shape.owner, ()):
                if t.polarity != polarity:
                    continue
                ch = t.channel
                touches = (
                    abs(ch.llx - shape.urx) < 1e-6 or abs(ch.urx - shape.llx) < 1e-6
                )
                y_overlap = min(ch.ury, shape.ury) - max(ch.lly, shape.lly) > 0
                if touches and y_overlap:
                    names.append(t.name)
            if names:
                mapping[i] = tuple(sorted(names))
        return mapping


def reference_opens(design, statistics: DefectStatistics) -> tuple[FaultList, int]:
    """The per-event open faults of ``design`` and their separated-node count."""
    reference = ReferenceOpens(design, statistics)
    faults = FaultList()
    reference.extract(faults)
    return faults, reference.separated
