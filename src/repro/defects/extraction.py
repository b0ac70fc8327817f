"""Layout fault extraction — the fault-extraction half of the paper's *lift*.

Walks the full-design geometry and produces the weighted realistic fault
list:

* **bridges** from same-layer proximity (facing parallel runs), with
  diffusion bridges across a transistor channel classified as stuck-on
  devices and gate-oxide shorts added per transistor channel area;
* **opens** from wire-segment breaks (each gap between a wire's connection
  points is a separate fault site), missing contacts/vias, broken diffusion
  source/drain segments, and poly gate-stripe breaks — each classified by its
  electrical consequence (floating gate inputs, floating PO observers,
  stuck-open devices, single floating transistor gates).

Every fault's weight is ``density x size-averaged critical area`` (eq. 4's
``w_j = A_j D_j``); behaviourally identical faults aggregate by summing
weights (:class:`repro.defects.fault_types.FaultList`).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro import obs
from repro.defects.critical_area import average_critical_area
from repro.defects.fault_types import (
    BridgeFault,
    FaultList,
    FloatingNetFault,
    TransistorGateOpen,
    TransistorStuckOn,
    TransistorStuckOpen,
)
from repro.defects.separation import Separation
from repro.defects.statistics import (
    LAYER_MECHANISMS,
    DefectMechanism,
    DefectStatistics,
)
from repro.layout.cells import GND, VDD
from repro.layout.design import LayoutDesign
from repro.layout.extract import build_connectivity
from repro.layout.geometry import Layer, Rect
from repro.layout.sweep import GridOrder, facing_spans, rect_arrays, sweep_pairs

__all__ = ["FaultExtractor", "extract_faults", "facing_pairs"]

_SUPPLIES = (VDD, GND)
_DIFF_LAYERS = (Layer.NDIFF, Layer.PDIFF)
_GENERIC_OPEN_LAYERS = (Layer.METAL1, Layer.METAL2)


def extract_faults(
    design: LayoutDesign, statistics: DefectStatistics | None = None
) -> FaultList:
    """One-call extraction: all weighted realistic faults of ``design``."""
    return FaultExtractor(design, statistics or DefectStatistics()).extract()


def facing_pairs(
    shapes: list[Rect], margin: float
) -> tuple[list[tuple[int, int, float, float]], dict[str, int]]:
    """Bridge candidates: same-layer, different-net shapes facing within ``margin``.

    Returns ``(a, b, spacing, run)`` per pair, ``a < b``, in the order
    ``SpatialIndex(shapes).candidate_pairs(margin)`` would yield them, and
    the number of sweep pairs examined per conductor layer.  Candidates come
    from one x sort-and-sweep per conductor layer over its labelled shapes;
    :class:`GridOrder` restores the bucket-grid order (and drops any pair
    the grid would never have offered), so the extracted faults, their merge
    order and every weight stay what the bucket-grid pass produced.
    """
    boxes = rect_arrays(shapes)
    grid = GridOrder(boxes, margin)
    net_ids: dict[str, int] = {}
    net = np.array([net_ids.setdefault(s.net, len(net_ids)) for s in shapes])
    layers = np.array([s.layer.value for s in shapes])
    labelled = np.array([bool(s.net) for s in shapes], dtype=bool)
    examined: dict[str, int] = {}
    kept: list[tuple[np.ndarray, ...]] = []
    for layer in Layer:
        if not layer.is_conductor:
            continue
        members = np.flatnonzero(labelled & (layers == layer.value))
        examined[layer.value] = 0
        for i, j in sweep_pairs(boxes[members, 0], boxes[members, 2], margin):
            examined[layer.value] += len(i)
            a = np.minimum(members[i], members[j])
            b = np.maximum(members[i], members[j])
            faces, spacing, run = facing_spans(boxes, a, b)
            keep = faces & (net[a] != net[b]) & (spacing < margin) & (run > 0)
            a, b, spacing, run = a[keep], b[keep], spacing[keep], run[keep]
            rank = grid.rank(a, b)
            on_grid = rank >= 0
            kept.append(
                (rank[on_grid], a[on_grid], b[on_grid], spacing[on_grid], run[on_grid])
            )
    if not kept:
        return [], examined
    rank, a, b, spacing, run = (np.concatenate(column) for column in zip(*kept))
    order = np.lexsort((b, a, rank))
    pairs = list(
        zip(
            a[order].tolist(),
            b[order].tolist(),
            spacing[order].tolist(),
            run[order].tolist(),
        )
    )
    return pairs, examined


@dataclass
class _NetContext:
    """Per-net working data for open-fault analysis."""

    name: str
    nodes: list[int] = field(default_factory=list)
    adjacency: dict[int, list[int]] = field(default_factory=dict)
    anchors: set[int] = field(default_factory=set)
    gate_shapes: set[int] = field(default_factory=set)
    po_ports: set[int] = field(default_factory=set)
    diff_shapes: set[int] = field(default_factory=set)

    @cached_property
    def from_anchors(self) -> Separation:
        """Which nodes still reach a driver once any one node breaks."""
        return Separation(self.adjacency, self.anchors)

    @cached_property
    def from_sinks(self) -> Separation:
        """Which nodes still reach a gate or PO sink once any one node breaks."""
        return Separation(self.adjacency, self.gate_shapes | self.po_ports)


class FaultExtractor:
    """Stateful extractor bound to one design and one defect-density table."""

    def __init__(self, design: LayoutDesign, statistics: DefectStatistics):
        self.design = design
        self.stats = statistics
        self.size = statistics.size
        self.shapes = design.shapes
        self.graph = build_connectivity(self.shapes)
        self._adjacent_transistors = self._map_seg_transistors()
        self._sd_pair_transistor = self._map_sd_pairs()
        self._instance_of = {t.name: t.name.rsplit(".", 1)[0] for t in design.transistors}
        self._devices_by_gate: dict[str, list] = defaultdict(list)
        for t in design.transistors:
            self._devices_by_gate[t.gate].append(t)
        self._output_of: dict[str, str] = {}
        for net, cell in design.cell_of_net.items():
            self._output_of.setdefault(cell.instance, net)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def extract(self) -> FaultList:
        """Run all extraction passes and return the aggregated fault list."""
        faults = FaultList()
        with obs.span(
            "defects.extract", n_shapes=len(self.shapes)
        ) as extract_span:
            with obs.span("defects.extract.bridges"):
                self.extract_bridges(faults)
            with obs.span("defects.extract.oxide_shorts"):
                self.extract_oxide_shorts(faults)
            with obs.span("defects.extract.opens"):
                self.extract_opens(faults)
            extract_span.set(n_faults=len(faults))
        obs.inc("extraction.faults_extracted", len(faults))
        if obs.is_enabled():
            for fault in faults:
                obs.observe("extraction.weights", fault.weight)
                obs.inc(f"extraction.{type(fault).__name__}")
        return faults

    # ------------------------------------------------------------------
    # Bridge extraction
    # ------------------------------------------------------------------
    def extract_bridges(self, faults: FaultList) -> None:
        """Same-layer proximity bridges (plus channel stuck-on shorts)."""
        pairs, examined = facing_pairs(self.shapes, self.size.x_max)
        accepted: Counter[str] = Counter()
        for ia, ib, spacing, run in pairs:
            a, b = self.shapes[ia], self.shapes[ib]
            mech = LAYER_MECHANISMS[a.layer][0]
            weight = self.stats.density(mech) * average_critical_area(
                run, spacing, self.size
            )
            if weight <= 0:
                continue
            faults.add(self._classify_bridge(a, b, weight, mech))
            accepted[a.layer.value] += 1
        for layer, count in examined.items():
            obs.inc(f"extraction.pairs_examined.{layer}", count)
            obs.inc(f"extraction.pairs_accepted.{layer}", accepted[layer])

    def _classify_bridge(
        self, a: Rect, b: Rect, weight: float, mech: DefectMechanism
    ):
        # A diffusion bridge across a transistor channel conducts regardless
        # of the gate: a stuck-on device, not a node-to-node bridge.
        if (
            a.layer in _DIFF_LAYERS
            and a.owner
            and a.owner == b.owner
        ):
            t_name = self._sd_pair_transistor.get(
                (a.owner, frozenset((a.net, b.net)))
            )
            if t_name is not None:
                return TransistorStuckOn(
                    weight=weight,
                    origin=(mech,),
                    transistor=t_name,
                    instance=a.owner,
                )
        return BridgeFault(weight=weight, origin=(mech,), net_a=a.net, net_b=b.net)

    def extract_oxide_shorts(self, faults: FaultList) -> None:
        """Gate-oxide pinholes: gate net bridged to the channel region.

        Modelled as a bridge between the gate net and the device's most
        external source/drain terminal (drain preferred; falls back through
        source to the driving cell's output net for fully internal devices).
        """
        density = self.stats.density(DefectMechanism.GATE_OXIDE_SHORT)
        if density <= 0:
            return
        for t in self.design.transistors:
            weight = density * t.channel.area
            other = t.drain if "#" not in t.drain else t.source
            if "#" in other:
                other = self._cell_output_of(t.name)
            if other == t.gate:
                continue
            faults.add(
                BridgeFault(
                    weight=weight,
                    origin=(DefectMechanism.GATE_OXIDE_SHORT,),
                    net_a=t.gate,
                    net_b=other,
                )
            )

    # ------------------------------------------------------------------
    # Open extraction
    # ------------------------------------------------------------------
    def extract_opens(self, faults: FaultList) -> None:
        """All open mechanisms, classified per electrical consequence.

        The graph questions ("what floats once this cut or wire breaks?")
        are answered per net by one :class:`Separation` DFS from the net's
        anchors, and one from its sinks for stranded-anchor checks.
        """
        contexts = self._build_net_contexts()
        for ctx in contexts.values():
            self._opens_for_net(ctx, faults)

    # -- net context construction ---------------------------------------
    def _build_net_contexts(self) -> dict[str, _NetContext]:
        contexts: dict[str, _NetContext] = {}
        po_set = set(self.design.mapped.primary_outputs)
        pi_set = set(self.design.mapped.primary_inputs)

        for i, shape in enumerate(self.shapes):
            if not shape.net:
                continue
            ctx = contexts.setdefault(shape.net, _NetContext(name=shape.net))
            ctx.nodes.append(i)
            ctx.adjacency[i] = [
                j for j in self.graph.neighbors(i) if self.shapes[j].net == shape.net
            ]
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
            # Internal cell nets have no anchors; they are handled by the
            # diffusion-segment pass, not the graph pass.
        return contexts

    # -- per-net analysis --------------------------------------------------
    def _opens_for_net(self, ctx: _NetContext, faults: FaultList) -> None:
        internal = "#" in ctx.name
        for i in ctx.nodes:
            shape = self.shapes[i]
            if shape.layer in _DIFF_LAYERS:
                self._diff_open(shape, faults)
            elif shape.layer.is_cut:
                self._cut_open(ctx, i, faults)
            elif shape.layer is Layer.POLY and shape.purpose == "gate":
                self._gate_stripe_opens(i, faults)
            elif shape.layer in _GENERIC_OPEN_LAYERS and not internal:
                self._wire_opens(ctx, i, faults)

    def _diff_open(self, shape: Rect, faults: FaultList) -> None:
        """A broken source/drain segment severs its adjacent devices."""
        mech = LAYER_MECHANISMS[shape.layer][1]
        weight = self.stats.density(mech) * average_critical_area(
            shape.length, shape.min_dimension, self.size
        )
        if weight <= 0:
            return
        affected = self._adjacent_transistors.get(id(shape), ())
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
        """Breaks along a poly gate stripe.

        Connection points: the pin contact plus each transistor channel the
        stripe forms.  A break below the lowest channel floats the whole
        input pin; a break between channels floats only the devices above it.
        """
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
        # Connection intervals along y: contacts first, then channels.
        contacts = [
            (self.shapes[j].lly, self.shapes[j].ury)
            for j in self.graph.neighbors(node)
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
        for lly, ury, device in channels:
            gap = lly - prev_top
            if gap > 0:
                weight = density * average_critical_area(
                    gap, shape.width, self.size
                )
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
        """A missing contact or via."""
        shape = self.shapes[node]
        mech = (
            DefectMechanism.CONTACT_OPEN
            if shape.layer is Layer.CONTACT
            else DefectMechanism.VIA_OPEN
        )
        weight = self.stats.density(mech)
        if weight <= 0 or not ctx.anchors:
            return
        self._emit_open(ctx, ctx.from_anchors.cut_off(node), weight, mech, faults)

    def _wire_opens(self, ctx: _NetContext, node: int, faults: FaultList) -> None:
        """Breaks along a metal wire: one fault per inter-connection gap."""
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
        prev_hi = marks[0][1]
        left: list[int] = [marks[0][2]]
        for lo, hi, j in marks[1:]:
            gap = lo - prev_hi
            if gap > 0:
                weight = density * average_critical_area(
                    gap, shape.min_dimension, self.size
                )
                if weight > 0:
                    right = [m[2] for m in marks if m[2] not in left]
                    self._split_open(ctx, node, left, right, weight, mech, faults)
            left.append(j)
            prev_hi = max(prev_hi, hi)

    def _split_open(
        self,
        ctx: _NetContext,
        node: int,
        left: list[int],
        right: list[int],
        weight: float,
        mech: DefectMechanism,
        faults: FaultList,
    ) -> None:
        """Open splitting ``node`` with its neighbours divided left/right."""
        reach = ctx.from_anchors
        if any(reach.reaches(node, j) for j in left) and any(
            reach.reaches(node, j) for j in right
        ):
            # Both sides independently reach anchors: check for stranded
            # anchor groups that lost every sink (partial drive loss).
            self._stranded_anchor_check(ctx, node, weight, mech, faults)
            return
        # Nodes not reachable from anchors (excluding the broken one) float.
        self._emit_open(ctx, reach.cut_off(node), weight, mech, faults)

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
            devices.update(self._adjacent_transistors.get(id(self.shapes[a]), ()))
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
        floating: set[int],
        weight: float,
        mech: DefectMechanism,
        faults: FaultList,
    ) -> None:
        if not floating:
            return
        obs.inc("extraction.open_nodes_separated", len(floating))
        floating_inputs: set[tuple[str, str]] = set()
        stuck_open: set[str] = set()
        floats_po = False
        for i in floating:
            shape = self.shapes[i]
            if i in ctx.gate_shapes:
                floating_inputs.add((shape.owner, ctx.name))
            elif i in ctx.po_ports:
                floats_po = True
            elif i in ctx.diff_shapes:
                stuck_open.update(self._adjacent_transistors.get(id(shape), ()))
        if not floating_inputs and not stuck_open and not floats_po:
            return
        faults.add(
            FloatingNetFault(
                weight=weight,
                origin=(mech,),
                net=ctx.name,
                floating_inputs=tuple(sorted(floating_inputs)),
                floats_output_port=floats_po,
                stuck_open=tuple(sorted(stuck_open)),
            )
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _map_seg_transistors(self) -> dict[int, tuple[str, ...]]:
        """id(diff shape) -> names of devices horizontally adjacent to it."""
        by_owner: dict[str, list] = defaultdict(list)
        for t in self.design.transistors:
            by_owner[self._instance(t.name)].append(t)
        mapping: dict[int, tuple[str, ...]] = {}
        for shape in self.shapes:
            if shape.layer not in _DIFF_LAYERS or not shape.owner:
                continue
            polarity = "n" if shape.layer is Layer.NDIFF else "p"
            names = []
            for t in by_owner.get(shape.owner, ()):  # pragma: no branch
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
                mapping[id(shape)] = tuple(sorted(names))
        return mapping

    def _map_sd_pairs(self) -> dict[tuple[str, frozenset], str]:
        mapping: dict[tuple[str, frozenset], str] = {}
        for t in self.design.transistors:
            key = (self._instance(t.name), frozenset((t.source, t.drain)))
            mapping.setdefault(key, t.name)
        return mapping

    def _cell_output_of(self, transistor_name: str) -> str:
        return self._output_of.get(self._instance(transistor_name), GND)

    @staticmethod
    def _instance(transistor_name: str) -> str:
        return transistor_name.rsplit(".", 1)[0]

