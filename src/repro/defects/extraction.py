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

The bridge pass works on whole columns of pairs: one weight per distinct
``(layer, run, spacing)``, classification and the merge by behavioural key
as array passes, then one insertion per merged fault.  Faults, their order
and every weight bit equal those of adding each pair's fault in turn.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Generic, TypeVar

import numpy as np

from repro import obs
from repro.defects.critical_area import average_critical_area
from repro.defects.fault_types import (
    BridgeFault,
    FaultList,
    FloatingNetFault,
    RealisticFault,
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
from repro.layout.extract import connectivity_edges, neighbour_lists
from repro.layout.geometry import Layer, Rect
from repro.layout.sweep import GridOrder, facing_spans, rect_arrays, sweep_pairs

__all__ = ["FaultExtractor", "extract_faults", "facing_pairs"]

_SUPPLIES = (VDD, GND)
_DIFF_LAYERS = (Layer.NDIFF, Layer.PDIFF)
_GENERIC_OPEN_LAYERS = (Layer.METAL1, Layer.METAL2)
_LAYERS = tuple(Layer)
#: Mechanisms in value order: merged origins sort by code.
_MECHANISMS = tuple(sorted(DefectMechanism, key=lambda m: m.value))
#: Layer code -> code of its short mechanism (-1 for non-conductors).
_SHORT_CODE = np.array(
    [
        _MECHANISMS.index(LAYER_MECHANISMS[layer][0]) if layer.is_conductor else -1
        for layer in _LAYERS
    ]
)

#: Facing pairs as columns: ``a``, ``b`` (shape indices, ``a < b``),
#: ``spacing`` and ``run``.
PairColumns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

T = TypeVar("T")
#: Shapes cut off, and the effect of a floating-net fault (None: no sink).
_Floating = tuple[int, tuple[tuple[tuple[str, str], ...], bool, tuple[str, ...]] | None]


def extract_faults(
    design: LayoutDesign, statistics: DefectStatistics | None = None
) -> FaultList:
    """One-call extraction: all weighted realistic faults of ``design``."""
    return FaultExtractor(design, statistics or DefectStatistics()).extract()


def facing_pairs(
    shapes: list[Rect], margin: float
) -> tuple[PairColumns, dict[str, int]]:
    """Bridge candidates: same-layer, different-net shapes facing within ``margin``.

    Returns the columns ``(a, b, spacing, run)``, ``a < b``, in the order
    ``SpatialIndex(shapes).candidate_pairs(margin)`` would yield the pairs,
    and the number of sweep pairs examined per conductor layer.  Candidates
    come from one x sort-and-sweep per conductor layer over its labelled
    shapes.  Same-net pairs and pairs whose 1-D y gap reaches ``margin`` are
    dropped before the facing test: the spacing of a y-separated pair is at
    least that gap, so no kept pair is lost.  :class:`GridOrder` restores the
    bucket-grid order (and drops any pair the grid would never have offered),
    so the extracted faults, their merge order and every weight stay what the
    bucket-grid pass produced.
    """
    boxes = rect_arrays(shapes)
    lly, ury = boxes[:, 1], boxes[:, 3]
    grid = GridOrder(boxes, margin)
    net_ids: dict[str, int] = {}
    net = np.array([net_ids.setdefault(s.net, len(net_ids)) for s in shapes])
    code = {layer: k for k, layer in enumerate(_LAYERS)}
    layers = np.array([code[s.layer] for s in shapes], dtype=np.int64)
    labelled = np.array([bool(s.net) for s in shapes], dtype=bool)
    examined: dict[str, int] = {}
    kept: list[tuple[np.ndarray, ...]] = [
        (np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),) * 2
    ]
    for layer in _LAYERS:
        if not layer.is_conductor:
            continue
        members = np.flatnonzero(labelled & (layers == code[layer]))
        bottom, top, on = lly[members], ury[members], net[members]
        examined[layer.value] = 0
        for i, j in sweep_pairs(boxes[members, 0], boxes[members, 2], margin):
            examined[layer.value] += len(i)
            # Symmetric in i and j, so it runs before the pairs are ordered.
            near = (bottom[j] - top[i] < margin) & (bottom[i] - top[j] < margin)
            i, j = i[near], j[near]
            near = on[i] != on[j]
            i, j = members[i[near]], members[j[near]]
            a, b = np.minimum(i, j), np.maximum(i, j)
            faces, spacing, run = facing_spans(boxes, a, b)
            keep = faces & (spacing < margin) & (run > 0)
            a, b, spacing, run = a[keep], b[keep], spacing[keep], run[keep]
            rank = grid.rank(a, b)
            on_grid = rank >= 0
            kept.append(
                (rank[on_grid], a[on_grid], b[on_grid], spacing[on_grid], run[on_grid])
            )
    rank, a, b, spacing, run = (np.concatenate(column) for column in zip(*kept))
    order = np.lexsort((b, a, rank))
    return (a[order], b[order], spacing[order], run[order]), examined


class _Members(Generic[T]):
    """Values of one class of a net's shapes, in DFS preorder of the shapes.

    Shapes the DFS never reached are kept apart: they float whatever is
    removed.
    """

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
        """Values of the members inside the preorder ranges or never reached."""
        found = (
            [value for i, value in self.unreached if i != removed]
            if self.unreached
            else []
        )
        for lo, hi in zip(starts, stops):
            found += self.values[
                bisect_left(self.positions, lo) : bisect_left(self.positions, hi)
            ]
        return found


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
    #: Gate-pin owners, PO ports and diffusion devices; see ``_floaters``.
    floaters: tuple[_Members, _Members, _Members] | None = None
    #: Removed node -> what breaking it floats; see ``_floating``.
    floating: dict[int, _Floating] = field(default_factory=dict)

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
        self._connected = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def extract(self) -> FaultList:
        """Run all extraction passes and return the aggregated fault list."""
        faults = FaultList()
        with obs.span(
            "defects.extract", n_shapes=len(self.shapes)
        ) as extract_span:
            with obs.span("defects.extract.connectivity"):
                self._connect()
            with obs.span("defects.extract.bridges"):
                self.extract_bridges(faults)
            with obs.span("defects.extract.oxide_shorts"):
                self.extract_oxide_shorts(faults)
            with obs.span("defects.extract.opens"):
                self.extract_opens(faults)
            extract_span.set(n_faults=len(faults))
            obs.inc("extraction.faults_extracted", len(faults))
            registry = obs.registry()
            if registry is not None:
                weights = registry.histogram("extraction.weights")
                for fault in faults:
                    weights.observe(fault.weight)
                for name, count in Counter(type(f).__name__ for f in faults).items():
                    obs.inc(f"extraction.{name}", count)
        return faults

    # ------------------------------------------------------------------
    # Bridge extraction
    # ------------------------------------------------------------------
    def extract_bridges(self, faults: FaultList) -> None:
        """Same-layer proximity bridges (plus channel stuck-on shorts)."""
        self._connect()
        (a, b, spacing, run), examined = facing_pairs(self.shapes, self.size.x_max)
        layer = self._layer[a]
        weight = self._bridge_weights(layer, spacing, run)
        keep = weight > 0
        a, b, layer, weight = a[keep], b[keep], layer[keep], weight[keep]
        accepted = np.bincount(layer, minlength=len(_LAYERS)).tolist()
        for name, count in examined.items():
            obs.inc(f"extraction.pairs_examined.{name}", count)
            obs.inc(
                f"extraction.pairs_accepted.{name}",
                accepted[_LAYERS.index(Layer(name))],
            )
        self._merge_bridges(a, b, layer, weight, faults)

    def _bridge_weights(
        self, layer: np.ndarray, spacing: np.ndarray, run: np.ndarray
    ) -> np.ndarray:
        """``density x average_critical_area`` of every pair.

        The scalar function runs once per distinct ``(layer, run, spacing)``,
        keyed by the floats' bits, so every weight is the one a call per pair
        returns.
        """
        bits = (spacing.view(np.int64), run.view(np.int64), layer)
        order = np.lexsort(bits)
        starts = np.zeros(len(order), dtype=bool)
        starts[:1] = True
        for column in bits:
            ordered = column[order]
            starts[1:] |= ordered[1:] != ordered[:-1]
        first = order[starts]
        inverse = np.empty_like(order)
        inverse[order] = np.cumsum(starts) - 1
        weights = [
            self.stats.density(_MECHANISMS[code])
            * average_critical_area(length, gap, self.size)
            for code, length, gap in zip(
                _SHORT_CODE[layer[first]].tolist(),
                run[first].tolist(),
                spacing[first].tolist(),
            )
        ]
        return np.array(weights, dtype=np.float64)[inverse]

    def _merge_bridges(
        self,
        a: np.ndarray,
        b: np.ndarray,
        layer: np.ndarray,
        weight: np.ndarray,
        faults: FaultList,
    ) -> None:
        """Add one fault per behavioural key of the accepted pairs.

        A pair's key number is its unordered net pair, or, past every net
        pair, the device whose channel a same-owner diffusion pair shorts (a
        stuck-on device rather than a node-to-node bridge).  Keys come in
        order of first appearance.  Each weight is the left fold of its
        pairs' weights in pair order (``np.add.at`` applies them in index
        order), each origin the value-sorted set of their mechanisms.  Into
        an empty list this adds exactly what adding every pair's fault in
        turn would; a key already in ``faults`` gets its pairs' sum at once.
        """
        n_nets = self._n_nets
        net_a, net_b = self._net[a], self._net[b]
        key = np.minimum(net_a, net_b) * n_nets + np.maximum(net_a, net_b)
        owner = self._owner[a]
        channel = self._diffusion[a] & (owner >= 0) & (owner == self._owner[b])
        for k in np.flatnonzero(channel).tolist():
            sa, sb = self.shapes[a[k]], self.shapes[b[k]]
            device = self._sd_pair_transistor.get(
                (sa.owner, frozenset((sa.net, sb.net)))
            )
            if device is not None:
                key[k] = n_nets * n_nets + device
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        by_appearance = np.argsort(first)
        group = np.empty_like(by_appearance)
        group[by_appearance] = np.arange(len(by_appearance))
        group = group[inverse]
        total = np.zeros(len(by_appearance))
        np.add.at(total, group, weight)
        n_mech = len(_MECHANISMS)
        origins: list[list[DefectMechanism]] = [[] for _ in by_appearance]
        for code in np.unique(group * n_mech + _SHORT_CODE[layer]).tolist():
            origins[code // n_mech].append(_MECHANISMS[code % n_mech])
        firsts = first[by_appearance]
        for w, origin, ia, ib, k in zip(
            total.tolist(),
            origins,
            a[firsts].tolist(),
            b[firsts].tolist(),
            key[firsts].tolist(),
        ):
            sa, sb = self.shapes[ia], self.shapes[ib]
            if k >= n_nets * n_nets:
                fault: RealisticFault = TransistorStuckOn(
                    weight=w,
                    origin=tuple(origin),
                    transistor=self.design.transistors[k - n_nets * n_nets].name,
                    instance=sa.owner,
                )
            else:
                fault = BridgeFault(
                    weight=w, origin=tuple(origin), net_a=sa.net, net_b=sb.net
                )
            faults.add(fault)

    def extract_oxide_shorts(self, faults: FaultList) -> None:
        """Gate-oxide pinholes: gate net bridged to the channel region.

        Modelled as a bridge between the gate net and the device's most
        external source/drain terminal (drain preferred; falls back through
        source to the driving cell's output net for fully internal devices).
        """
        density = self.stats.density(DefectMechanism.GATE_OXIDE_SHORT)
        if density <= 0:
            return
        self._connect()
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
        self._connect()
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
            # Internal cell nets have no anchors; they are handled by the
            # diffusion-segment pass, not the graph pass.
        return contexts

    # -- per-net analysis --------------------------------------------------
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
        """A broken source/drain segment severs its adjacent devices."""
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
        self._emit_open(ctx, node, weight, mech, faults)

    def _wire_opens(self, ctx: _NetContext, node: int, faults: FaultList) -> None:
        """Breaks along a metal wire: one fault per inter-connection gap.

        A gap splits the wire's connections into those before and after it.
        When both sides still reach an anchor with the wire broken, only
        stranded anchors can lose drive; otherwise what the break cuts off
        floats.
        """
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
        """The open floating what breaking ``removed`` cuts off the anchors."""
        separated, effect = self._floating(ctx, removed)
        if separated:
            obs.inc("extraction.open_nodes_separated", separated)
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
        """What breaking ``removed`` cuts off ``ctx``'s anchors, memoised.

        The count of cut-off shapes, and the ``(floating_inputs,
        floats_output_port, stuck_open)`` of a :class:`FloatingNetFault`, or
        None when no sink floats.  The cut-off shapes are preorder ranges of
        ``ctx.from_anchors`` plus the shapes no anchor reaches; each class of
        sink is found by bisecting its sorted positions, never by walking
        the ranges.
        """
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
        """Owners of gate pins, then other PO ports, then devices of other
        diffusion shapes, each in ``ctx.from_anchors`` preorder."""
        reach = ctx.from_anchors
        ports = ctx.po_ports - ctx.gate_shapes
        diffs = ctx.diff_shapes - ctx.gate_shapes - ctx.po_ports
        return (
            _Members({i: self.shapes[i].owner for i in ctx.gate_shapes}, reach),
            _Members(dict.fromkeys(ports, True), reach),
            _Members({i: self._adjacent_transistors.get(i, ()) for i in diffs}, reach),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        """Build the connectivity and device maps, once."""
        if self._connected:
            return
        shapes, n = self.shapes, len(self.shapes)
        net_ids: dict[str, int] = {}
        self._net = np.array(
            [net_ids.setdefault(s.net, len(net_ids)) for s in shapes], dtype=np.int64
        )
        self._n_nets = len(net_ids)
        owner_ids: dict[str, int] = {}
        self._owner = np.array(
            [
                owner_ids.setdefault(s.owner, len(owner_ids)) if s.owner else -1
                for s in shapes
            ],
            dtype=np.int64,
        )
        layer_ids = {layer: k for k, layer in enumerate(_LAYERS)}
        self._layer = np.array([layer_ids[s.layer] for s in shapes], dtype=np.int64)
        self._diffusion = np.isin(self._layer, [layer_ids[x] for x in _DIFF_LAYERS])
        labelled = np.array([bool(s.net) for s in shapes], dtype=bool)
        edges = connectivity_edges(shapes)
        a, b = edges[:, 0], edges[:, 1]
        same_net = labelled[a] & (self._net[a] == self._net[b])
        self._net_neighbours = neighbour_lists(n, edges[same_net])
        self._instance_of = {
            t.name: t.name.rsplit(".", 1)[0] for t in self.design.transistors
        }
        self._devices_by_gate: dict[str, list] = defaultdict(list)
        for t in self.design.transistors:
            self._devices_by_gate[t.gate].append(t)
        self._output_of: dict[str, str] = {}
        for net, cell in self.design.cell_of_net.items():
            self._output_of.setdefault(cell.instance, net)
        self._adjacent_transistors = self._map_seg_transistors()
        self._sd_pair_transistor = self._map_sd_pairs()
        self._neighbours = neighbour_lists(n, edges)
        self._connected = True

    def _map_seg_transistors(self) -> dict[int, tuple[str, ...]]:
        """Diffusion shape index -> names of devices horizontally adjacent."""
        by_owner: dict[str, list] = defaultdict(list)
        for t in self.design.transistors:
            by_owner[self._instance(t.name)].append(t)
        mapping: dict[int, tuple[str, ...]] = {}
        for i, shape in enumerate(self.shapes):
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
                mapping[i] = tuple(sorted(names))
        return mapping

    def _map_sd_pairs(self) -> dict[tuple[str, frozenset], int]:
        """(instance, {source, drain}) -> index of the first such device."""
        mapping: dict[tuple[str, frozenset], int] = {}
        for k, t in enumerate(self.design.transistors):
            key = (self._instance(t.name), frozenset((t.source, t.drain)))
            mapping.setdefault(key, k)
        return mapping

    def _cell_output_of(self, transistor_name: str) -> str:
        return self._output_of.get(self._instance(transistor_name), GND)

    @staticmethod
    def _instance(transistor_name: str) -> str:
        return transistor_name.rsplit(".", 1)[0]

