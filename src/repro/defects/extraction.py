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

Both passes work on whole columns of events read off the layout's
:class:`~repro.layout.sweep.ShapeColumns`: one weight per distinct
``(mechanism, length, width)``, classification and the merge by behavioural
key as array passes, then one insertion per merged fault.  Faults, their
order and every weight bit equal those of adding each event's fault in
turn.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

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
from repro.layout.geometry import Layer
from repro.layout.sweep import (
    LAYERS,
    GridOrder,
    ShapeColumns,
    facing_spans,
    sweep_pairs,
)

__all__ = ["FaultExtractor", "extract_faults", "facing_pairs"]

_SUPPLIES = (VDD, GND)
_DIFF_LAYERS = (Layer.NDIFF, Layer.PDIFF)
_NDIFF = LAYERS.index(Layer.NDIFF)
#: Mechanisms in value order: merged origins sort by code.
_MECHANISMS = tuple(sorted(DefectMechanism, key=lambda m: m.value))
#: Layer code -> code of its short / open mechanism (-1 for non-conductors).
_SHORT_CODE, _OPEN_CODE = (
    np.array(
        [
            _MECHANISMS.index(LAYER_MECHANISMS[layer][kind])
            if layer.is_conductor
            else -1
            for layer in LAYERS
        ]
    )
    for kind in (0, 1)
)
#: Cut layer code -> code of its missing-cut mechanism.
_CUT_CODE = {
    LAYERS.index(Layer.CONTACT): _MECHANISMS.index(DefectMechanism.CONTACT_OPEN),
    LAYERS.index(Layer.VIA): _MECHANISMS.index(DefectMechanism.VIA_OPEN),
}

#: Facing pairs as columns: ``a``, ``b`` (shape indices, ``a < b``),
#: ``spacing`` and ``run``.
PairColumns = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def extract_faults(
    design: LayoutDesign, statistics: DefectStatistics | None = None
) -> FaultList:
    """One-call extraction: all weighted realistic faults of ``design``."""
    return FaultExtractor(design, statistics or DefectStatistics()).extract()


def facing_pairs(
    columns: ShapeColumns, margin: float
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
    boxes, net = columns.boxes, columns.net
    lly, ury = boxes[:, 1], boxes[:, 3]
    grid = GridOrder(boxes, margin)
    examined: dict[str, int] = {}
    kept: list[tuple[np.ndarray, ...]] = [
        (np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),) * 2
    ]
    for code, layer in enumerate(LAYERS):
        if not layer.is_conductor:
            continue
        members = np.flatnonzero(columns.labelled & (columns.layer == code))
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


def _fold(
    key: np.ndarray, weight: np.ndarray, mech: np.ndarray
) -> tuple[list[int], list[float], list[tuple[DefectMechanism, ...]]]:
    """Merge events by ``key``, keys in order of first appearance.

    Returns each key's first event, the left fold of its events' weights in
    event order (``np.add.at`` applies them in index order, so each sum
    equals sequential ``+=``) and the value-sorted set of its events'
    mechanisms.  Adding one fault per key built from these to an empty
    :class:`FaultList` gives exactly what adding every event's fault in
    turn would.
    """
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first)
    group = np.empty_like(by_appearance)
    group[by_appearance] = np.arange(len(by_appearance))
    group = group[inverse.reshape(-1)]
    total = np.zeros(len(by_appearance))
    np.add.at(total, group, weight)
    n_mech = len(_MECHANISMS)
    origins: list[list[DefectMechanism]] = [[] for _ in by_appearance]
    for code in np.unique(group * n_mech + mech).tolist():
        origins[code // n_mech].append(_MECHANISMS[code % n_mech])
    return (
        first[by_appearance].tolist(),
        total.tolist(),
        [tuple(origin) for origin in origins],
    )


def _running_max(values: np.ndarray, segment: np.ndarray) -> np.ndarray:
    """Inclusive running maximum of ``values`` within each segment.

    ``segment`` is non-decreasing.  The maximum runs over value ranks, so
    every result is one of the input floats, bit for bit.
    """
    n = len(values)
    by_value = np.argsort(values, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_value] = np.arange(n)
    offset = segment.astype(np.int64) * n
    return values[by_value[np.maximum.accumulate(offset + rank) - offset]]


def _spans(counts: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, index)`` rows: ``starts[k] + 0 .. counts[k]-1`` for every ``k``."""
    owner = np.repeat(np.arange(len(counts)), counts)
    offset = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return owner, starts[owner] + offset


def _pairs_by_key(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``(i, j)`` with ``left[i] == right[j]``, by ``i``, then ``j``."""
    by_key = np.argsort(right, kind="stable")
    keys = right[by_key]
    lo = np.searchsorted(keys, left, side="left")
    hi = np.searchsorted(keys, left, side="right")
    i, k = _spans(hi - lo, lo)
    return i, by_key[k]


def _segments(first: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(segment, starts, ends)`` of the runs that begin where ``first``."""
    segment = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    return segment, starts, np.append(starts[1:], len(first))


class _Specs:
    """The distinct faults open events build, and their behavioural keys.

    A spec is ``("open", net, floating_inputs, floats_output_port,
    stuck_open)``, ``("t-open", transistors, instance)`` or ``("g-open",
    transistor, instance)``; its key drops the instance.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple, int] = {}
        self._keys: dict[tuple, int] = {}
        self.specs: list[tuple] = []
        #: Spec id -> key id.
        self.key: list[int] = []

    def id(self, spec: tuple) -> int:
        found = self._ids.get(spec)
        if found is None:
            found = self._ids[spec] = len(self.specs)
            self.specs.append(spec)
            key = spec if spec[0] == "open" else spec[:2]
            self.key.append(self._keys.setdefault(key, len(self._keys)))
        return found

    def fault(
        self, spec_id: int, weight: float, origin: tuple[DefectMechanism, ...]
    ) -> RealisticFault:
        kind, *fields = self.specs[spec_id]
        if kind == "open":
            net, floating_inputs, floats_po, stuck_open = fields
            return FloatingNetFault(
                weight=weight,
                origin=origin,
                net=net,
                floating_inputs=floating_inputs,
                floats_output_port=floats_po,
                stuck_open=stuck_open,
            )
        if kind == "t-open":
            transistors, instance = fields
            return TransistorStuckOpen(
                weight=weight, origin=origin, transistors=transistors, instance=instance
            )
        transistor, instance = fields
        return TransistorGateOpen(
            weight=weight, origin=origin, transistor=transistor, instance=instance
        )


@dataclass
class _OpenEvents:
    """Every open event as columns, from the graph pass.

    An event is one fault site: a diffusion segment, a cut, a gap along a
    wire or along a gate stripe; ``sub`` orders a shape's events along it.
    ``length``/``width`` give its critical area; ``per_cut`` events weigh
    their mechanism's density alone.  ``spec`` is -1 for an event that adds
    no fault; ``separated`` is what it adds to
    ``extraction.open_nodes_separated``.
    """

    shape: np.ndarray
    sub: np.ndarray
    mech: np.ndarray
    length: np.ndarray
    width: np.ndarray
    per_cut: np.ndarray
    spec: np.ndarray
    separated: np.ndarray
    specs: _Specs


def _events(shape, sub, mech, length, width, per_cut, spec, separated) -> tuple:
    """One event class's columns, scalars broadcast to its length."""
    n = len(shape)

    def column(value, dtype):
        return np.broadcast_to(np.asarray(value, dtype=dtype), (n,))

    return (
        np.asarray(shape, dtype=np.int64),
        column(sub, np.int64),
        column(mech, np.int64),
        column(length, np.float64),
        column(width, np.float64),
        column(per_cut, bool),
        column(spec, np.int64),
        column(separated, np.int64),
    )


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
        (a, b, spacing, run), examined = facing_pairs(self.columns, self.size.x_max)
        layer = self.columns.layer[a]
        weight = self._critical_weights(_SHORT_CODE[layer], run, spacing)
        keep = weight > 0
        a, b, layer, weight = a[keep], b[keep], layer[keep], weight[keep]
        accepted = np.bincount(layer, minlength=len(LAYERS)).tolist()
        for name, count in examined.items():
            obs.inc(f"extraction.pairs_examined.{name}", count)
            obs.inc(
                f"extraction.pairs_accepted.{name}",
                accepted[LAYERS.index(Layer(name))],
            )
        self._merge_bridges(a, b, layer, weight, faults)

    def _critical_weights(
        self, mech: np.ndarray, length: np.ndarray, width: np.ndarray
    ) -> np.ndarray:
        """``density(mech) x average_critical_area(length, width)`` per row.

        The scalar function runs once per distinct ``(mech, length, width)``,
        keyed by the floats' bits, so every weight is the one a call per row
        returns.
        """
        bits = (width.view(np.int64), length.view(np.int64), mech)
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
            * average_critical_area(run, gap, self.size)
            for code, run, gap in zip(
                mech[first].tolist(), length[first].tolist(), width[first].tolist()
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
        stuck-on device rather than a node-to-node bridge).  :func:`_fold`
        merges the pairs in pair order; a key already in ``faults`` gets its
        pairs' sum at once.
        """
        cols = self.columns
        n_nets = len(cols.nets)
        net_a, net_b = cols.net[a], cols.net[b]
        key = np.minimum(net_a, net_b) * n_nets + np.maximum(net_a, net_b)
        owner = cols.owner[a]
        channel = self._diffusion[a] & (owner >= 0) & (owner == cols.owner[b])
        for k in np.flatnonzero(channel).tolist():
            pair = frozenset((cols.nets[net_a[k]], cols.nets[net_b[k]]))
            device = self._sd_pair_transistor.get((cols.owners[owner[k]], pair))
            if device is not None:
                key[k] = n_nets * n_nets + device
        firsts, totals, origins = _fold(key, weight, _SHORT_CODE[layer])
        for w, origin, ia, ib, kk in zip(
            totals, origins, a[firsts].tolist(), b[firsts].tolist(), key[firsts].tolist()
        ):
            sa, sb = self.shapes[ia], self.shapes[ib]
            if kk >= n_nets * n_nets:
                fault: RealisticFault = TransistorStuckOn(
                    weight=w,
                    origin=origin,
                    transistor=self.design.transistors[kk - n_nets * n_nets].name,
                    instance=sa.owner,
                )
            else:
                fault = BridgeFault(
                    weight=w, origin=origin, net_a=sa.net, net_b=sb.net
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

        Three passes over columns of events: the graph pass enumerates the
        events and classifies what each one floats, the weight pass gives
        each its ``density x critical area``, and the merge pass adds one
        fault per behavioural key in event order: nets by first appearance,
        then shape index, then position along the shape.
        """
        self._connect()
        with obs.span("defects.extract.opens.graph"):
            events = self._open_events()
        with obs.span("defects.extract.opens.weights"):
            weight = np.zeros(len(events.shape))
            scaled = ~events.per_cut
            weight[scaled] = self._critical_weights(
                events.mech[scaled], events.length[scaled], events.width[scaled]
            )
            density = np.array([self.stats.density(m) for m in _MECHANISMS])
            weight[events.per_cut] = density[events.mech[events.per_cut]]
        with obs.span("defects.extract.opens.merge"):
            shape = events.shape
            order = np.lexsort((events.sub, shape, self.columns.net[shape]))
            order = order[weight[order] > 0]
            separated = int(events.separated[order].sum())
            if separated:
                obs.inc("extraction.open_nodes_separated", separated)
            order = order[events.spec[order] >= 0]
            spec = events.spec[order]
            specs = events.specs
            key = np.array(specs.key, dtype=np.int64)[spec]
            firsts, totals, origins = _fold(key, weight[order], events.mech[order])
            spec_ids = spec.tolist()
            for k, w, origin in zip(firsts, totals, origins):
                faults.add(specs.fault(spec_ids[k], w, origin))

    def _open_events(self) -> _OpenEvents:
        """The graph pass: every open event and the fault it adds.

        Anchors (a net's drivers) and sinks (its gate pins and PO ports) are
        column masks.  One :class:`Separation` DFS over every anchored net
        answers what each break cuts off the anchors.
        """
        cols = self.columns
        net, owner, labelled = cols.net, cols.owner, cols.labelled
        mapped = self.design.mapped
        pi_set, po_set = set(mapped.primary_inputs), set(mapped.primary_outputs)
        owner_index = {name: k for k, name in enumerate(cols.owners)}
        drivers = self.design.cell_of_net
        # Per net: 1 supply, 2 primary input, else driven by driver_owner.
        kind = np.array(
            [1 if name in _SUPPLIES else 2 if name in pi_set else 3 for name in cols.nets],
            dtype=np.int64,
        )
        driver_owner = np.array(
            [
                owner_index.get(drivers[name].instance, -2) if name in drivers else -2
                for name in cols.nets
            ],
            dtype=np.int64,
        )
        port = labelled & cols.with_purpose("port")
        gate = labelled & cols.with_purpose("gate")
        po_net = np.array([name in po_set for name in cols.nets], dtype=bool)
        po_port = port & po_net[net]
        owned_diff = labelled & self._diffusion & (owner >= 0)
        net_kind = kind[net]
        anchor = (
            ((net_kind == 1) & labelled & cols.on_layers(Layer.METAL2) & (owner < 0))
            | ((net_kind == 2) & port)
            | ((net_kind == 3) & owned_diff & (owner == driver_owner[net]))
        )
        anchored = labelled & (np.bincount(net[anchor], minlength=len(cols.nets)) > 0)[net]
        reach = self._separation(anchored, anchor)
        specs = _Specs()
        effects = _Effects(self, reach, anchored, gate, po_port, owned_diff, specs)
        parts = [
            self._diff_events(specs),
            self._cut_events(anchored, effects),
            self._stripe_events(gate, specs),
            self._wire_events(anchored, anchor, gate | po_port, effects, specs),
        ]
        return _OpenEvents(*(np.concatenate(c) for c in zip(*parts)), specs=specs)

    def _separation(self, nodes: np.ndarray, roots: np.ndarray) -> Separation:
        """One DFS over the same-net graph of ``nodes``, from ``roots``."""
        neighbours = self._net_neighbours
        return Separation(
            {i: neighbours[i] for i in np.flatnonzero(nodes).tolist()},
            np.flatnonzero(nodes & roots).tolist(),
        )

    def _diff_events(self, specs: _Specs) -> tuple:
        """A broken source/drain segment severs its adjacent devices."""
        cols = self.columns
        idx = np.flatnonzero(cols.labelled & self._diffusion)
        box = cols.boxes[idx]
        w, h = box[:, 2] - box[:, 0], box[:, 3] - box[:, 1]
        spec = [
            specs.id(("t-open", affected, cols.owners[o]))
            if (affected := self._adjacent_transistors.get(i))
            else -1
            for i, o in zip(idx.tolist(), cols.owner[idx].tolist())
        ]
        mech = _OPEN_CODE[cols.layer[idx]]
        return _events(idx, 0, mech, np.maximum(w, h), np.minimum(w, h), False, spec, 0)

    def _cut_events(self, anchored: np.ndarray, effects: _Effects) -> tuple:
        """A missing contact or via floats what it cuts off the anchors."""
        layer = self.columns.layer
        idx = np.flatnonzero(anchored & np.isin(layer, list(_CUT_CODE)))
        mech = [_CUT_CODE[code] for code in layer[idx].tolist()]
        spec, separated = effects.of(idx)
        return _events(idx, 0, mech, 0.0, 0.0, True, spec, separated)

    def _stripe_events(self, gate: np.ndarray, specs: _Specs) -> tuple:
        """Breaks along a poly gate stripe.

        Connection points: the pin contacts plus each transistor channel the
        stripe holds.  A break below the lowest channel floats the whole
        input pin; a break between channels floats only the devices above
        it.
        """
        cols = self.columns
        boxes = cols.boxes
        stripe = gate & cols.on_layers(Layer.POLY)
        devices = self.design.transistors
        # The highest top of the contacts on each stripe.
        a, b = self._edges[:, 0], self._edges[:, 1]
        contact = cols.on_layers(Layer.CONTACT)
        down, up = stripe[a] & contact[b], stripe[b] & contact[a]
        s = np.concatenate((a[down], b[up]))
        top = np.full(len(cols), -np.inf)
        np.maximum.at(top, s, boxes[np.concatenate((b[down], a[up])), 3])
        stripes = np.flatnonzero(stripe & (top > -np.inf))
        # Devices gated by the stripe's net, in netlist order, inside it.
        net_id = {name: k for k, name in enumerate(cols.nets)}
        gate_of = np.array([net_id.get(t.gate, -1) for t in devices], dtype=np.int64)
        channel = self._channels
        row, t = _pairs_by_key(cols.net[stripes], gate_of)
        s = stripes[row]
        box, ch = boxes[s], channel[t]
        inside = (
            (ch[:, 0] >= box[:, 0] - 1e-9)
            & (ch[:, 2] <= box[:, 2] + 1e-9)
            & (ch[:, 1] >= box[:, 1] - 1e-9)
            & (ch[:, 3] <= box[:, 3] + 1e-9)
        )
        s, t = s[inside], t[inside]
        # The pin's instance is that of the stripe's first device.
        first = np.ones(len(s), dtype=bool)
        first[1:] = s[1:] != s[:-1]
        pin_device = t[first]
        # Channels bottom-up (ties in netlist order); a break sits below
        # each channel, above the contacts and every lower channel.
        order = np.lexsort((t, channel[t, 1], s))
        s, t = s[order], t[order]
        segment, starts, ends = _segments(first)
        at = np.arange(len(s)) - starts[segment]
        lower = _running_max(channel[t, 3], segment)
        below = top[s]
        later = np.flatnonzero(at > 0)
        below[later] = np.maximum(below[later], lower[later - 1])
        gap = channel[t, 1] - below
        hit = np.flatnonzero(gap > 0)
        names = [device.name for device in devices]
        spec = []
        for k in hit.tolist():
            seg, name = segment[k], cols.nets[cols.net[s[k]]]
            instance = self._instance(names[pin_device[seg]])
            if at[k] == 0:
                spec.append(specs.id(("open", name, ((instance, name),), False, ())))
            elif ends[seg] - k == 1:
                spec.append(specs.id(("g-open", names[t[k]], instance)))
            else:
                above = tuple(sorted(names[x] for x in t[k : ends[seg]].tolist()))
                spec.append(specs.id(("t-open", above, instance)))
        width = boxes[s[hit], 2] - boxes[s[hit], 0]
        mech = _MECHANISMS.index(DefectMechanism.POLY_OPEN)
        return _events(s[hit], at[hit], mech, gap[hit], width, False, spec, 0)

    def _wire_events(
        self,
        anchored: np.ndarray,
        anchor: np.ndarray,
        sink: np.ndarray,
        effects: _Effects,
        specs: _Specs,
    ) -> tuple:
        """Breaks along a metal wire: one event per inter-connection gap.

        A gap splits the wire's connections, sorted along it, into those
        before and after it.  When both sides still reach an anchor with the
        wire broken, only stranded anchors can lose drive; otherwise what
        the break cuts off floats.
        """
        cols = self.columns
        boxes, net = cols.boxes, cols.net
        internal = np.array(["#" in name for name in cols.nets], dtype=bool)
        wire = anchored & cols.on_layers(Layer.METAL1, Layer.METAL2) & ~internal[net]
        a, b = self._net_edges[:, 0], self._net_edges[:, 1]
        src, dst = np.concatenate((a, b)), np.concatenate((b, a))
        keep = wire[src]
        src, dst = src[keep], dst[keep]
        keep = np.bincount(src, minlength=len(cols))[src] >= 2
        src, dst = src[keep], dst[keep]
        # Each connection's span along the wire, sorted by where it starts
        # (ties in neighbour order).
        w, h = boxes[src, 2] - boxes[src, 0], boxes[src, 3] - boxes[src, 1]
        axis = np.where(w >= h, 0, 1)
        lo = np.maximum(boxes[dst, axis], boxes[src, axis])
        hi = np.minimum(boxes[dst, axis + 2], boxes[src, axis + 2])
        order = np.lexsort((dst, lo, src))
        src, dst, lo, hi = src[order], dst[order], lo[order], hi[order]
        first = np.ones(len(src), dtype=bool)
        first[1:] = src[1:] != src[:-1]
        segment, starts, ends = _segments(first)
        covered = _running_max(hi, segment)
        gap = np.full(len(src), -np.inf)
        later = np.flatnonzero(~first)
        gap[later] = lo[later] - covered[later - 1]
        hit = np.flatnonzero(gap > 0)
        # Which connections still reach an anchor with the wire broken.
        pos = effects.pos
        alive = np.concatenate(([0], np.cumsum(effects.reach.survives(pos[src], pos[dst]))))
        seg = segment[hit]
        stranded = (alive[hit] > alive[starts[seg]]) & (alive[ends[seg]] > alive[hit])
        removed = src[hit]
        spec = np.full(len(hit), -1, dtype=np.int64)
        separated = np.zeros(len(hit), dtype=np.int64)
        spec[~stranded], separated[~stranded] = effects.of(removed[~stranded])
        has_sink = np.bincount(net[sink], minlength=len(cols.nets)) > 0
        checked = stranded & has_sink[net[removed]]
        if checked.any():
            spec[checked] = self._stranded(removed[checked], anchor, sink, specs)
        width = np.minimum(w, h)[order][hit]
        mech = _OPEN_CODE[cols.layer[removed]]
        return _events(
            removed, hit - starts[seg], mech, gap[hit], width, False, spec, separated
        )

    def _stranded(
        self, removed: np.ndarray, anchor: np.ndarray, sink: np.ndarray, specs: _Specs
    ) -> np.ndarray:
        """The stuck-open fault of the anchors a break strands from every sink.

        One :class:`Separation` DFS from the sinks of the nets concerned.
        Only a driven net's anchors own devices, and they all belong to its
        driving cell, so any stranded anchor names the instance.
        """
        net = self.columns.net
        nodes = self.columns.labelled & np.isin(net, net[removed])
        reach = self._separation(nodes, sink)
        pos = reach.positions(len(net))
        # Every (break, anchor of its net) pair, anchors in index order.
        distinct = np.unique(removed)
        anchors = np.flatnonzero(nodes & anchor)
        owner, k = _pairs_by_key(net[distinct], net[anchors])
        lost = ~reach.survives(pos[distinct[owner]], pos[anchors[k]])
        stranded: dict[int, list[int]] = defaultdict(list)
        for r, x in zip(owner[lost].tolist(), anchors[k[lost]].tolist()):
            stranded[r].append(x)
        spec = np.full(len(distinct), -1, dtype=np.int64)
        for r, xs in stranded.items():
            devices = {d for x in xs for d in self._adjacent_transistors.get(x, ())}
            if devices:
                instance = self.shapes[xs[0]].owner
                spec[r] = specs.id(("t-open", tuple(sorted(devices)), instance))
        return spec[np.searchsorted(distinct, removed)]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _connect(self) -> None:
        """Build the shape columns, connectivity and device maps, once."""
        if self._connected:
            return
        self.columns = cols = ShapeColumns.of(self.shapes)
        self._diffusion = cols.on_layers(*_DIFF_LAYERS)
        self._edges = edges = connectivity_edges(cols)
        a, b = edges[:, 0], edges[:, 1]
        same_net = cols.labelled[a] & (cols.net[a] == cols.net[b])
        self._net_edges = edges[same_net]
        self._net_neighbours = neighbour_lists(len(cols), self._net_edges)
        self._channels = np.array(
            [
                (t.channel.llx, t.channel.lly, t.channel.urx, t.channel.ury)
                for t in self.design.transistors
            ],
            dtype=np.float64,
        ).reshape(len(self.design.transistors), 4)
        self._output_of: dict[str, str] = {}
        for net, cell in self.design.cell_of_net.items():
            self._output_of.setdefault(cell.instance, net)
        self._adjacent_transistors = self._map_seg_transistors()
        self._sd_pair_transistor = self._map_sd_pairs()
        self._connected = True

    def _map_seg_transistors(self) -> dict[int, tuple[str, ...]]:
        """Diffusion shape index -> names of devices horizontally adjacent.

        Each owned diffusion shape is paired with the devices of its cell
        and polarity; a device is adjacent when its channel abuts the shape
        on either side and overlaps it vertically.
        """
        cols = self.columns
        devices = self.design.transistors
        owner_index = {name: k for k, name in enumerate(cols.owners)}
        # Key: cell and polarity; negative for a device of no cell on the
        # layout.
        device_key = np.array(
            [
                owner_index.get(self._instance(t.name), -1) * 2 + (t.polarity == "p")
                for t in devices
            ],
            dtype=np.int64,
        ).reshape(len(devices))
        owned = np.flatnonzero(self._diffusion & (cols.owner >= 0))
        shape_key = cols.owner[owned] * 2 + (cols.layer[owned] != _NDIFF)
        row, t = _pairs_by_key(shape_key, device_key)
        d = owned[row]
        box, ch = cols.boxes[d], self._channels[t]
        touches = (np.abs(ch[:, 0] - box[:, 2]) < 1e-6) | (
            np.abs(ch[:, 2] - box[:, 0]) < 1e-6
        )
        overlap = np.minimum(ch[:, 3], box[:, 3]) - np.maximum(ch[:, 1], box[:, 1]) > 0
        adjacent: dict[int, list[str]] = {}
        for i, x in zip(d[touches & overlap].tolist(), t[touches & overlap].tolist()):
            adjacent.setdefault(i, []).append(devices[x].name)
        return {i: tuple(sorted(names)) for i, names in adjacent.items()}

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


class _Effects:
    """What removing a shape floats, once per distinct cut-off member set.

    Members are an anchored net's gate pins (their owners float), its other
    PO ports and its other owned diffusion shapes (their adjacent devices
    float), each class sorted by DFS preorder position.  A removal cuts off
    the members inside its cut ranges (a slice of each class per range) and
    the members no anchor reaches; removals with the same slices share one
    effect.
    """

    def __init__(
        self,
        extractor: FaultExtractor,
        reach: Separation,
        anchored: np.ndarray,
        gate: np.ndarray,
        po_port: np.ndarray,
        owned_diff: np.ndarray,
        specs: _Specs,
    ):
        cols = extractor.columns
        self.reach, self.specs = reach, specs
        self.net, self.nets = cols.net, cols.nets
        self.pos = reach.positions(len(cols))
        adjacent = extractor._adjacent_transistors
        masks = (gate, po_port & ~gate, owned_diff & ~gate & ~po_port)

        def value(kind: int, i: int) -> object:
            if kind == 0:
                return extractor.shapes[i].owner
            return True if kind == 1 else adjacent.get(i, ())

        #: Per class: sorted preorder positions and the members' values.
        self.classes = []
        for kind, mask in enumerate(masks):
            members = np.flatnonzero(anchored & mask & (self.pos >= 0))
            members = members[np.argsort(self.pos[members])]
            self.classes.append(
                (self.pos[members], [value(kind, i) for i in members.tolist()])
            )
        # Nodes (and members) no anchor reaches float whatever is removed.
        unreached = np.array(reach.unreached, dtype=np.int64)
        self.unreached = np.bincount(self.net[unreached], minlength=len(self.nets))
        self.lost: dict[int, list[tuple[int, int, object]]] = defaultdict(list)
        for kind, mask in enumerate(masks):
            for i in unreached[mask[unreached]].tolist():
                self.lost[self.net[i]].append((kind, i, value(kind, i)))
        self._found: dict[tuple, int] = {}

    def of(self, removed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(spec, separated)`` of each removed shape."""
        reach = self.reach
        at = self.pos[removed]
        lo, hi = reach.rows(at)
        cut = np.concatenate(([0], np.cumsum(reach.cut_stop - reach.cut_start)))
        separated = cut[hi] - cut[lo] + self.unreached[self.net[removed]] - (at < 0)
        owner, row = _spans(hi - lo, lo)
        start, stop = reach.cut_start[row], reach.cut_stop[row]
        # Per cut range: the slice of each member class inside it.
        slices = np.stack(
            [
                np.searchsorted(positions, bound)
                for positions, _ in self.classes
                for bound in (start, stop)
            ],
            axis=1,
        ).reshape(len(row), 2 * len(self.classes))
        members = (slices[:, 1::2] > slices[:, ::2]).any(axis=1)
        slices, owner = slices[members], owner[members]
        count = np.bincount(owner, minlength=len(removed))
        lost = np.isin(self.net[removed], list(self.lost))
        spec = np.full(len(removed), -1, dtype=np.int64)
        # Removals cutting off one slice set share its effect.
        one = np.flatnonzero((count == 1) & ~lost)
        if len(one):
            sole = slices[np.isin(owner, one)]
            distinct, first, inverse = np.unique(
                sole, axis=0, return_index=True, return_inverse=True
            )
            nets = self.net[removed[one[first]]].tolist()
            shared = [
                self._lookup(net, (tuple(bounds),), -1, ())
                for net, bounds in zip(nets, distinct.tolist())
            ]
            spec[one] = np.array(shared, dtype=np.int64)[inverse.reshape(-1)]
        # The rest (several slice sets, or members no anchor reaches) one by
        # one.
        edges = np.searchsorted(owner, np.arange(len(removed) + 1)).tolist()
        rest = np.flatnonzero(((count > 1) | lost) & (separated > 0)).tolist()
        for k in rest:
            r = int(removed[k])
            net = self.net[r]
            found = self.lost.get(net, ())
            rows = tuple(map(tuple, slices[edges[k] : edges[k + 1]].tolist()))
            if rows or found:
                spec[k] = self._lookup(net, rows, r if found else -1, found)
        return spec, separated

    def _lookup(self, net: int, rows: tuple, removed: int, lost) -> int:
        """The spec of one cut-off member set, computed once."""
        signature = (net, rows, removed)
        found = self._found.get(signature)
        if found is None:
            found = self._found[signature] = self._effect(net, rows, removed, lost)
        return found

    def _effect(self, net: int, rows: tuple, removed: int, lost) -> int:
        (_, gates), (_, ports), (_, diffs) = self.classes
        owners: set[str] = set()
        floats_po = False
        stuck: set[str] = set()
        for g0, g1, p0, p1, d0, d1 in rows:
            owners.update(gates[g0:g1])
            floats_po = floats_po or p1 > p0
            for devices in diffs[d0:d1]:
                stuck.update(devices)
        for kind, i, value in lost:
            if i == removed:
                continue
            if kind == 0:
                owners.add(value)
            elif kind == 1:
                floats_po = True
            else:
                stuck.update(value)
        if not (owners or floats_po or stuck):
            return -1
        name = self.nets[net]
        return self.specs.id(
            (
                "open",
                name,
                tuple(sorted((owner, name) for owner in owners)),
                floats_po,
                tuple(sorted(stuck)),
            )
        )
