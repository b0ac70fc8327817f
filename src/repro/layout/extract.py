"""Layout-to-circuit extraction and physical verification.

This is the "layout-level circuit description + circuit extraction rules"
half of the paper's *lift* tool:

* :func:`connectivity_edges` derives the electrical connectivity from pure
  geometry (same-layer contact/overlap plus contact/via cuts), read from
  :class:`~repro.layout.sweep.ShapeColumns`, as one edge array;
  :func:`neighbour_lists` slices it into ascending per-shape neighbour
  lists and :func:`build_connectivity` wraps it as a networkx graph;
* :func:`verify_layout` is an LVS-lite check: every net label forms exactly
  one connected component and no two different nets touch (a hard short);
* :func:`extract_transistors` recovers MOS devices from poly/diffusion
  adjacency and cross-checks them against the generator's netlist.

These checks run in the test suite on every generated layout, so the defect
extractor downstream can trust shape labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.layout.design import LayoutDesign
from repro.layout.geometry import Layer, Rect
from repro.layout.spatial import SpatialIndex
from repro.layout.sweep import (
    LAYERS,
    ShapeColumns,
    cross_pairs,
    sweep_axis,
    sweep_pairs,
)

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "ExtractedTransistor",
    "VerificationReport",
    "build_connectivity",
    "connectivity_edges",
    "neighbour_lists",
    "verify_layout",
    "extract_transistors",
    "find_shorts",
]

_CONDUCTORS = (Layer.NDIFF, Layer.PDIFF, Layer.POLY, Layer.METAL1, Layer.METAL2)
_CONTACT_BOTTOM = (Layer.POLY, Layer.NDIFF, Layer.PDIFF)
#: Box columns of the x extent and of the y extent.
_AXES = ((0, 2), (1, 3))
#: Conductor layers each cut layer joins.
_CUT_JOINS = {
    Layer.CONTACT: (Layer.METAL1, *_CONTACT_BOTTOM),
    Layer.VIA: (Layer.METAL1, Layer.METAL2),
}


def _touching_pairs(
    boxes: np.ndarray, members: dict[Layer, np.ndarray]
) -> np.ndarray:
    """``(k, 2)`` index pairs, each once, of same-layer conductors that touch."""
    llx, lly, urx, ury = boxes.T
    found = [np.empty((0, 2), dtype=np.int64)]
    for layer in _CONDUCTORS:
        idx = members[layer]
        lo, hi = _AXES[sweep_axis(boxes[idx])]
        for i, j in sweep_pairs(boxes[idx, lo], boxes[idx, hi]):
            a, b = idx[i], idx[j]
            touch = (
                (llx[a] <= urx[b])
                & (llx[b] <= urx[a])
                & (lly[a] <= ury[b])
                & (lly[b] <= ury[a])
            )
            found.append(np.stack((a[touch], b[touch]), axis=1))
    return np.concatenate(found)


def _layer_members(columns: ShapeColumns) -> dict[Layer, np.ndarray]:
    return {layer: np.flatnonzero(columns.on_layers(layer)) for layer in LAYERS}


def connectivity_edges(columns: ShapeColumns) -> np.ndarray:
    """``(k, 2)`` electrical connectivity edges over shape indices.

    Edges join same-layer shapes that touch/overlap, and conductor shapes
    joined through a contact (poly/diff <-> metal1) or via (metal1 <->
    metal2) cut that overlaps both with positive area.  Each edge appears
    once as ``(a, b)`` with ``a < b``, rows in ascending ``(a, b)`` order.
    """
    boxes = columns.boxes
    llx, lly, urx, ury = boxes.T
    members = _layer_members(columns)
    edges = [_touching_pairs(boxes, members)]

    for cut_layer, joined in _CUT_JOINS.items():
        cuts = members[cut_layer]
        for layer in joined:
            metal = members[layer]
            lo, hi = _AXES[sweep_axis(boxes[cuts], boxes[metal])]
            ends = boxes[cuts, lo], boxes[cuts, hi], boxes[metal, lo], boxes[metal, hi]
            for i, j in cross_pairs(*ends):
                a, b = cuts[i], metal[j]
                w = np.minimum(urx[a], urx[b]) - np.maximum(llx[a], llx[b])
                h = np.minimum(ury[a], ury[b]) - np.maximum(lly[a], lly[b])
                overlap = (np.maximum(0.0, w) * np.maximum(0.0, h)) > 0
                edges.append(np.stack((a[overlap], b[overlap]), axis=1))

    found = np.concatenate(edges)
    n = len(columns)
    key = np.unique(found.min(axis=1) * n + found.max(axis=1))
    return np.stack((key // n, key % n), axis=1)


def neighbour_lists(n: int, edges: np.ndarray) -> list[list[int]]:
    """Every node's neighbours over the undirected ``edges``, ascending.

    ``n`` is the node count.  The order is the one a networkx graph built
    from the sorted edge rows reports, so callers may break ties by it.
    """
    a, b = edges[:, 0], edges[:, 1]
    key = np.sort(np.concatenate((a * n + b, b * n + a)))
    ends = np.searchsorted(key // n, np.arange(1, n + 1)).tolist()
    flat = (key % n).tolist()
    return [flat[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]


def build_connectivity(shapes: list[Rect]) -> nx.Graph:
    """:func:`connectivity_edges` as a networkx graph over shape indices."""
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(len(shapes)))
    graph.add_edges_from(connectivity_edges(ShapeColumns.of(shapes)).tolist())
    return graph


@dataclass
class VerificationReport:
    """Result of the LVS-lite pass."""

    split_nets: dict[str, int] = field(default_factory=dict)  # net -> n components
    merged_nets: list[tuple[str, str]] = field(default_factory=list)
    shorts: list[tuple[Rect, Rect]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when connectivity matches labels and no shorts exist."""
        return not self.split_nets and not self.merged_nets and not self.shorts


def find_shorts(shapes: list[Rect]) -> list[tuple[Rect, Rect]]:
    """Same-layer shape pairs of *different* nets that touch or overlap.

    Pairs come in ascending ``(a, b)`` shape index order, ``a < b``.
    """
    columns = ShapeColumns.of(shapes)
    touching = _touching_pairs(columns.boxes, _layer_members(columns))
    pairs = np.sort(touching, axis=1)
    shorts = []
    for a, b in np.unique(pairs, axis=0).tolist():
        first, second = shapes[a], shapes[b]
        if first.net and second.net and first.net != second.net:
            shorts.append((first, second))
    return shorts


def verify_layout(design: LayoutDesign) -> VerificationReport:
    """Check the layout's geometry against its net labels.

    * every labelled net must form exactly one connected component;
    * no connected component may carry two different net labels;
    * no two different-net shapes on one layer may touch.
    """
    import networkx as nx

    report = VerificationReport()
    shapes = design.shapes
    graph = build_connectivity(shapes)

    for component in nx.connected_components(graph):
        labels = {shapes[i].net for i in component if shapes[i].net}
        if len(labels) > 1:
            ordered = sorted(labels)
            report.merged_nets.extend(
                (ordered[0], other) for other in ordered[1:]
            )

    components_per_net: dict[str, int] = {}
    for component in nx.connected_components(graph):
        labels = {shapes[i].net for i in component if shapes[i].net}
        for label in labels:
            components_per_net[label] = components_per_net.get(label, 0) + 1
    for net, count in components_per_net.items():
        if count > 1:
            report.split_nets[net] = count

    report.shorts = find_shorts(shapes)
    return report


@dataclass(frozen=True)
class ExtractedTransistor:
    """A MOS device recovered from geometry."""

    polarity: str
    gate_net: str
    sd_nets: frozenset[str]
    x: float
    y: float


def extract_transistors(design: LayoutDesign) -> list[ExtractedTransistor]:
    """Recover transistors from poly-over-diffusion adjacency.

    A device exists wherever a poly stripe separates two source/drain
    diffusion segments that abut it from opposite sides with overlapping
    vertical extent.
    """
    polys = [s for s in design.shapes if s.layer is Layer.POLY and s.purpose == "gate"]
    diffs = [s for s in design.shapes if s.layer in (Layer.NDIFF, Layer.PDIFF)]
    diff_index = SpatialIndex(diffs)

    devices: list[ExtractedTransistor] = []
    for poly in polys:
        near = [d for d in diff_index.near(poly, margin=1.0)]
        for layer in (Layer.NDIFF, Layer.PDIFF):
            left = [
                d
                for d in near
                if d.layer is layer
                and abs(d.urx - poly.llx) < 1e-9
                and min(d.ury, poly.ury) - max(d.lly, poly.lly) > 0
            ]
            right = [
                d
                for d in near
                if d.layer is layer
                and abs(d.llx - poly.urx) < 1e-9
                and min(d.ury, poly.ury) - max(d.lly, poly.lly) > 0
            ]
            for a in left:
                for b in right:
                    y_lo = max(a.lly, b.lly, poly.lly)
                    y_hi = min(a.ury, b.ury, poly.ury)
                    if y_hi <= y_lo:
                        continue
                    devices.append(
                        ExtractedTransistor(
                            polarity="n" if layer is Layer.NDIFF else "p",
                            gate_net=poly.net,
                            sd_nets=frozenset({a.net, b.net}),
                            x=(poly.llx + poly.urx) / 2,
                            y=(y_lo + y_hi) / 2,
                        )
                    )
    return devices
