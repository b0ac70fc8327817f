"""Sort-and-sweep candidate pairs over layout rectangles, in numpy.

Bridge extraction and connectivity both ask "which shapes of one layer lie
within ``margin`` of each other?".  Sorting a layer's shapes by ``llx`` makes
every shape's x-neighbourhood a contiguous window of the sorted order, found
with one ``searchsorted``; the y test and the exact geometric predicate then
run over whole arrays of pairs.  Windows are expanded into pairs in blocks
of at most :data:`BLOCK_PAIRS`, so memory stays bounded however many pairs
a layer has.

:class:`GridOrder` reproduces the emission order of
:meth:`repro.layout.spatial.SpatialIndex.candidate_pairs`, so a sweep-based
pass can emit its accepted pairs exactly as the bucket-grid pass did.

:class:`ShapeColumns` holds the per-shape columns these passes read, built
once per layout in one walk over its rectangles.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.layout.geometry import Layer, Rect
from repro.layout.spatial import CELL_SIZE

__all__ = [
    "BLOCK_PAIRS",
    "LAYERS",
    "GridOrder",
    "ShapeColumns",
    "cross_pairs",
    "facing_spans",
    "sweep_axis",
    "sweep_pairs",
]

#: Most candidate pairs materialised at once (a few MB of index arrays).
BLOCK_PAIRS = 1 << 18

IndexPairs = Iterator[tuple[np.ndarray, np.ndarray]]


#: Layers in code order: a shape's ``layer`` column indexes this tuple.
LAYERS = tuple(Layer)
_LAYER_CODE = {layer: k for k, layer in enumerate(LAYERS)}


@dataclass(frozen=True)
class ShapeColumns:
    """The rectangles of a layout as columns, one row per shape.

    ``net``, ``owner`` and ``purpose`` are ids into the ``nets``, ``owners``
    and ``purposes`` name lists, numbered in order of first appearance;
    ``owner`` is -1 for shapes without an owning cell.
    """

    #: ``(n, 4)`` float64 rows ``(llx, lly, urx, ury)``.
    boxes: np.ndarray
    #: Index into :data:`LAYERS`.
    layer: np.ndarray
    net: np.ndarray
    nets: list[str]
    owner: np.ndarray
    owners: list[str]
    purpose: np.ndarray
    purposes: list[str]
    #: True where the shape carries a net label.
    labelled: np.ndarray

    @classmethod
    def of(cls, shapes: Sequence[Rect]) -> ShapeColumns:
        """Columns of ``shapes``, in one walk over them."""
        nets: dict[str, int] = {}
        owners: dict[str, int] = {"": -1}
        purposes: dict[str, int] = {}
        boxes, layer, net, owner, purpose = [], [], [], [], []
        for s in shapes:
            boxes.append((s.llx, s.lly, s.urx, s.ury))
            layer.append(_LAYER_CODE[s.layer])
            net.append(nets.setdefault(s.net, len(nets)))
            owner.append(owners.setdefault(s.owner, len(owners) - 1))
            purpose.append(purposes.setdefault(s.purpose, len(purposes)))
        net_ids = np.array(net, dtype=np.int64)
        return cls(
            boxes=np.array(boxes, dtype=np.float64).reshape(len(shapes), 4),
            layer=np.array(layer, dtype=np.int64),
            net=net_ids,
            nets=list(nets),
            owner=np.array(owner, dtype=np.int64),
            owners=list(owners)[1:],
            purpose=np.array(purpose, dtype=np.int64),
            purposes=list(purposes),
            labelled=np.array([bool(name) for name in nets], dtype=bool)[net_ids],
        )

    def __len__(self) -> int:
        return len(self.layer)

    def on_layers(self, *layers: Layer) -> np.ndarray:
        """Boolean mask of the shapes on any of ``layers``."""
        return np.isin(self.layer, [_LAYER_CODE[layer] for layer in layers])

    def with_purpose(self, purpose: str) -> np.ndarray:
        """Boolean mask of the shapes whose purpose is ``purpose``."""
        if purpose not in self.purposes:
            return np.zeros(len(self), dtype=bool)
        return self.purpose == self.purposes.index(purpose)


def _expand(
    starts: np.ndarray, stops: np.ndarray, block: int
) -> IndexPairs:
    """Yield ``(row, col)`` for every ``col`` in ``[starts[row], stops[row])``.

    Rows are taken in order, as many per block as fit in ``block`` pairs
    (always at least one).
    """
    counts = np.maximum(stops - starts, 0)
    ends = np.cumsum(counts)
    n = len(counts)
    row = 0
    while row < n:
        base = int(ends[row - 1]) if row else 0
        last = max(int(np.searchsorted(ends, base + block, side="right")), row + 1)
        c = counts[row:last]
        total = int(ends[last - 1]) - base
        if total:
            rows = np.repeat(np.arange(row, last), c)
            offsets = np.arange(total) - np.repeat(np.cumsum(c) - c, c)
            yield rows, starts[rows] + offsets
        row = last


def sweep_pairs(
    llx: np.ndarray, urx: np.ndarray, margin: float = 0.0, block: int = BLOCK_PAIRS
) -> IndexPairs:
    """Each unordered pair ``(i, j)`` whose x-extents lie within ``margin``.

    A superset of the pairs whose x gap is at most ``margin`` (overlapping
    and touching extents included); each pair is yielded once, as index
    arrays into ``llx``/``urx``, in blocks.  The window bound is the
    rounded ``urx + margin``: a shape starting beyond it has a rounded gap
    of at least ``margin``, so a caller testing ``gap < margin`` loses
    nothing.
    """
    order = np.argsort(llx, kind="stable")
    lo = llx[order]
    stops = np.searchsorted(lo, urx[order] + margin, side="right")
    starts = np.arange(1, len(lo) + 1)
    for rows, cols in _expand(starts, stops, block):
        yield order[rows], order[cols]


def cross_pairs(
    a_llx: np.ndarray,
    a_urx: np.ndarray,
    b_llx: np.ndarray,
    b_urx: np.ndarray,
    block: int = BLOCK_PAIRS,
) -> IndexPairs:
    """Each pair ``(i into a, j into b)`` whose x-extents overlap or touch.

    The bipartite form of :func:`sweep_pairs` at zero margin: pairs whose
    ``b`` starts at or after ``a`` come from a sweep of ``b``'s sorted
    starts, the rest from a sweep of ``a``'s.
    """
    b_order = np.argsort(b_llx, kind="stable")
    b_lo = b_llx[b_order]
    starts = np.searchsorted(b_lo, a_llx, side="left")
    stops = np.searchsorted(b_lo, a_urx, side="right")
    for rows, cols in _expand(starts, stops, block):
        yield rows, b_order[cols]
    a_order = np.argsort(a_llx, kind="stable")
    a_lo = a_llx[a_order]
    starts = np.searchsorted(a_lo, b_llx, side="right")
    stops = np.searchsorted(a_lo, b_urx, side="right")
    for rows, cols in _expand(starts, stops, block):
        yield a_order[cols], rows


def sweep_axis(boxes: np.ndarray, other: np.ndarray | None = None) -> int:
    """The axis (0: x, 1: y) whose zero-margin sweep offers fewer pairs.

    Counts, without building them, the pairs :func:`sweep_pairs` over
    ``boxes`` (or :func:`cross_pairs` between ``boxes`` and ``other``)
    yields along each axis.  Long wires fill the windows of their own axis:
    a row's rails meet every shape of the row in x but few in y.
    """
    counts = []
    for lo, hi in ((0, 2), (1, 3)):
        starts = np.sort(boxes[:, lo])
        if other is None:
            ends = boxes[np.argsort(boxes[:, lo], kind="stable"), hi]
            after = np.searchsorted(starts, ends, side="right")
            after -= np.arange(1, len(starts) + 1)
            counts.append(np.maximum(after, 0).sum())
        else:
            others = np.sort(other[:, lo])
            ahead = np.searchsorted(others, boxes[:, hi], side="right")
            ahead -= np.searchsorted(others, boxes[:, lo], side="left")
            behind = np.searchsorted(starts, other[:, hi], side="right")
            behind -= np.searchsorted(starts, other[:, lo], side="right")
            counts.append(ahead.sum() + behind.sum())
    return int(counts[1] < counts[0])


def facing_spans(
    boxes: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised :func:`repro.layout.geometry.facing_span` over pairs.

    Returns ``(faces, spacing, run)``; ``spacing`` and ``run`` are only
    meaningful where ``faces``.  Uses min/max/subtract only, so every value
    equals the scalar function's bit for bit.
    """
    pa, pb = boxes[a], boxes[b]
    lo = np.maximum(pa[:, :2], pb[:, :2])
    hi = np.minimum(pa[:, 2:], pb[:, 2:])
    x_overlap = hi[:, 0] - lo[:, 0]
    y_overlap = hi[:, 1] - lo[:, 1]
    along_x = x_overlap > 0
    faces = along_x != (y_overlap > 0)
    spacing = np.where(along_x, lo[:, 1] - hi[:, 1], lo[:, 0] - hi[:, 0])
    run = np.where(along_x, x_overlap, y_overlap)
    return faces, spacing, run


class GridOrder:
    """The pair order of ``SpatialIndex(shapes).candidate_pairs(margin)``.

    Valid for an index with the default bucket size, :data:`CELL_SIZE`.

    That generator walks the widened bucket grid in bucket creation order
    and yields each pair ``(a, b)``, ``a < b``, in the first bucket that
    holds both.  Buckets are created while shapes are inserted in index
    order, each shape's footprint in ``(gx, gy)`` order, so a bucket's rank
    is the position of its first appearance in that flattened sequence.
    Sorting pairs by ``(rank(a, b), a, b)`` reproduces the emission order.
    """

    def __init__(self, boxes: np.ndarray, margin: float):
        self.x0 = np.floor_divide(boxes[:, 0] - margin, CELL_SIZE).astype(np.int64)
        self.y0 = np.floor_divide(boxes[:, 1] - margin, CELL_SIZE).astype(np.int64)
        self.x1 = np.floor_divide(boxes[:, 2] + margin, CELL_SIZE).astype(np.int64)
        self.y1 = np.floor_divide(boxes[:, 3] + margin, CELL_SIZE).astype(np.int64)
        if not len(boxes):
            self._rank = np.zeros(0, dtype=np.int64)
            return
        self._gx, self._gy = int(self.x0.min()), int(self.y0.min())
        self._height = int(self.y1.max()) - self._gy + 1
        width = int(self.x1.max()) - self._gx + 1
        cells = self._cells(self.x0, self.x1, self.y0, self.y1)
        # A bucket's rank is the position of its first appearance.
        self._rank = np.full(width * self._height, len(cells), dtype=np.int64)
        np.minimum.at(self._rank, cells, np.arange(len(cells)))

    def _cells(self, x0, x1, y0, y1) -> np.ndarray:
        """Flat cell ids of every footprint, footprint by footprint, gx-major."""
        ny = y1 - y0 + 1
        counts = (x1 - x0 + 1) * ny
        owner = np.repeat(np.arange(len(counts)), counts)
        k = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
        gx = x0[owner] + k // ny[owner]
        gy = y0[owner] + k % ny[owner]
        return (gx - self._gx) * self._height + (gy - self._gy)

    def rank(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Rank of the first bucket ``a[k]`` and ``b[k]`` share; -1 if none."""
        x0 = np.maximum(self.x0[a], self.x0[b])
        x1 = np.minimum(self.x1[a], self.x1[b])
        y0 = np.maximum(self.y0[a], self.y0[b])
        y1 = np.minimum(self.y1[a], self.y1[b])
        shared = (x0 <= x1) & (y0 <= y1)
        out = np.full(len(a), -1, dtype=np.int64)
        if shared.any():
            x0, x1, y0, y1 = x0[shared], x1[shared], y0[shared], y1[shared]
            ranks = self._rank[self._cells(x0, x1, y0, y1)]
            areas = (x1 - x0 + 1) * (y1 - y0 + 1)
            out[shared] = np.minimum.reduceat(ranks, np.cumsum(areas) - areas)
        return out
