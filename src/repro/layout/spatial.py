"""Uniform-grid spatial index over layout rectangles.

Connectivity extraction, DRC-style checks, and critical-area neighbour
queries all need "which shapes are near this one" in better than O(n^2);
a simple bucket grid is ample at this library's die sizes.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.layout.geometry import Rect

__all__ = ["CELL_SIZE", "SpatialIndex"]

#: Default bucket edge, in microns.  :class:`repro.layout.sweep.GridOrder`
#: reproduces the pair order of an index built with it.
CELL_SIZE = 25.0


class SpatialIndex:
    """Buckets rectangles into a uniform grid for neighbourhood queries."""

    def __init__(self, shapes: Iterable[Rect], cell_size: float = CELL_SIZE):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = cell_size
        self.shapes: list[Rect] = list(shapes)
        self._grid: dict[tuple[int, int], list[int]] = defaultdict(list)
        for index, shape in enumerate(self.shapes):
            for key in self._keys(shape, 0.0):
                self._grid[key].append(index)

    def _keys(self, shape: Rect, margin: float) -> Iterator[tuple[int, int]]:
        x0 = int((shape.llx - margin) // self.cell_size)
        x1 = int((shape.urx + margin) // self.cell_size)
        y0 = int((shape.lly - margin) // self.cell_size)
        y1 = int((shape.ury + margin) // self.cell_size)
        for gx in range(x0, x1 + 1):
            for gy in range(y0, y1 + 1):
                yield (gx, gy)

    def near(self, shape: Rect, margin: float = 0.0) -> list[Rect]:
        """Shapes whose bucket neighbourhood overlaps ``shape`` +- margin.

        Candidates only — callers still apply their exact predicate.
        """
        seen: set[int] = set()
        result: list[Rect] = []
        for key in self._keys(shape, margin):
            for index in self._grid.get(key, ()):  # pragma: no branch
                if index not in seen:
                    seen.add(index)
                    result.append(self.shapes[index])
        return result

    def candidate_pairs(self, margin: float = 0.0) -> Iterator[tuple[Rect, Rect]]:
        """Yield each unordered shape pair sharing a bucket (with margin).

        Pairs are yielded exactly once.  ``margin`` widens each shape's
        bucket footprint so near-but-not-touching pairs are included, which
        is what spacing and critical-area analyses need.
        """
        if margin > 0.0:
            widened: dict[tuple[int, int], list[int]] = defaultdict(list)
            for index, shape in enumerate(self.shapes):
                for key in self._keys(shape, margin):
                    widened[key].append(index)
            grid = widened
        else:
            grid = self._grid
        emitted: set[tuple[int, int]] = set()
        for indices in grid.values():
            for i, a in enumerate(indices):
                for b in indices[i + 1 :]:
                    pair = (a, b) if a < b else (b, a)
                    if pair not in emitted:
                        emitted.add(pair)
                        yield self.shapes[pair[0]], self.shapes[pair[1]]
