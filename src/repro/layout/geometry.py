"""Layout geometry primitives: layers, rectangles and spacing queries.

Everything is axis-aligned Manhattan geometry, the norm for standard-cell
layout.  Dimensions are in micrometres of a nominal ~1 um, 2-metal CMOS
process (the paper's vintage); the technology constants live in
:class:`DesignRules`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

__all__ = ["Layer", "Rect", "DesignRules", "bounding_box", "facing_span"]


class Layer(str, Enum):
    """Mask layers of the 2-metal CMOS process, bottom-up."""

    NWELL = "nwell"
    NDIFF = "ndiff"      # n+ active (NMOS source/drain)
    PDIFF = "pdiff"      # p+ active (PMOS source/drain)
    POLY = "poly"        # polysilicon gates and short straps
    CONTACT = "contact"  # diffusion/poly to metal1
    METAL1 = "metal1"
    VIA = "via"          # metal1 to metal2
    METAL2 = "metal2"

    @property
    def is_conductor(self) -> bool:
        """Layers on which spot defects cause shorts/opens between nets."""
        return self in (
            Layer.NDIFF,
            Layer.PDIFF,
            Layer.POLY,
            Layer.METAL1,
            Layer.METAL2,
        )

    @property
    def is_cut(self) -> bool:
        """Cut layers (contacts/vias), subject to missing-cut open defects."""
        return self in (Layer.CONTACT, Layer.VIA)


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle on one layer, labelled with its net.

    ``net`` is the electrical node the shape belongs to ("" for well/implant
    shapes that carry no signal).  ``purpose`` distinguishes e.g. transistor
    gates ("gate") from routing ("wire") for fault classification.
    """

    layer: Layer
    llx: float
    lly: float
    urx: float
    ury: float
    net: str = ""
    purpose: str = "wire"
    #: Owning cell instance for cell-internal shapes ("" for routing).
    owner: str = ""

    def __post_init__(self) -> None:
        if self.urx < self.llx or self.ury < self.lly:
            raise ValueError(f"degenerate rect: {self}")

    # -- basic metrics --------------------------------------------------
    @property
    def width(self) -> float:
        """Extent along x."""
        return self.urx - self.llx

    @property
    def height(self) -> float:
        """Extent along y."""
        return self.ury - self.lly

    @property
    def area(self) -> float:
        """Rectangle area."""
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        """Geometric centre (x, y)."""
        return ((self.llx + self.urx) / 2, (self.lly + self.ury) / 2)

    @property
    def min_dimension(self) -> float:
        """The wire width: the smaller of width and height."""
        return min(self.width, self.height)

    @property
    def length(self) -> float:
        """The wire length: the larger of width and height."""
        return max(self.width, self.height)

    # -- relations -------------------------------------------------------
    def intersects(self, other: Rect) -> bool:
        """True when the two rectangles overlap or touch (any layer)."""
        return (
            self.llx <= other.urx
            and other.llx <= self.urx
            and self.lly <= other.ury
            and other.lly <= self.ury
        )

    def overlap_area(self, other: Rect) -> float:
        """Area of geometric intersection (0 when disjoint)."""
        w = min(self.urx, other.urx) - max(self.llx, other.llx)
        h = min(self.ury, other.ury) - max(self.lly, other.lly)
        return max(0.0, w) * max(0.0, h)

    def distance_to(self, other: Rect) -> float:
        """Euclidean edge-to-edge clearance (0 when overlapping/touching)."""
        dx = max(0.0, max(self.llx, other.llx) - min(self.urx, other.urx))
        dy = max(0.0, max(self.lly, other.lly) - min(self.ury, other.ury))
        return math.hypot(dx, dy)

    def translated(self, dx: float, dy: float) -> Rect:
        """A copy shifted by (dx, dy)."""
        return Rect(
            self.layer,
            self.llx + dx,
            self.lly + dy,
            self.urx + dx,
            self.ury + dy,
            self.net,
            self.purpose,
            self.owner,
        )

    def renamed(self, net: str) -> Rect:
        """A copy attached to a different net."""
        return replace(self, net=net)


def bounding_box(rects: list[Rect]) -> Rect | None:
    """Smallest rectangle covering all shapes (layer of the first one)."""
    if not rects:
        return None
    return Rect(
        rects[0].layer,
        min(r.llx for r in rects),
        min(r.lly for r in rects),
        max(r.urx for r in rects),
        max(r.ury for r in rects),
    )


def facing_span(a: Rect, b: Rect) -> tuple[float, float] | None:
    """Parallel-run geometry between two same-layer shapes.

    Returns ``(spacing, run_length)``: the edge-to-edge gap and the length
    over which the two rectangles face each other in the orthogonal axis.
    Returns None when the shapes do not face (diagonal neighbours) or
    overlap; overlapping same-net shapes are simply connected metal, and
    overlapping different-net shapes would be a DRC violation the generator
    never produces.
    """
    x_overlap = min(a.urx, b.urx) - max(a.llx, b.llx)
    y_overlap = min(a.ury, b.ury) - max(a.lly, b.lly)
    if x_overlap > 0 and y_overlap > 0:
        return None  # overlapping
    if x_overlap > 0:
        spacing = max(a.lly, b.lly) - min(a.ury, b.ury)
        return (spacing, x_overlap)
    if y_overlap > 0:
        spacing = max(a.llx, b.llx) - min(a.urx, b.urx)
        return (spacing, y_overlap)
    return None


@dataclass(frozen=True)
class DesignRules:
    """Technology constants for the synthetic ~1 um 2-metal CMOS process.

    All values in micrometres.  These set wire widths/pitches for the cell
    generator and router, and the minimum spacings from which bridge critical
    areas start.
    """

    lambda_um: float = 0.5

    # widths
    poly_width: float = 1.0
    metal1_width: float = 1.5
    metal2_width: float = 1.5
    diff_width: float = 1.5
    contact_size: float = 1.0
    via_size: float = 1.0

    # spacings
    poly_space: float = 1.5
    metal1_space: float = 1.5
    metal2_space: float = 2.0
    diff_space: float = 1.5

    # pitches used by the router grid
    @property
    def metal1_pitch(self) -> float:
        """Centre-to-centre metal1 track pitch."""
        return self.metal1_width + self.metal1_space

    @property
    def metal2_pitch(self) -> float:
        """Centre-to-centre metal2 track pitch."""
        return self.metal2_width + self.metal2_space

    def min_width(self, layer: Layer) -> float:
        """Minimum drawn width for a conductor layer."""
        return {
            Layer.POLY: self.poly_width,
            Layer.METAL1: self.metal1_width,
            Layer.METAL2: self.metal2_width,
            Layer.NDIFF: self.diff_width,
            Layer.PDIFF: self.diff_width,
            Layer.CONTACT: self.contact_size,
            Layer.VIA: self.via_size,
        }.get(layer, self.lambda_um)

    def min_space(self, layer: Layer) -> float:
        """Minimum spacing for a conductor layer."""
        return {
            Layer.POLY: self.poly_space,
            Layer.METAL1: self.metal1_space,
            Layer.METAL2: self.metal2_space,
            Layer.NDIFF: self.diff_space,
            Layer.PDIFF: self.diff_space,
        }.get(layer, self.lambda_um)
