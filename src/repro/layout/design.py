"""Full-design layout assembly: netlist -> placed, routed mask geometry.

:func:`build_layout` is the one-call entry point the experiments use: it
tech-maps the circuit, places the cells, routes the nets, and emits every
mask shape in absolute coordinates together with the transistor-level
netlist.  The result, :class:`LayoutDesign`, is what the defect extractor
(:mod:`repro.defects.extraction`) and the switch-level fault simulator
consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.circuit.netlist import Circuit
from repro.layout.cells import (
    CELL_HEIGHT,
    GND,
    VDD,
    CellLayout,
    Transistor,
)
from repro.layout.geometry import Layer, Rect, bounding_box
from repro.layout.placement import Placement, place
from repro.layout.routing import RoutingPlan, route
from repro.layout.techmap import techmap

__all__ = ["LayoutDesign", "build_layout"]


@dataclass
class LayoutDesign:
    """A complete physical design.

    Attributes
    ----------
    name:
        Design name (source circuit name).
    source:
        The original gate-level circuit.
    mapped:
        The tech-mapped circuit actually implemented by the cells.
    placement / plan:
        Placement and routing solutions.
    shapes:
        Every mask rectangle in absolute die coordinates.
    transistors:
        Transistor-level netlist (absolute channel rectangles).
    cell_of_net:
        Output net -> the CellLayout driving it.
    row_base:
        Absolute y of each cell row's origin.
    """

    name: str
    source: Circuit
    mapped: Circuit
    placement: Placement
    plan: RoutingPlan
    shapes: list[Rect] = field(default_factory=list)
    transistors: list[Transistor] = field(default_factory=list)
    cell_of_net: dict[str, CellLayout] = field(default_factory=dict)
    row_base: list[float] = field(default_factory=list)

    @property
    def die(self) -> Rect | None:
        """Bounding box of all shapes."""
        return bounding_box(self.shapes)

    @property
    def signal_nets(self) -> list[str]:
        """All signal (non-supply) net names present in the layout."""
        names = {s.net for s in self.shapes if s.net and s.net not in (VDD, GND)}
        return sorted(names)

    def shapes_of_net(self, net: str) -> list[Rect]:
        """All shapes labelled with ``net``."""
        return [s for s in self.shapes if s.net == net]

    def area_mm2(self) -> float:
        """Die area in square millimetres."""
        box = self.die
        return 0.0 if box is None else box.width * box.height / 1e6

    def wire_length_by_layer(self) -> dict[Layer, float]:
        """Total drawn wire length per conductor layer (um)."""
        totals: dict[Layer, float] = {}
        for shape in self.shapes:
            if shape.layer.is_conductor:
                totals[shape.layer] = totals.get(shape.layer, 0.0) + shape.length
        return totals


def build_layout(circuit: Circuit, pre_mapped: bool = False) -> LayoutDesign:
    """Generate the complete layout for ``circuit``.

    Parameters
    ----------
    circuit:
        Gate-level circuit (any supported gate types).
    pre_mapped:
        Set True when ``circuit`` is already restricted to the physical
        library (skips tech mapping).
    """
    with obs.span("layout.techmap"):
        mapped = circuit if pre_mapped else techmap(circuit)
    with obs.span("layout.place"):
        placement = place(mapped)
    with obs.span("layout.route"):
        plan = route(placement)

    design = LayoutDesign(
        name=circuit.name,
        source=circuit,
        mapped=mapped,
        placement=placement,
        plan=plan,
    )
    with obs.span("layout.emit") as emit_span:
        # Row bases from channel heights (channel r sits below row r).
        y = 0.0
        for r in range(placement.n_rows):
            y += plan.channel_height(r)
            design.row_base.append(y)
            y += CELL_HEIGHT

        _emit_cells(design)
        _emit_rails_and_straps(design)
        _emit_routing(design)
        emit_span.set(n_shapes=len(design.shapes))
    return design


# ----------------------------------------------------------------------
# Emission passes
# ----------------------------------------------------------------------
def _emit_cells(design: LayoutDesign) -> None:
    """Every cell's shapes and devices, moved into place and owned by it."""
    shapes, transistors = design.shapes, design.transistors
    for placed in design.placement.cells:
        x, y = placed.x, design.row_base[placed.row]
        owner = placed.cell.instance
        for s in placed.cell.shapes:
            if s.purpose == "rail":
                continue  # replaced by the continuous per-row rails
            shapes.append(
                Rect(
                    s.layer,
                    s.llx + x,
                    s.lly + y,
                    s.urx + x,
                    s.ury + y,
                    s.net,
                    s.purpose,
                    owner,
                )
            )
        for t in placed.cell.transistors:
            transistors.append(
                Transistor(
                    t.name,
                    t.polarity,
                    t.gate,
                    t.source,
                    t.drain,
                    t.width,
                    t.length,
                    t.channel.translated(x, y),
                )
            )
        design.cell_of_net[placed.cell.output_net] = placed.cell


def _emit_rails_and_straps(design: LayoutDesign) -> None:
    shapes = design.shapes
    rows = design.placement.rows
    for r, row in enumerate(rows):
        if not row:
            continue
        base = design.row_base[r]
        # One continuous rail per row, from the power-strap margin to the
        # last cell — it also bridges the feedthrough lanes, where the
        # per-cell rail segments leave gaps.
        row_end = row[-1].x + row[-1].cell.width
        shapes.append(Rect(Layer.METAL1, 0.0, base + 0.0, row_end, base + 2.0, GND))
        shapes.append(Rect(Layer.METAL1, 0.0, base + 24.0, row_end, base + 26.0, VDD))
    if not design.row_base:
        return
    y_lo = design.row_base[0]
    y_hi = design.row_base[-1]
    shapes.append(Rect(Layer.METAL2, 1.25, y_lo + 0.25, 2.75, y_hi + 1.75, GND))
    shapes.append(Rect(Layer.METAL2, 4.75, y_lo + 24.25, 6.25, y_hi + 25.75, VDD))
    for base in design.row_base:
        shapes.append(Rect(Layer.VIA, 1.5, base + 0.5, 2.5, base + 1.5, GND))
        shapes.append(Rect(Layer.VIA, 5.0, base + 24.5, 6.0, base + 25.5, VDD))


def _trunk_y(design: LayoutDesign, channel: int, track: int) -> float:
    return design.row_base[channel] - design.plan.track_offset(track)


def _emit_routing(design: LayoutDesign) -> None:
    shapes = design.shapes
    source_pis = set(design.mapped.primary_inputs)
    source_pos = set(design.mapped.primary_outputs)

    for net_name, net_route in design.plan.nets.items():
        trunk_ys: dict[int, float] = {}
        for channel, (lo, hi, track) in net_route.trunks.items():
            yc = _trunk_y(design, channel, track)
            trunk_ys[channel] = yc
            shapes.append(Rect(Layer.METAL1, lo, yc - 0.75, hi, yc + 0.75, net_name))

        # Pad branches (vertical metal2 from trunk up to the pad band).
        for pin in net_route.pins:
            yc = trunk_ys[pin.row]
            pad_top = design.row_base[pin.row] - 1.0
            shapes.append(
                Rect(Layer.METAL2, pin.x - 0.75, yc - 0.75, pin.x + 0.75, pad_top, net_name)
            )
            shapes.append(
                Rect(Layer.VIA, pin.x - 0.5, yc - 0.5, pin.x + 0.5, yc + 0.5, net_name)
            )
            if pin.layer is Layer.METAL1:  # input pads need a pad-level via
                pad_mid = design.row_base[pin.row] - 2.0
                shapes.append(
                    Rect(
                        Layer.VIA,
                        pin.x - 0.5,
                        pad_mid - 0.5,
                        pin.x + 0.5,
                        pad_mid + 0.5,
                        net_name,
                    )
                )

        # Riser connecting multi-channel trunks.
        if net_route.riser_x is not None:
            channels = net_route.channels
            y_lo = trunk_ys[channels[0]] - 0.75
            y_hi = trunk_ys[channels[-1]] + 0.75
            rx = net_route.riser_x
            shapes.append(Rect(Layer.METAL2, rx - 0.75, y_lo, rx + 0.75, y_hi, net_name))
            for channel in channels:
                yc = trunk_ys[channel]
                shapes.append(
                    Rect(Layer.VIA, rx - 0.5, yc - 0.5, rx + 0.5, yc + 0.5, net_name)
                )

        # External port markers for primary inputs/outputs (anchor shapes the
        # open-fault analysis uses as the net's external driver/observer).
        if net_name in source_pis or net_name in source_pos:
            channels = net_route.channels
            if channels:
                channel = channels[0]
                lo, hi, track = net_route.trunks[channel]
                yc = trunk_ys[channel]
                # The marker lies on top of the trunk (no new metal), so it
                # can never create spacing conflicts of its own.
                if net_name in source_pis:
                    shapes.append(
                        Rect(Layer.METAL1, lo, yc - 0.75, min(lo + 2.0, hi), yc + 0.75, net_name, "port")
                    )
                else:
                    shapes.append(
                        Rect(Layer.METAL1, max(hi - 2.0, lo), yc - 0.75, hi, yc + 0.75, net_name, "port")
                    )
