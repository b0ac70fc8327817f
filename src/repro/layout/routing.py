"""Two-metal channel routing.

Routing model (matching the cell template in :mod:`repro.layout.cells`):

* every cell pin pad hangs in the channel *below* its row — inputs as metal1
  pads, outputs as metal2 pads;
* each net gets one horizontal **metal1 trunk** per channel it has pads in,
  on a track assigned by the classic left-edge algorithm;
* pads connect to their channel's trunk with short vertical **metal2
  branches** (via at the trunk; input pads also get a via at the pad);
* nets spanning several rows get one vertical **metal2 riser** connecting
  their trunks, placed on a free column found via a die-wide vertical-object
  registry (which also tracks pad branches and the cells' own metal2 drops,
  so no two metal2 verticals of different nets ever come closer than the
  metal2 spacing rule);
* vertical metal2 **power straps** at the left die edge tie the per-row
  VDD/GND rails together.

Channel heights are a *product* of routing (pad band + tracks + clearance),
so the router runs before absolute row positions exist; it works in
row/channel index space and :mod:`repro.layout.design` converts to absolute
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.layout.cells import PIN_BAND, VDD, GND
from repro.layout.geometry import DesignRules, Layer
from repro.layout.placement import Placement

__all__ = ["PinRef", "NetRoute", "RoutingPlan", "route"]

#: Track pitch for metal1 trunks inside channels.
TRACK_PITCH = 3.0
#: Channel space above the top track / below the pad band.
PAD_CLEARANCE = 5.25
#: Extra channel space under the bottom track (clearance to the row below).
BOTTOM_CLEARANCE = 2.25
#: Pad band depth (pads occupy the top 3 um of each channel).
PAD_DEPTH = -PIN_BAND[0]
#: Minimum centre-to-centre distance between metal2 verticals.
M2_COLUMN_PITCH = 3.5
#: Minimum edge-to-edge spacing between metal2 verticals of different nets.
_M2_SPACE = DesignRules().metal2_space


@dataclass(frozen=True)
class PinRef:
    """One cell pad: absolute x, owning row, and the pad's layer."""

    net: str
    x: float
    row: int
    layer: Layer


@dataclass
class NetRoute:
    """Routing assignment for one signal net."""

    net: str
    pins: list[PinRef] = field(default_factory=list)
    #: channel index -> (x_lo, x_hi, track) for the net's trunk there.
    trunks: dict[int, tuple[float, float, int]] = field(default_factory=dict)
    #: x column of the inter-channel riser, when the net spans channels.
    riser_x: float | None = None

    @property
    def channels(self) -> list[int]:
        """Channels in which this net has pads, ascending."""
        return sorted({pin.row for pin in self.pins})


@dataclass
class RoutingPlan:
    """Complete routing solution in row/channel index space."""

    nets: dict[str, NetRoute] = field(default_factory=dict)
    tracks_per_channel: dict[int, int] = field(default_factory=dict)

    def channel_height(self, channel: int) -> float:
        """Physical height of a channel given its track count.

        Measured from the row base downward: pad band (3 um) + clearance to
        the top track + (tracks - 1) pitches + half a trunk width + clearance
        to the row below; algebraically ``4.5 + 3 * tracks``.
        """
        tracks = self.tracks_per_channel.get(channel, 0)
        if tracks == 0:
            return PAD_DEPTH + 1.5
        return 4.5 + TRACK_PITCH * tracks

    def track_offset(self, track: int) -> float:
        """Trunk centreline y measured *down* from the row base."""
        return PAD_CLEARANCE + TRACK_PITCH * track


class _VerticalRegistry:
    """Die-wide registry of vertical metal2 objects for collision avoidance.

    Vertical extent is tracked in *zone units*: channel ``r`` is zone
    ``2r .. 2r+1`` and row ``r`` is zone ``2r+1 .. 2r+2``, which is enough to
    decide whether two verticals can overlap before absolute coordinates
    exist.  Entries are kept as columns ``(x_lo, x_hi, z_lo, z_hi)``; a
    probe tests all entries of its zone at once.
    """

    def __init__(self) -> None:
        self._entries = np.zeros((0, 4))
        self._pending: list[tuple[float, float, float, float]] = []

    @staticmethod
    def channel_zone(channel: int) -> tuple[float, float]:
        return (2 * channel, 2 * channel + 1)

    @staticmethod
    def span_zone(channel_lo: int, channel_hi: int) -> tuple[float, float]:
        return (2 * channel_lo, 2 * channel_hi + 1)

    @staticmethod
    def cell_drop_zone(row: int) -> tuple[float, float]:
        # A cell's internal metal2 output drop spans its channel and the
        # lower part of its row.
        return (2 * row, 2 * row + 2)

    def add(self, x_lo: float, x_hi: float, zone: tuple[float, float]) -> None:
        self._pending.append((x_lo, x_hi, zone[0], zone[1]))

    def _in_zone(self, zone: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
        """``(x_lo, x_hi)`` of the entries whose zone overlaps ``zone``."""
        if self._pending:
            self._entries = np.vstack((self._entries, self._pending))
            self._pending = []
        x_lo, x_hi, z_lo, z_hi = self._entries.T
        overlap = ~((zone[1] <= z_lo) | (z_hi <= zone[0]))
        return x_lo[overlap], x_hi[overlap]

    @staticmethod
    def _clear(
        entries: tuple[np.ndarray, np.ndarray], x_lo: float, x_hi: float
    ) -> bool:
        """True when no entry comes within the metal2 spacing of [x_lo, x_hi]."""
        ex_lo, ex_hi = entries
        return not ((x_lo - _M2_SPACE < ex_hi) & (ex_lo < x_hi + _M2_SPACE)).any()

    def is_free(self, x_lo: float, x_hi: float, zone: tuple[float, float]) -> bool:
        return self._clear(self._in_zone(zone), x_lo, x_hi)

    def find_column(
        self,
        preferred: float,
        zone: tuple[float, float],
        x_min: float,
        x_max: float,
        half_width: float = 0.75,
    ) -> float:
        """Nearest free column centre to ``preferred`` within [x_min, x_max]."""
        # Scan at half the column pitch: the probe enforces real spacing, and
        # the finer grid packs columns tightly into the feedthrough lanes.
        grain = M2_COLUMN_PITCH / 2
        entries = self._in_zone(zone)
        step = 0
        while step * grain < (x_max - x_min) + M2_COLUMN_PITCH:
            for sign in (1, -1) if step else (1,):
                x = preferred + sign * step * grain
                if not x_min <= x <= x_max:
                    continue
                if self._clear(entries, x - half_width, x + half_width):
                    self.add(x - half_width, x + half_width, zone)
                    return x
            step += 1
        raise RuntimeError(
            f"no free riser column near x={preferred:.1f} in [{x_min:.1f}, {x_max:.1f}]"
        )


def collect_pins(placement: Placement) -> dict[str, list[PinRef]]:
    """Gather absolute pad references per signal net from the placement."""
    pins: dict[str, list[PinRef]] = {}
    for placed in placement.cells:
        cell = placed.cell
        for net, pad in cell.pads:
            if net in (VDD, GND):
                continue
            x = placed.x + (pad.llx + pad.urx) / 2
            pins.setdefault(net, []).append(PinRef(net, x, placed.row, pad.layer))
    return pins


def route(placement: Placement) -> RoutingPlan:
    """Compute trunks, tracks and riser columns for every signal net."""
    pins = collect_pins(placement)
    registry = _VerticalRegistry()
    plan = RoutingPlan()

    # 1. Register the fixed verticals: pad branches and cell metal2 drops.
    for net, refs in pins.items():
        for ref in refs:
            if ref.layer is Layer.METAL2:
                # Output pads: the cell's internal metal2 drop includes a jog
                # reaching 2.25 um left of the pad (back to the spine via).
                zone = registry.cell_drop_zone(ref.row)
                registry.add(ref.x - 2.25, ref.x + 0.75, zone)
            else:
                registry.add(ref.x - 0.75, ref.x + 0.75, registry.channel_zone(ref.row))

    # 2. Allocate riser columns for multi-channel nets.  x_min keeps risers
    # a full metal2 space away from the power straps at the left die edge;
    # longest spans go first (first-fit-decreasing packs columns much better
    # than arbitrary order).
    x_min = 9.0
    x_max = placement.die_width + 250.0
    for net in sorted(pins):
        plan.nets[net] = NetRoute(net=net, pins=pins[net])
    multi_row = [nr for nr in plan.nets.values() if len(nr.channels) > 1]
    multi_row.sort(key=lambda nr: nr.channels[-1] - nr.channels[0], reverse=True)
    for net_route in multi_row:
        channels = net_route.channels
        xs = sorted(ref.x for ref in net_route.pins)
        preferred = xs[len(xs) // 2]
        zone = registry.span_zone(channels[0], channels[-1])
        net_route.riser_x = registry.find_column(preferred, zone, x_min, x_max)

    # 3. Left-edge track assignment per channel.
    per_channel: dict[int, list[tuple[float, float, NetRoute]]] = {}
    for net_route in plan.nets.values():
        for channel in net_route.channels:
            xs = [ref.x for ref in net_route.pins if ref.row == channel]
            if net_route.riser_x is not None:
                xs.append(net_route.riser_x)
            lo, hi = min(xs) - 1.0, max(xs) + 1.0
            per_channel.setdefault(channel, []).append((lo, hi, net_route))

    margin = 2.25
    for channel, intervals in per_channel.items():
        intervals.sort(key=lambda item: item[0])
        track_right: list[float] = []
        for lo, hi, net_route in intervals:
            placed_track = None
            for t, right in enumerate(track_right):
                if right + margin <= lo:
                    placed_track = t
                    break
            if placed_track is None:
                placed_track = len(track_right)
                track_right.append(hi)
            else:
                track_right[placed_track] = hi
            net_route.trunks[channel] = (lo, hi, placed_track)
        plan.tracks_per_channel[channel] = len(track_right)

    return plan
