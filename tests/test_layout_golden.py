"""Golden digests of the generated layouts.

Each digest is the sha256 of every emitted shape in order (layer, the
``repr`` of its four coordinates, net, purpose, owner), every transistor in
order (its netlist fields and its translated channel rectangle), the
``cell_of_net`` map in insertion order and the routing plan's
``tracks_per_channel``.  Any change to which shapes are emitted, their order
or a single bit of a coordinate changes the digest.  A PR that changes a
value here must say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuit.iscas import load_benchmark
from repro.layout import build_layout
from repro.layout.design import LayoutDesign
from repro.layout.geometry import Rect

GOLDEN = {
    "c17": "6f3d8c8b9cd2cc59d0b962cecbd5ba7cc21030fa9d0d283e03b10691642a8efc",
    "mux8": "6f4a11c738296dc019f2c9581234743f6d8312d47586671668886cef9781d848",
    "dec4": "d094e8b9a54679a412ab0cd6b6721cadb8d44cd82c96d2107989617e35d90705",
    "par16": "0d7904e618a5f9d18e61aa2662d7ee217cae615e4a11f53f7439038ec544991a",
    "alu4": "75ee6b648cbc81eac44c5d9bb95451ad4cfb119cf23414522d0a28ed0850815c",
    "c432": "6c3f7ae014a42ce87260d9f505dc04f3a1818f15b3ad8796020782adc696421e",
}


def _rect_line(r: Rect) -> str:
    return (
        f"{r.layer.value}|{r.llx!r}|{r.lly!r}|{r.urx!r}|{r.ury!r}"
        f"|{r.net}|{r.purpose}|{r.owner}"
    )


def layout_digest(design: LayoutDesign) -> str:
    """sha256 over the shapes, transistors, cell map and track counts."""
    h = hashlib.sha256()
    for shape in design.shapes:
        h.update(f"S|{_rect_line(shape)}\n".encode())
    for t in design.transistors:
        h.update(
            (
                f"T|{t.name}|{t.polarity}|{t.gate}|{t.source}|{t.drain}"
                f"|{t.width!r}|{t.length!r}|{_rect_line(t.channel)}\n"
            ).encode()
        )
    for net, cell in design.cell_of_net.items():
        h.update(f"C|{net}|{cell.instance}\n".encode())
    for channel, tracks in design.plan.tracks_per_channel.items():
        h.update(f"R|{channel}|{tracks}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("circuit", sorted(GOLDEN))
def test_layout_digest_is_pinned(circuit):
    assert layout_digest(build_layout(load_benchmark(circuit))) == GOLDEN[circuit]
