"""Golden digests of the extracted fault lists.

Each digest is the sha256 of every extracted fault, in list order, as
(class, behavioural key, origin mechanisms, ``repr(weight)``).  Any change
to which faults are extracted, their merge order or a single bit of a weight
changes the digest.  A PR that changes a value here must say why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.circuit.iscas import load_benchmark
from repro.defects import extract_faults
from repro.layout import build_layout

GOLDEN = {
    "c17": "c68f063f0a3950bb499a13df8ed3b796309b74cc1eba68916053f45a51f43d4f",
    "mux8": "fc81e8a867f240d078e1a908d987941ec9d619af09af8396033950b6cc0ebe87",
    "dec4": "f9adff78706be889d7e353152289636bcce6ffb1a4dc2e2b69a326e47ab80558",
    "par16": "aaa6180e0337720b65a8987bf0c58f49205b3cc7111f8356347f36441ed82e2f",
    "alu4": "1fd34a6feb4e4d7eed5d877445fe69b4f9360b4e0a5d761a9b8b2dfd998151d1",
    "c432": "4ce32162a54e1ba5caf0a4e33322c455c1a39306de777b0d065ae59ec45debb2",
}


def fault_list_digest(faults) -> str:
    """sha256 over (class, key, origin, repr(weight)) of every fault, in order."""
    h = hashlib.sha256()
    for fault in faults:
        origin = ",".join(m.value for m in fault.origin)
        line = f"{type(fault).__name__}|{fault.key()!r}|{origin}|{fault.weight!r}\n"
        h.update(line.encode())
    return h.hexdigest()


@pytest.mark.parametrize("circuit", sorted(GOLDEN))
def test_extraction_digest_is_pinned(circuit):
    design = build_layout(load_benchmark(circuit))
    assert fault_list_digest(extract_faults(design)) == GOLDEN[circuit]
