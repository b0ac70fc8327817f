"""Gate-level simulation substrate: logic sim, stuck-at faults, fault sim."""

from repro.simulation.fault_sim import ConeIndex, FaultSimResult, FaultSimulator
from repro.simulation.faults import (
    FaultSite,
    StuckAtFault,
    collapse_faults,
    full_fault_universe,
)
from repro.simulation.logic_sim import LogicSimulator, pack_patterns, unpack_word
from repro.simulation.numpy_sim import NumpyFaultSimulator, pack_bitslice
from repro.simulation.transition import (
    TransitionFault,
    TransitionFaultSimulator,
    TransitionSimResult,
    transition_universe,
)

__all__ = [
    "ConeIndex",
    "FaultSimResult",
    "FaultSimulator",
    "FaultSite",
    "LogicSimulator",
    "NumpyFaultSimulator",
    "StuckAtFault",
    "TransitionFault",
    "TransitionFaultSimulator",
    "TransitionSimResult",
    "collapse_faults",
    "full_fault_universe",
    "pack_bitslice",
    "pack_patterns",
    "transition_universe",
    "unpack_word",
]
