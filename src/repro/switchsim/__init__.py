"""Switch-level fault simulation of layout-extracted realistic faults."""

from repro.switchsim.coverage import TECHNIQUES, CoverageCurves, build_coverage
from repro.switchsim.simulator import (
    Detection,
    SwitchLevelFaultSimulator,
    SwitchSimResult,
)
from repro.switchsim.strengths import (
    N_STRENGTH,
    P_STRENGTH,
    PI_STRENGTH,
    SUPPLY_STRENGTH,
    cell_conductances,
    divider_value,
    resolve_contention,
    solve_with_tap,
)

__all__ = [
    "TECHNIQUES",
    "CoverageCurves",
    "Detection",
    "N_STRENGTH",
    "P_STRENGTH",
    "PI_STRENGTH",
    "SUPPLY_STRENGTH",
    "SwitchLevelFaultSimulator",
    "SwitchSimResult",
    "build_coverage",
    "cell_conductances",
    "divider_value",
    "resolve_contention",
    "solve_with_tap",
]
