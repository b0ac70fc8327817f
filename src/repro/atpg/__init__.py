"""Test generation substrate: PRPG, random ATPG, PODEM, compaction."""

from repro.atpg.bridge_atpg import (
    BridgeAtpgResult,
    FeedbackBridgeError,
    build_bridge_miter,
    generate_bridge_tests,
)
from repro.atpg.compaction import compact_test_set
from repro.atpg.patterns import Lfsr, TestSet, random_patterns
from repro.atpg.podem import (
    AtpgOutcome,
    AtpgStatus,
    DeterministicAtpgResult,
    PodemAtpg,
    generate_deterministic_tests,
    scoap_controllability,
)
from repro.atpg.random_atpg import (
    RandomAtpgResult,
    RandomStream,
    generate_random_tests,
    simulate_random_stream,
)

__all__ = [
    "AtpgOutcome",
    "AtpgStatus",
    "BridgeAtpgResult",
    "DeterministicAtpgResult",
    "FeedbackBridgeError",
    "Lfsr",
    "PodemAtpg",
    "RandomAtpgResult",
    "RandomStream",
    "TestSet",
    "build_bridge_miter",
    "compact_test_set",
    "generate_bridge_tests",
    "generate_deterministic_tests",
    "generate_random_tests",
    "random_patterns",
    "scoap_controllability",
    "simulate_random_stream",
]
