"""Random-pattern test generation with coverage tracking.

Mirrors the paper's setup: "the first vectors are random vectors", achieving
more than 80 % stuck-at coverage before a deterministic generator tops up the
test set.  Generation stops when a target coverage is reached, when a run of
consecutive useless vectors exceeds a patience limit, or at a hard cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.atpg.patterns import TestSet, random_patterns
from repro.circuit.netlist import Circuit
from repro.simulation.faults import StuckAtFault, collapse_faults
from repro.simulation.numpy_sim import NumpyFaultSimulator

__all__ = [
    "RandomAtpgResult",
    "RandomStream",
    "generate_random_tests",
    "simulate_random_stream",
]

#: Vectors per generation batch; the stop rule is checked between batches.
_BATCH = 64


@dataclass
class RandomAtpgResult:
    """Outcome of random-pattern generation.

    Attributes
    ----------
    test_set:
        The accepted vectors (useless trailing vectors are kept: the paper's
        coverage curves need the full applied sequence, hits or not).
    detected:
        Faults detected by the sequence.
    undetected:
        Faults still undetected (input to deterministic ATPG).
    coverage:
        Final stuck-at coverage over the provided fault list.
    """

    test_set: TestSet
    detected: list[StuckAtFault]
    undetected: list[StuckAtFault]
    coverage: float


@dataclass
class RandomStream:
    """The random prefix's whole vector stream and its first detections.

    ``patterns`` holds every vector up to the cap, batch ``g`` drawn from
    ``random_patterns(n_inputs, n, seed=seed + g * 64)``; ``first_detection``
    maps each simulated fault a vector detects to that vector's 1-based
    position.  A fault missing from it is detected by no vector of the
    stream, which is what the pipeline's static analysis screens for.
    """

    seed: int
    patterns: list[list[int]]
    first_detection: dict[StuckAtFault, int]


def simulate_random_stream(
    circuit: Circuit,
    faults: list[StuckAtFault],
    max_patterns: int = 2048,
    seed: int = 1234,
) -> RandomStream:
    """Build the random stream up to ``max_patterns`` and simulate it once.

    The stream does not depend on the faults, so one simulation pass over
    the whole stream serves every consumer: random ATPG replays its stop
    rule from the first detections, and the pipeline's static analysis
    proves only the faults no vector detects.
    """
    n_inputs = len(circuit.primary_inputs)
    patterns: list[list[int]] = []
    for start in range(0, max_patterns, _BATCH):
        n_here = min(_BATCH, max_patterns - start)
        patterns += random_patterns(n_inputs, n_here, seed=seed + start)
    first_detection = (
        NumpyFaultSimulator(circuit).run(patterns, faults=faults).first_detection
        if patterns and faults
        else {}
    )
    return RandomStream(seed, patterns, first_detection)


def generate_random_tests(
    circuit: Circuit,
    faults: list[StuckAtFault] | None = None,
    target_coverage: float = 0.90,
    max_patterns: int = 2048,
    patience: int = 256,
    seed: int = 1234,
    word_width: int | None = None,
    stream: RandomStream | None = None,
) -> RandomAtpgResult:
    """Generate random vectors until coverage, patience, or cap is reached.

    Vectors come in batches of 64, batch ``g`` drawn from
    ``random_patterns(n_inputs, n, seed=seed + g * 64)``, and the stop rule
    is checked after each batch.  The stream does not depend on the faults,
    so it is built up to ``max_patterns`` and fault-simulated in one pass
    (:func:`simulate_random_stream`); the stop point then follows from each
    fault's first detection.

    Parameters
    ----------
    circuit:
        The combinational circuit under test.
    faults:
        Fault list to cover; defaults to the equivalence-collapsed universe.
    target_coverage:
        Stop once detected/total reaches this fraction.
    max_patterns:
        Hard cap on the number of generated vectors.
    patience:
        Stop once this many vectors have passed since the last vector that
        detected a new fault.
    seed:
        PRNG seed (results are fully reproducible).
    word_width:
        Retired and ignored; it never changed the generated sequence.
    stream:
        The stream already simulated by :func:`simulate_random_stream` with
        the same ``max_patterns`` and ``seed``, over these faults or more;
        the stop rule is replayed from it instead of simulating again.
    """
    if faults is None:
        faults = collapse_faults(circuit)
    n_inputs = len(circuit.primary_inputs)
    total = len(faults)
    with obs.span(
        "atpg.random", n_faults=total, target_coverage=target_coverage
    ) as random_span:
        if stream is None:
            stream = simulate_random_stream(circuit, faults, max_patterns, seed)
        elif (stream.seed, len(stream.patterns)) != (seed, max_patterns):
            raise ValueError(
                f"stream of {len(stream.patterns)} vectors from seed "
                f"{stream.seed} does not match max_patterns={max_patterns}, "
                f"seed={seed}"
            )
        first_detection = stream.first_detection
        # Per batch: its newly detected faults in input order, and the
        # 1-based position of its last new detection.
        hits: dict[int, list[StuckAtFault]] = {}
        last_hit: dict[int, int] = {}
        for fault in faults:
            k = first_detection.get(fault)
            if k is not None:
                batch, position = divmod(k - 1, _BATCH)
                hits.setdefault(batch, []).append(fault)
                last_hit[batch] = max(last_hit.get(batch, 0), position + 1)

        detected: list[StuckAtFault] = []
        useless_run = 0
        generated = 0
        while (
            len(detected) < total
            and generated < max_patterns
            and useless_run < patience
            and (total == 0 or len(detected) / total < target_coverage)
        ):
            batch = generated // _BATCH
            n_here = min(_BATCH, max_patterns - generated)
            generated += n_here
            if batch in hits:
                # The batch's vectors after its last hit start the useless run.
                useless_run = n_here - last_hit[batch]
                detected.extend(hits[batch])
            else:
                useless_run += n_here

        coverage = 1.0 if total == 0 else len(detected) / total
        random_span.set(n_patterns=generated, coverage=round(coverage, 4))
    obs.inc("random_atpg.patterns_generated", generated)
    obs.inc("random_atpg.faults_detected", len(detected))
    test_set = TestSet(n_inputs=n_inputs)
    test_set.extend(stream.patterns[:generated], "random")
    undetected = [
        f for f in faults if first_detection.get(f, generated + 1) > generated
    ]
    return RandomAtpgResult(
        test_set=test_set,
        detected=detected,
        undetected=undetected,
        coverage=coverage,
    )
