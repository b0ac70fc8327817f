"""Find ATPG seeds whose c432 random prefix is as long as the default seed's.

The pipeline's random-ATPG phase stops at the first 64-vector batch that
reaches the coverage target, so the prefix length (and with it the
switch-level work, about half of a c432 run) moves by up to +-30% with the
seed.  ``run.py`` maps ``--seed`` onto the seeds this script prints, so every
``c432_paper`` input has the default's prefix length while its vectors
differ.  Re-run it when random ATPG or the pipeline's defaults change::

    PYTHONPATH=src python3 perfbench/pick_seeds.py 400
"""

from __future__ import annotations

import sys

from repro.analysis import analyze_circuit
from repro.atpg.random_atpg import generate_random_tests
from repro.circuit.iscas import load_benchmark
from repro.experiments.pipeline import ExperimentConfig
from repro.simulation.faults import collapse_faults


def prefix_length(circuit, screened, config: ExperimentConfig, seed: int) -> int:
    return len(
        generate_random_tests(
            circuit,
            screened,
            target_coverage=config.random_coverage_target,
            max_patterns=config.max_random_patterns,
            seed=seed,
            word_width=config.word_width,
        ).test_set
    )


def main() -> None:
    n_candidates = int(sys.argv[1]) if len(sys.argv) > 1 else 400
    config = ExperimentConfig(benchmark="c432")
    circuit = load_benchmark(config.benchmark)
    collapsed = collapse_faults(circuit)
    screened = analyze_circuit(
        circuit, faults=collapsed, prove=True, prover_depth=config.prover_depth
    ).screen(collapsed)
    target = prefix_length(circuit, screened, config, config.seed)
    print(f"default seed {config.seed}: prefix of {target} vectors", flush=True)
    for seed in range(1, n_candidates + 1):
        if prefix_length(circuit, screened, config, seed) == target:
            print(seed, flush=True)


if __name__ == "__main__":
    main()
