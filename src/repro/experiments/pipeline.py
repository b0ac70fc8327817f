"""The paper's end-to-end evaluation pipeline.

One run reproduces the experimental setup of section 3:

1. take a benchmark circuit (c432-class by default);
2. generate the stuck-at test sequence — a random prefix (>80 % coverage)
   topped off by deterministic (PODEM) vectors, exactly the paper's recipe;
3. gate-level fault simulation of the sequence -> ``T(k)`` over the
   equivalence-collapsed, provably-irredundant stuck-at universe (the paper
   neglects redundant faults so that T -> 1);
4. build the standard-cell layout, extract weighted realistic faults, and
   rescale the weights so the predicted yield is Y = 0.75 (the paper's
   yield-scaling step);
5. switch-level fault simulation of the same sequence -> ``theta(k)``
   (weighted) and ``Gamma(k)`` (unweighted);
6. assemble ``DL(theta(k))`` (eq. 3) and fit eq. 11's ``(R, theta_max)`` to
   the ``(T(k), DL(theta(k)))`` points.

Results are memoised per configuration: every figure bench shares one run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

from repro import obs
from repro.analysis import AnalysisResult, analyze_circuit
from repro.atpg.podem import generate_deterministic_tests
from repro.atpg.random_atpg import (
    generate_random_tests,
    simulate_random_stream,
)
from repro.circuit.iscas import load_benchmark
from repro.circuit.netlist import Circuit
from repro.core.defect_level import weighted_defect_level
from repro.core.fitting import SousaFit, fit_sousa_model
from repro.defects.extraction import extract_faults
from repro.defects.fault_types import FaultList
from repro.defects.statistics import DefectStatistics
from repro.layout.design import LayoutDesign, build_layout
from repro.obs.manifest import RETIRED_FIELDS, config_hash
from repro.simulation.fault_sim import FaultSimResult
from repro.simulation.faults import StuckAtFault, collapse_faults
from repro.simulation.numpy_sim import NumpyFaultSimulator
from repro.switchsim.coverage import TECHNIQUES, CoverageCurves, build_coverage
from repro.switchsim.simulator import SwitchLevelFaultSimulator, SwitchSimResult

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment", "cache_info"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of one pipeline run (hashable: results are memoised)."""

    benchmark: str = "c432"
    target_yield: float = 0.75
    random_coverage_target: float = 0.90
    max_random_patterns: int = 768
    backtrack_limit: int = 2000
    seed: int = 1234
    statistics: DefectStatistics | None = None
    detection: str = "voltage"
    #: When False, the paper's deterministic (PODEM) top-off is skipped and
    #: only the random prefix is applied (vector-source ablation).
    deterministic_topoff: bool = True

    def __post_init__(self) -> None:
        """Reject invalid knobs at construction, not mid-pipeline."""
        if not 0.0 < self.target_yield <= 1.0:
            raise ValueError(
                f"target_yield must be in (0, 1], got {self.target_yield}"
            )
        if not 0.0 < self.random_coverage_target <= 1.0:
            raise ValueError(
                "random_coverage_target must be in (0, 1], got "
                f"{self.random_coverage_target}"
            )
        if self.max_random_patterns < 0:
            raise ValueError(
                "max_random_patterns must be non-negative, got "
                f"{self.max_random_patterns}"
            )
        if self.backtrack_limit < 0:
            raise ValueError(
                f"backtrack_limit must be non-negative, got {self.backtrack_limit}"
            )
        if self.detection not in TECHNIQUES:
            raise ValueError(
                f"detection must be one of {TECHNIQUES}, got {self.detection!r}"
            )

    def __hash__(self) -> int:  # DefectStatistics carries dicts
        return hash(config_hash(self))

    @property
    def prover_depth(self) -> object:
        """Retired field, read as its historical value.

        The prover no longer has recursive learning; this stays readable so
        older scripts such as ``perfbench/pick_seeds.py`` keep working.
        """
        return RETIRED_FIELDS["ExperimentConfig"]["prover_depth"]

    @property
    def word_width(self) -> object:
        """Retired field, read as its historical value (None: engine default).

        Stuck-at fault simulation has one engine at its default width now;
        this stays readable for ``perfbench/pick_seeds.py``.
        """
        return RETIRED_FIELDS["ExperimentConfig"]["word_width"]


@dataclass
class ExperimentResult:
    """Everything the figure reproductions need from one pipeline run."""

    config: ExperimentConfig
    circuit: Circuit
    design: LayoutDesign
    test_patterns: list[list[int]]
    n_random: int
    stuck_faults: list[StuckAtFault]
    redundant_faults: list[StuckAtFault]
    static_untestable: list[StuckAtFault]
    analysis: AnalysisResult
    stuck_result: FaultSimResult
    realistic_faults: FaultList
    switch_result: SwitchSimResult
    coverage: CoverageCurves
    sample_ks: list[int] = field(default_factory=list)
    #: Descriptor of the fault-simulation engine that produced
    #: ``stuck_result``: ``{"kind": "numpy", "word_width": 1024}``.
    engine: dict[str, object] = field(default_factory=dict)
    #: PODEM search statistics from the deterministic top-off: total
    #: backtracks plus learned-implication prune/conflict counts (empty when
    #: the top-off was skipped).
    podem_stats: dict[str, int] = field(default_factory=dict)

    # -- per-k series ------------------------------------------------------
    def T_at(self, k: int) -> float:
        """Stuck-at coverage over the irredundant collapsed universe."""
        return self.stuck_result.coverage_at(k)

    def theta_at(self, k: int) -> float:
        """Weighted realistic coverage (eq. 6)."""
        return self.coverage.theta_at(k)

    def gamma_at(self, k: int) -> float:
        """Unweighted realistic coverage."""
        return self.coverage.gamma_at(k)

    def dl_at(self, k: int) -> float:
        """'Actual' defect level DL(theta(k)) via eq. 3."""
        return weighted_defect_level(self.config.target_yield, self.theta_at(k))

    def series(self) -> list[tuple[int, float, float, float, float]]:
        """(k, T, theta, Gamma, DL) rows at the sample vector counts."""
        return [
            (k, self.T_at(k), self.theta_at(k), self.gamma_at(k), self.dl_at(k))
            for k in self.sample_ks
        ]

    def fit(self) -> SousaFit:
        """Fit eq. 11's (R, theta_max) to the (T(k), DL(theta(k))) points."""
        points = [
            (self.T_at(k), self.dl_at(k))
            for k in self.sample_ks
            if self.T_at(k) > 0
        ]
        coverages = [p[0] for p in points]
        dls = [p[1] for p in points]
        return fit_sousa_model(coverages, dls, self.config.target_yield)

    @property
    def theta_max(self) -> float:
        """Saturation value of the measured theta(k)."""
        return self.coverage.theta_max

    @property
    def final_T(self) -> float:
        """Final stuck-at coverage of the complete sequence."""
        return self.stuck_result.coverage


def _sample_ks(n_patterns: int) -> list[int]:
    ks: list[int] = []
    k = 1
    while k < n_patterns:
        ks.append(k)
        k = max(k + 1, int(k * 1.4))
    ks.append(n_patterns)
    return ks


def _run_pipeline(config: ExperimentConfig) -> ExperimentResult:
    with obs.span(
        "pipeline.run", benchmark=config.benchmark, seed=config.seed
    ):
        with obs.span("pipeline.load_benchmark", benchmark=config.benchmark):
            circuit = load_benchmark(config.benchmark)

        # --- stuck-at universe and test sequence (paper section 3) ---
        with obs.span("pipeline.collapse_faults") as collapse_span:
            collapsed = collapse_faults(circuit)
            collapse_span.set(n_faults=len(collapsed))

        # Static analysis: provably-untestable faults leave the coverage
        # denominator before ATPG — the same "redundant faults can be
        # neglected" assumption the paper makes, applied where the
        # certified redundancy prover can show it without search.  A fault
        # that any vector detects cannot be proved untestable, so the whole
        # random stream is simulated first, once, and analysis sees only the
        # faults it leaves undetected; random ATPG then replays its stop
        # rule from the same simulation.  SCOAP measures and the prover's
        # learned implications are reused by PODEM.
        with obs.span("pipeline.random_stream", n_faults=len(collapsed)):
            stream = simulate_random_stream(
                circuit,
                collapsed,
                max_patterns=config.max_random_patterns,
                seed=config.seed,
            )
        with obs.span("pipeline.static_analysis"):
            analysis = analyze_circuit(
                circuit,
                faults=[f for f in collapsed if f not in stream.first_detection],
            )
            static_untestable = analysis.untestable_faults()
            screened = analysis.screen(collapsed)
        learned = analysis.prover.learned if analysis.prover is not None else None

        random_result = generate_random_tests(
            circuit,
            screened,
            target_coverage=config.random_coverage_target,
            max_patterns=config.max_random_patterns,
            seed=config.seed,
            stream=stream,
        )
        patterns: list[list[int]] = list(random_result.test_set.patterns)
        n_random = len(random_result.test_set)
        redundant: list[StuckAtFault] = []
        podem_stats: dict[str, int] = {}
        if config.deterministic_topoff:
            deterministic = generate_deterministic_tests(
                circuit,
                random_result.undetected,
                backtrack_limit=config.backtrack_limit,
                untestable=static_untestable,
                scoap=analysis.scoap,
                learned=learned,
            )
            # The paper assumes "redundant faults can be neglected, so
            # T(k) -> 1".  Proven-redundant faults are excluded from the
            # coverage denominator; backtrack-aborted faults (overwhelmingly
            # redundant too at this limit — see tests/test_podem.py) are
            # excluded alongside, reported.
            redundant = list(deterministic.redundant) + list(deterministic.aborted)
            patterns += deterministic.test_set.patterns
            podem_stats = {
                "backtracks": deterministic.backtracks,
                "learned_prunes": deterministic.learned_prunes,
                "learned_conflicts": deterministic.learned_conflicts,
            }
        excluded = set(redundant)
        testable = [f for f in screened if f not in excluded]
        obs.set_gauge("pipeline.n_patterns", len(patterns))
        obs.set_gauge("pipeline.n_stuck_faults", len(testable))
        obs.set_gauge("pipeline.n_untestable_static", len(static_untestable))
        if analysis.prover is not None:
            obs.set_gauge("pipeline.n_proved", len(analysis.prover.proved))

        with obs.span("pipeline.stuck_fault_sim", n_patterns=len(patterns)):
            stuck_sim = NumpyFaultSimulator(circuit)
            stuck_result = stuck_sim.run(patterns, faults=testable)
        engine: dict[str, object] = {
            "kind": stuck_sim.kind,
            "word_width": stuck_sim.width,
        }

        # --- layout, extraction, yield scaling ---
        with obs.span("pipeline.build_layout"):
            design = build_layout(circuit)

        statistics = config.statistics or DefectStatistics()
        faults = extract_faults(design, statistics)
        with obs.span("pipeline.scale_weights"):
            # Rebinding frees the unscaled list before switch-level
            # simulation, the run's memory peak.
            faults = faults.scaled_to_yield(config.target_yield)
        if obs.is_enabled():
            for fault in faults:
                obs.observe("weights.scaled", fault.weight)

        # --- switch-level simulation of the same sequence ---
        with obs.span("pipeline.switch_sim_setup"):
            switch = SwitchLevelFaultSimulator(design, patterns)
        switch_result = switch.run(faults.faults)
        with obs.span("pipeline.build_coverage"):
            coverage = build_coverage(
                faults, switch_result, technique=config.detection
            )
        obs.set_gauge("pipeline.theta_max", coverage.theta_max)
        obs.set_gauge("pipeline.final_T", stuck_result.coverage)

    return ExperimentResult(
        config=config,
        circuit=circuit,
        design=design,
        test_patterns=patterns,
        n_random=n_random,
        stuck_faults=testable,
        redundant_faults=redundant,
        static_untestable=static_untestable,
        analysis=analysis,
        stuck_result=stuck_result,
        realistic_faults=faults,
        switch_result=switch_result,
        coverage=coverage,
        sample_ks=_sample_ks(len(patterns)),
        engine=engine,
        podem_stats=podem_stats,
    )


@lru_cache(maxsize=8)
def _run_cached(config: ExperimentConfig) -> ExperimentResult:
    return _run_pipeline(config)


def run_experiment(config: ExperimentConfig | None = None) -> ExperimentResult:
    """Run (or fetch the memoised) end-to-end pipeline for ``config``.

    The run is memoised in-process per configuration, reported through the
    ``pipeline.cache_hit`` / ``pipeline.cache_miss`` counters (and
    observable without enabling metrics via :func:`cache_info` deltas).
    Recovery from an interrupted run is per whole experiment: ``campaign
    run``/``resume`` (:mod:`repro.campaign`) journal each job.
    """
    config = config or ExperimentConfig()
    hits_before = _run_cached.cache_info().hits
    result = _run_cached(config)
    if _run_cached.cache_info().hits > hits_before:
        obs.inc("pipeline.cache_hit")
    else:
        obs.inc("pipeline.cache_miss")
    return result


def cache_info():
    """The memoisation statistics of the pipeline (``functools`` CacheInfo)."""
    return _run_cached.cache_info()


def scaled_weight_check(result: ExperimentResult) -> float:
    """Sanity: the scaled fault list's predicted yield (should equal target)."""
    return math.exp(-result.realistic_faults.total_weight())
