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
import time
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro import obs
from repro.analysis import AnalysisResult, analyze_circuit
from repro.atpg.podem import generate_deterministic_tests
from repro.atpg.random_atpg import generate_random_tests
from repro.circuit.iscas import load_benchmark
from repro.circuit.netlist import Circuit
from repro.core.defect_level import weighted_defect_level
from repro.core.fitting import SousaFit, fit_sousa_model
from repro.defects.extraction import extract_faults
from repro.defects.fault_types import FaultList
from repro.defects.statistics import DefectStatistics
from repro.layout.design import LayoutDesign, build_layout
from repro.obs.events import CheckpointEvent, StageEvent
from repro.obs.manifest import RETIRED_FIELDS, config_hash
from repro.resilience import chaos
from repro.resilience.checkpoint import CheckpointStore
from repro.resilience.errors import CheckpointCorruptError
from repro.simulation.fault_sim import FaultSimResult
from repro.simulation.faults import StuckAtFault, collapse_faults
from repro.simulation.numpy_sim import NumpyFaultSimulator
from repro.switchsim.coverage import CoverageCurves, build_coverage
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
    #: When True (default), the static-analysis pass runs before ATPG:
    #: provably-untestable faults are excluded from the coverage denominator
    #: up front (alongside PODEM-proven redundancies) and SCOAP measures are
    #: shared with the PODEM backtrace.  False is the ablation switch.
    static_analysis: bool = True
    #: When True (default, and only meaningful with ``static_analysis``), the
    #: proof-carrying redundancy prover runs on top of the implication
    #: screen: every extra fault it removes from the denominator carries a
    #: certificate validated by the independent checker, and its static
    #: learned implications are handed to the PODEM search.  False falls
    #: back to the bare screen (ablation switch).
    prove_redundancy: bool = True

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
    analysis: AnalysisResult | None
    stuck_result: FaultSimResult
    realistic_faults: FaultList
    switch_result: SwitchSimResult
    coverage: CoverageCurves
    sample_ks: list[int] = field(default_factory=list)
    #: Descriptor of the fault-simulation engine that produced
    #: ``stuck_result``: ``{"kind": "numpy", "word_width": 1024}``.
    engine: dict[str, object] = field(default_factory=dict)
    #: Stage names restored from checkpoints (empty without a checkpoint dir).
    stages_restored: list[str] = field(default_factory=list)
    #: Stage names computed (and checkpointed, when a store is attached).
    stages_recomputed: list[str] = field(default_factory=list)
    #: PODEM search statistics from the deterministic top-off: total
    #: backtracks plus learned-implication prune/conflict counts (empty when
    #: the top-off was skipped).
    podem_stats: dict[str, int] = field(default_factory=dict)

    def resilience_info(self) -> dict[str, object]:
        """Which stages were restored from checkpoints, for manifests."""
        return {
            "stages_restored": list(self.stages_restored),
            "stages_recomputed": list(self.stages_recomputed),
        }

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


def _make_stage_runner(
    store: CheckpointStore | None,
    resume: bool,
    restored: list[str],
    recomputed: list[str],
) -> Callable:
    """Build the run-one-stage closure used by :func:`_run_pipeline`.

    A stage either restores its artifact from the checkpoint store (resume
    mode, verified payload present and decodable against the current run) or
    computes it, persists it, and passes the ``pipeline.stage`` chaos point —
    the hook tests and the CI chaos-smoke job use to simulate a crash
    *between* stages.
    """

    def run_stage(
        name: str,
        compute: Callable[[], object],
        encode: Callable | None = None,
        decode: Callable | None = None,
    ) -> object:
        emit_events = obs.events_enabled()
        stage_t0 = time.perf_counter()
        if emit_events:
            obs.emit(StageEvent(stage=name, status="start"))
        if store is not None and resume:
            payload = store.load(name)
            if payload is not None:
                try:
                    value = decode(payload) if decode is not None else payload
                except Exception as exc:
                    # The file verified but its content no longer matches
                    # this run (e.g. artifact shape drift): same policy as
                    # corruption — strict raises, tolerant recomputes.
                    if store.strict:
                        raise CheckpointCorruptError(
                            f"checkpoint for stage {name!r} does not match "
                            f"this run: {exc}"
                        ) from exc
                    warnings.warn(
                        f"checkpoint for stage {name!r} does not match this "
                        f"run ({exc}); recomputing",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    obs.inc("resilience.checkpoints_corrupt")
                    if emit_events:
                        obs.emit(
                            CheckpointEvent(
                                stage=name,
                                action="corrupt",
                                path=str(store.path_for(name)),
                            )
                        )
                else:
                    restored.append(name)
                    obs.inc("resilience.stages_restored")
                    if emit_events:
                        obs.emit(
                            CheckpointEvent(
                                stage=name,
                                action="restore",
                                path=str(store.path_for(name)),
                            )
                        )
                        obs.emit(
                            StageEvent(
                                stage=name,
                                status="end",
                                wall_s=time.perf_counter() - stage_t0,
                                data={"source": "checkpoint"},
                            )
                        )
                    return value
        value = compute()
        if store is not None:
            saved_path = store.save(
                name, encode(value) if encode is not None else value
            )
            if emit_events:
                obs.emit(
                    CheckpointEvent(
                        stage=name, action="save", path=str(saved_path)
                    )
                )
        recomputed.append(name)
        obs.inc("resilience.stages_recomputed")
        if emit_events:
            obs.emit(
                StageEvent(
                    stage=name,
                    status="end",
                    wall_s=time.perf_counter() - stage_t0,
                    data={"source": "computed"},
                )
            )
        chaos.maybe_inject("pipeline.stage", key=name)
        return value

    return run_stage


def _run_pipeline(
    config: ExperimentConfig,
    store: CheckpointStore | None = None,
    resume: bool = False,
) -> ExperimentResult:
    restored: list[str] = []
    recomputed: list[str] = []
    run_stage = _make_stage_runner(store, resume, restored, recomputed)

    pipeline_t0 = time.perf_counter()
    if obs.events_enabled():
        obs.emit(
            StageEvent(
                stage="pipeline",
                status="start",
                data={"benchmark": config.benchmark, "seed": config.seed},
            )
        )
    with obs.span(
        "pipeline.run", benchmark=config.benchmark, seed=config.seed
    ):
        with obs.span("pipeline.load_benchmark", benchmark=config.benchmark):
            circuit = load_benchmark(config.benchmark)

        # --- stuck-at universe and test sequence (paper section 3) ---
        with obs.span("pipeline.collapse_faults"):
            collapsed = collapse_faults(circuit)

        # Static analysis: provably-untestable faults leave the coverage
        # denominator before any vector is generated — the same "redundant
        # faults can be neglected" assumption the paper makes, applied where
        # redundancy is provable without search.  SCOAP measures are reused
        # by the PODEM backtrace.  Deterministic and cheap relative to the
        # simulation stages, it is recomputed rather than checkpointed.
        analysis: AnalysisResult | None = None
        static_untestable: list[StuckAtFault] = []
        screened = collapsed
        if config.static_analysis:
            with obs.span("pipeline.static_analysis"):
                analysis = analyze_circuit(
                    circuit,
                    faults=collapsed,
                    prove=config.prove_redundancy,
                )
                static_untestable = analysis.untestable_faults()
                screened = analysis.screen(collapsed)
        learned = (
            analysis.prover.learned
            if analysis is not None and analysis.prover is not None
            else None
        )

        def compute_atpg() -> dict[str, object]:
            random_result = generate_random_tests(
                circuit,
                screened,
                target_coverage=config.random_coverage_target,
                max_patterns=config.max_random_patterns,
                seed=config.seed,
            )
            if config.deterministic_topoff:
                deterministic = generate_deterministic_tests(
                    circuit,
                    random_result.undetected,
                    backtrack_limit=config.backtrack_limit,
                    untestable=static_untestable,
                    scoap=analysis.scoap if analysis is not None else None,
                    learned=learned,
                )
                # The paper assumes "redundant faults can be neglected, so
                # T(k) -> 1".  Proven-redundant faults are excluded from the
                # coverage denominator; backtrack-aborted faults
                # (overwhelmingly redundant too at this limit — see
                # tests/test_podem.py) are excluded alongside, reported.
                redundant = list(deterministic.redundant) + list(
                    deterministic.aborted
                )
                deterministic_patterns = list(deterministic.test_set.patterns)
                podem_stats = {
                    "backtracks": deterministic.backtracks,
                    "learned_prunes": deterministic.learned_prunes,
                    "learned_conflicts": deterministic.learned_conflicts,
                }
            else:
                redundant = []
                deterministic_patterns = []
                podem_stats = {}
            excluded = set(redundant)
            return {
                "patterns": list(random_result.test_set.patterns)
                + deterministic_patterns,
                "n_random": len(random_result.test_set),
                "redundant": redundant,
                "testable": [f for f in screened if f not in excluded],
                "podem_stats": podem_stats,
            }

        atpg = run_stage("atpg", compute_atpg)
        patterns: list[list[int]] = atpg["patterns"]
        n_random: int = atpg["n_random"]
        redundant: list[StuckAtFault] = atpg["redundant"]
        testable: list[StuckAtFault] = atpg["testable"]
        # Checkpoints written before the podem_stats key existed decode to a
        # dict without it; degrade to empty stats rather than KeyError.
        podem_stats: dict[str, int] = atpg.get("podem_stats", {})
        obs.set_gauge("pipeline.n_patterns", len(patterns))
        obs.set_gauge("pipeline.n_stuck_faults", len(testable))
        obs.set_gauge("pipeline.n_untestable_static", len(static_untestable))
        if analysis is not None and analysis.prover is not None:
            obs.set_gauge(
                "pipeline.n_proved", len(analysis.prover.proved)
            )

        def compute_stuck() -> dict[str, object]:
            with obs.span("pipeline.stuck_fault_sim", n_patterns=len(patterns)):
                stuck_sim = NumpyFaultSimulator(circuit)
                result = stuck_sim.run(patterns, faults=testable)
            return {
                "result": result,
                "engine": {"kind": stuck_sim.kind, "word_width": stuck_sim.width},
            }

        stuck = run_stage("stuck_sim", compute_stuck)
        stuck_result: FaultSimResult = stuck["result"]
        engine: dict[str, object] = stuck["engine"]

        # --- layout, extraction, yield scaling ---
        with obs.span("pipeline.build_layout"):
            design = build_layout(circuit)

        def compute_extraction() -> FaultList:
            statistics = config.statistics or DefectStatistics()
            return extract_faults(design, statistics).scaled_to_yield(
                config.target_yield
            )

        faults = run_stage("extraction", compute_extraction)
        if obs.is_enabled():
            for fault in faults:
                obs.observe("weights.scaled", fault.weight)

        # --- switch-level simulation of the same sequence ---
        def compute_switch() -> SwitchSimResult:
            with obs.span("pipeline.switch_sim_setup"):
                switch = SwitchLevelFaultSimulator(design, patterns)
            return switch.run(faults.faults)

        switch_result = run_stage(
            "switch_sim",
            compute_switch,
            encode=_encode_switch_result,
            decode=lambda payload: _decode_switch_result(payload, faults.faults),
        )
        with obs.span("pipeline.build_coverage"):
            coverage = build_coverage(
                faults, switch_result, technique=config.detection
            )
        obs.set_gauge("pipeline.theta_max", coverage.theta_max)
        obs.set_gauge("pipeline.final_T", stuck_result.coverage)

    if obs.events_enabled():
        obs.emit(
            StageEvent(
                stage="pipeline",
                status="end",
                wall_s=time.perf_counter() - pipeline_t0,
                data={
                    "benchmark": config.benchmark,
                    "coverage": round(stuck_result.coverage, 4),
                    "n_patterns": len(patterns),
                },
            )
        )
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
        stages_restored=restored,
        stages_recomputed=recomputed,
        podem_stats=podem_stats,
    )


def _encode_switch_result(result: SwitchSimResult) -> dict[str, object]:
    """Re-key a switch-sim result from ``id(fault)`` to fault-list indices.

    ``SwitchSimResult`` keys detections by object identity, which pickling
    cannot preserve; the extraction order is deterministic, so indices into
    ``result.faults`` are a stable checkpoint representation.
    """
    index_of = {id(fault): i for i, fault in enumerate(result.faults)}
    return {
        "n_faults": len(result.faults),
        "n_patterns": result.n_patterns,
        "first_detection": {
            index_of[key]: k for key, k in result.first_detection.items()
        },
        "first_detection_potential": {
            index_of[key]: k
            for key, k in result.first_detection_potential.items()
        },
        "first_detection_iddq": {
            index_of[key]: k for key, k in result.first_detection_iddq.items()
        },
        "iddq_peak": {index_of[key]: v for key, v in result.iddq_peak.items()},
    }


def _decode_switch_result(
    payload: dict[str, object], faults: list
) -> SwitchSimResult:
    """Rebuild a switch-sim result against the current extraction's faults."""
    if payload["n_faults"] != len(faults):
        raise ValueError(
            f"checkpoint covers {payload['n_faults']} realistic faults, the "
            f"current extraction has {len(faults)}"
        )

    def rekey(name: str) -> dict[int, object]:
        return {id(faults[i]): v for i, v in payload[name].items()}

    return SwitchSimResult(
        faults=list(faults),
        first_detection=rekey("first_detection"),
        first_detection_potential=rekey("first_detection_potential"),
        first_detection_iddq=rekey("first_detection_iddq"),
        iddq_peak=rekey("iddq_peak"),
        n_patterns=payload["n_patterns"],
    )


@lru_cache(maxsize=8)
def _run_cached(config: ExperimentConfig) -> ExperimentResult:
    return _run_pipeline(config)


def run_experiment(
    config: ExperimentConfig | None = None,
    *,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    strict_checkpoints: bool = False,
) -> ExperimentResult:
    """Run (or fetch the memoised) end-to-end pipeline for ``config``.

    Without ``checkpoint_dir`` the run is memoised in-process per
    configuration, reported through the ``pipeline.cache_hit`` /
    ``pipeline.cache_miss`` counters (and observable without enabling
    metrics via :func:`cache_info` deltas).

    With ``checkpoint_dir``, every completed stage (test-pattern generation,
    stuck-at fault simulation, realistic-fault extraction, switch-level
    simulation) is persisted under ``checkpoint_dir/<config hash>/`` as it
    completes; with ``resume=True`` the run restores any stage already
    checkpointed by an identical configuration instead of recomputing it —
    the recovery path for a run killed mid-pipeline.
    ``ExperimentResult.stages_restored`` / ``stages_recomputed`` record which
    path each stage took.  ``strict_checkpoints`` makes a corrupt or
    mismatched checkpoint raise
    :class:`~repro.resilience.errors.CheckpointCorruptError` instead of
    recomputing with a warning.
    """
    config = config or ExperimentConfig()
    if checkpoint_dir is None:
        hits_before = _run_cached.cache_info().hits
        result = _run_cached(config)
        if _run_cached.cache_info().hits > hits_before:
            obs.inc("pipeline.cache_hit")
        else:
            obs.inc("pipeline.cache_miss")
        return result
    store = CheckpointStore(checkpoint_dir, config, strict=strict_checkpoints)
    obs.inc("pipeline.cache_miss")
    return _run_pipeline(config, store=store, resume=resume)


def cache_info():
    """The memoisation statistics of the pipeline (``functools`` CacheInfo)."""
    return _run_cached.cache_info()


def scaled_weight_check(result: ExperimentResult) -> float:
    """Sanity: the scaled fault list's predicted yield (should equal target)."""
    return math.exp(-result.realistic_faults.total_weight())
