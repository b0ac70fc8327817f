"""Per-layer timing of the DL(T) pipeline, recorded from outside ``src/``.

:func:`install` replaces the functions and methods the pipeline calls with
thin timing wrappers: the names imported into ``repro.experiments.pipeline``
plus the inner calls named below.  Nothing under ``src/`` changes; the
wrappers only read arguments and results.  Layer names follow the repo's
modules (``circuit``, ``analysis``, ``atpg``, ``simulation``, ``layout``,
``defects``, ``switchsim``, ``core``, ``experiments``).

A few hooks are private methods (``SwitchLevelFaultSimulator._dispatch`` for
the per-fault-class split, ``FaultExtractor._classify_bridge`` for accepted
bridge pairs).  When a later version removes one, :func:`install` reports it
as missing and the metrics it fed stay 0, so the trace never breaks a run.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

#: The paper's fitted values for c432 (section 3), for the accuracy columns.
PAPER_R = 1.9
PAPER_THETA_MAX = 0.96

PIPELINE_SPAN = "experiments.pipeline_s"

#: Switch-level fault class -> metric suffix.
_FAULT_CLASS_METRIC = {
    "BridgeFault": "switchsim.bridge_s",
    "TransistorStuckOn": "switchsim.stuck_on_s",
    "TransistorStuckOpen": "switchsim.stuck_open_s",
    "TransistorGateOpen": "switchsim.gate_open_s",
    "FloatingNetFault": "switchsim.floating_net_s",
}

#: Every per-layer metric a pipeline trace yields, with its unit.
PIPELINE_METRICS = {
    "circuit.load_s": "s",
    "simulation.collapse_s": "s",
    "simulation.stuck_sim_s": "s",
    "simulation.stuck_faults": "count",
    "analysis.s": "s",
    "analysis.screen_s": "s",
    "analysis.prover_s": "s",
    "analysis.screen_proved": "count",
    "analysis.prover_extra": "count",
    "atpg.random_s": "s",
    "atpg.random_patterns": "count",
    "atpg.podem_s": "s",
    "atpg.podem_targets": "count",
    "atpg.podem_backtracks": "count",
    "atpg.podem_aborted": "count",
    "layout.build_s": "s",
    "layout.shapes": "count",
    "defects.extract_s": "s",
    "defects.bridges_s": "s",
    "defects.opens_s": "s",
    "defects.faults": "count",
    "defects.bridge_pairs_examined": "count",
    "defects.bridge_pairs_accepted": "count",
    "switchsim.setup_s": "s",
    "switchsim.run_s": "s",
    **{name: "s" for name in _FAULT_CLASS_METRIC.values()},
    "switchsim.faults": "count",
    "switchsim.detected_strict": "count",
    "switchsim.detected_potential": "count",
    "switchsim.detected_iddq": "count",
    "switchsim.coverage_s": "s",
    "core.fit_s": "s",
    "core.R": "ratio",
    "core.theta_max": "frac",
    "core.R_err": "frac",
    "core.theta_max_err": "frac",
    PIPELINE_SPAN: "s",
    "experiments.self_s": "s",
}

#: Metrics that describe one run's result rather than work done; a sweep
#: reports their median over jobs instead of their sum.
MEDIAN_METRICS = ("core.R", "core.theta_max", "core.R_err", "core.theta_max_err")


class LayerTrace:
    """Accumulated wall time per layer span plus the pipeline's self time.

    Spans nest; a span that ends directly inside the pipeline span adds its
    wall to :attr:`direct`, so ``pipeline wall - direct`` is the pipeline's
    self time (work no wrapped layer accounts for).
    """

    def __init__(self) -> None:
        self.walls: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.direct = 0.0
        self.stack: list[str] = []

    def reset(self) -> None:
        self.walls.clear()
        self.counts.clear()
        self.direct = 0.0
        self.stack.clear()

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(args, kwargs, result)`` counts."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.stack.append(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                self.stack.pop()
                self.walls[name] += wall
                if self.stack and self.stack[-1] == PIPELINE_SPAN:
                    self.direct += wall
            if after is not None:
                after(args, kwargs, result)
            return result

        return timed

    def metrics(self, result) -> dict[str, float]:
        """Every :data:`PIPELINE_METRICS` value for one finished run."""
        fit = result.fit()  # the run's one fit, so core.fit_s times it
        out: dict[str, float] = {name: 0 for name in PIPELINE_METRICS}
        out.update(self.walls)
        out.update(self.counts)
        out["experiments.self_s"] = self.walls[PIPELINE_SPAN] - self.direct
        out["layout.shapes"] = len(result.design.shapes)
        out["defects.faults"] = len(result.realistic_faults)
        out["simulation.stuck_faults"] = len(result.stuck_faults)
        out["atpg.random_patterns"] = result.n_random
        out["atpg.podem_backtracks"] = result.podem_stats.get("backtracks", 0)
        switch = result.switch_result
        out["switchsim.faults"] = len(switch.faults)
        out["switchsim.detected_strict"] = len(switch.first_detection)
        out["switchsim.detected_potential"] = len(switch.first_detection_potential)
        out["switchsim.detected_iddq"] = len(switch.first_detection_iddq)
        if result.analysis is not None and result.analysis.untestable is not None:
            screened = len(result.analysis.untestable.untestable)
            out["analysis.screen_proved"] = screened
            out["analysis.prover_extra"] = (
                len(result.analysis.untestable_faults()) - screened
            )
        out["core.R"] = fit.susceptibility_ratio
        out["core.theta_max"] = fit.theta_max
        out["core.R_err"] = abs(fit.susceptibility_ratio - PAPER_R) / PAPER_R
        out["core.theta_max_err"] = (
            abs(fit.theta_max - PAPER_THETA_MAX) / PAPER_THETA_MAX
        )
        return out


def install(trace: LayerTrace) -> list[str]:
    """Wrap the pipeline's layer entry points; returns the hooks not found.

    The pipeline span itself comes from :func:`traced_run_experiment`.
    """
    from repro import analysis as analysis_pkg
    from repro.analysis.prover import RedundancyProver
    from repro.defects.extraction import FaultExtractor
    from repro.experiments import pipeline
    from repro.layout.spatial import SpatialIndex
    from repro.simulation.parallel import ParallelFaultSimulator
    from repro.switchsim.simulator import SwitchLevelFaultSimulator

    missing: list[str] = []

    def hook(owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)``, or note it missing."""
        fn = vars(owner).get(attr)
        if fn is None:
            missing.append(f"{owner.__name__}.{attr}")
        else:
            setattr(owner, attr, make(fn))

    def patch(owner, attr: str, name: str, after=None) -> None:
        hook(owner, attr, lambda fn: trace.wrap(name, fn, after))

    def count_podem(args, kwargs, result) -> None:
        faults = kwargs.get("faults", args[1] if len(args) > 1 else ())
        trace.counts["atpg.podem_targets"] += len(faults)
        trace.counts["atpg.podem_aborted"] += len(result.aborted)

    patch(pipeline, "load_benchmark", "circuit.load_s")
    patch(pipeline, "collapse_faults", "simulation.collapse_s")
    patch(pipeline, "analyze_circuit", "analysis.s")
    patch(analysis_pkg, "find_untestable_faults", "analysis.screen_s")
    patch(RedundancyProver, "__init__", "analysis.prover_s")
    patch(RedundancyProver, "prove", "analysis.prover_s")
    patch(pipeline, "generate_random_tests", "atpg.random_s")
    patch(pipeline, "generate_deterministic_tests", "atpg.podem_s", count_podem)
    patch(ParallelFaultSimulator, "run", "simulation.stuck_sim_s")
    patch(pipeline, "build_layout", "layout.build_s")
    patch(pipeline, "extract_faults", "defects.extract_s")
    patch(FaultExtractor, "extract_bridges", "defects.bridges_s")
    patch(FaultExtractor, "extract_opens", "defects.opens_s")
    patch(SwitchLevelFaultSimulator, "__init__", "switchsim.setup_s")
    patch(SwitchLevelFaultSimulator, "run", "switchsim.run_s")
    patch(pipeline, "build_coverage", "switchsim.coverage_s")
    patch(pipeline, "fit_sousa_model", "core.fit_s")

    # Hot inner hooks: a count or one timer per call, no span bookkeeping.
    walls, counts = trace.walls, trace.counts

    def timed_dispatch(dispatch):
        def timed(self, fault):
            t0 = time.perf_counter()
            detection = dispatch(self, fault)
            walls[_FAULT_CLASS_METRIC[type(fault).__name__]] += (
                time.perf_counter() - t0
            )
            return detection

        return timed

    def counted_classify(classify):
        def counted(self, *args, **kwargs):
            counts["defects.bridge_pairs_accepted"] += 1
            return classify(self, *args, **kwargs)

        return counted

    def counted_pairs(pairs):
        def counted(self, *args, **kwargs):
            if not trace.stack or trace.stack[-1] != "defects.bridges_s":
                yield from pairs(self, *args, **kwargs)
                return
            n = 0
            try:
                for pair in pairs(self, *args, **kwargs):
                    n += 1
                    yield pair
            finally:
                counts["defects.bridge_pairs_examined"] += n

        return counted

    hook(SwitchLevelFaultSimulator, "_dispatch", timed_dispatch)
    hook(FaultExtractor, "_classify_bridge", counted_classify)
    hook(SpatialIndex, "candidate_pairs", counted_pairs)
    return missing


def traced_run_experiment(trace: LayerTrace):
    """``run_experiment`` timed as the pipeline span of ``trace``."""
    from repro.experiments import pipeline

    return trace.wrap(PIPELINE_SPAN, pipeline.run_experiment)


def aggregate(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Fold per-job layer metrics: sums, medians for :data:`MEDIAN_METRICS`."""
    out: dict[str, float] = {}
    for name in PIPELINE_METRICS:
        values = [job.get(name, 0) for job in per_job]
        if not values:
            out[name] = 0
        elif name in MEDIAN_METRICS:
            out[name] = statistics.median(values)
        else:
            out[name] = sum(values)
    return out
