"""Result digests and output checks for the benchmark.

A pipeline digest is the sha256 of the campaign store's canonical
``result_record`` plus the two things that record leaves out: the per-fault
switch-level first detections and IDDQ peaks (keyed by fault index, as the
pipeline's checkpoint encoding does) and the extracted fault list (class,
sites and ``repr`` of the weight).  Two runs with equal digests produced
bit-identical outputs.

The checks hold whatever the digest, so a run that returns the wrong shape
of answer counts as failed even on a seed no one has recorded yet.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

_TOL = 1e-9


def _sha256(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _fault_row(fault) -> list:
    sites = [
        [f.name, repr(getattr(fault, f.name))]
        for f in dataclasses.fields(fault)
        if f.name not in ("weight", "origin")
    ]
    return [type(fault).__name__, sites, repr(fault.weight)]


def _switch_rows(switch) -> dict[str, list]:
    index_of = {id(fault): i for i, fault in enumerate(switch.faults)}

    def rows(by_id: dict, encode=lambda v: v) -> list:
        return sorted([index_of[key], encode(v)] for key, v in by_id.items())

    return {
        "n_patterns": switch.n_patterns,
        "strict": rows(switch.first_detection),
        "potential": rows(switch.first_detection_potential),
        "iddq": rows(switch.first_detection_iddq),
        "iddq_peak": rows(switch.iddq_peak, repr),
    }


def pipeline_digest(result) -> str:
    """sha256 over every output of one ``run_experiment``."""
    from repro.campaign.store import result_record

    return _sha256(
        {
            "record": result_record(result),
            "switch": _switch_rows(result.switch_result),
            "faults": [_fault_row(f) for f in result.realistic_faults],
        }
    )


def sweep_digest(records: dict[str, dict]) -> str:
    """sha256 over every job's stored record, keyed by job id."""
    from repro.campaign.store import record_sha256

    return _sha256(sorted((job, record_sha256(r)) for job, r in records.items()))


def record_problems(record: dict) -> list[str]:
    """Checks on a canonical result record; returns the failed ones.

    T(k) and theta(k) are non-decreasing, the sequence reaches T = 1, every
    theta(k) stays at or below the measured saturation theta_max, and the
    eq. 11 fit is finite.
    """
    problems = []
    series = record["series"]
    t_values = [row[1] for row in series]
    thetas = [row[2] for row in series]
    if any(b < a for a, b in zip(t_values, t_values[1:])):
        problems.append("T(k) decreases")
    if any(b < a for a, b in zip(thetas, thetas[1:])):
        problems.append("theta(k) decreases")
    if abs(record["final_T"] - 1.0) > _TOL:
        problems.append(f"final T = {record['final_T']!r}, not 1")
    if any(theta > record["theta_max_measured"] + _TOL for theta in thetas):
        problems.append("theta(k) exceeds theta_max")
    fit = (record["R"], record["theta_max_fit"], record["fit_residual"])
    if not all(math.isfinite(v) for v in fit):
        problems.append(f"eq. 11 fit not finite: {fit!r}")
    return problems


def pipeline_problems(result) -> list[str]:
    """:func:`record_problems` plus the yield-scaling check."""
    from repro.campaign.store import result_record
    from repro.experiments.pipeline import scaled_weight_check

    problems = record_problems(result_record(result))
    predicted = scaled_weight_check(result)
    if abs(predicted - result.config.target_yield) > _TOL:
        problems.append(
            f"scaled yield {predicted!r} != target {result.config.target_yield!r}"
        )
    return problems
