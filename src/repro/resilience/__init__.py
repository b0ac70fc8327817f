"""Resilient execution layer: failure taxonomy, retry, checkpoints, chaos.

Long multi-stage runs (the paper's section-3 recipe: ATPG, gate-level fault
simulation, layout extraction, switch-level simulation, fitting) must survive
worker crashes, hangs and interrupted processes without restarting from zero
— and without ever degrading silently.  This package supplies the pieces:

* :mod:`repro.resilience.errors` — the transient/fatal failure taxonomy and
  :func:`classify_failure`;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, bounded retry with
  deterministic (jitter-free) exponential backoff;
* :mod:`repro.resilience.checkpoint` — :class:`CheckpointStore`, per-stage
  pipeline checkpoints keyed by configuration hash, with integrity-checked
  atomic files;
* :mod:`repro.resilience.chaos` — seeded, deterministic failure injection at
  named points, so every recovery path is *exercised* by tests and CI, not
  just claimed.

The campaign supervisor (:mod:`repro.campaign.supervisor`) consumes the
taxonomy and the retry policy per job; the checkpointed pipeline is
:func:`repro.experiments.pipeline.run_experiment`.  Policy and
format details: ``docs/RESILIENCE.md``.
"""

from repro.resilience.chaos import (
    ChaosPlan,
    ChaosRule,
    active,
    current_plan,
    install,
    maybe_inject,
    planned_kind,
    uninstall,
)
from repro.resilience.checkpoint import CHECKPOINT_MAGIC, CheckpointStore
from repro.resilience.errors import (
    ChaosInjectedError,
    ChaosInjectedFatalError,
    CheckpointCorruptError,
    CheckpointError,
    Failure,
    FailureKind,
    FatalFailure,
    ResilienceError,
    TransientFailure,
    classify_failure,
)
from repro.resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "ChaosPlan",
    "ChaosRule",
    "active",
    "current_plan",
    "install",
    "maybe_inject",
    "planned_kind",
    "uninstall",
    "CHECKPOINT_MAGIC",
    "CheckpointStore",
    "ChaosInjectedError",
    "ChaosInjectedFatalError",
    "CheckpointCorruptError",
    "CheckpointError",
    "Failure",
    "FailureKind",
    "FatalFailure",
    "ResilienceError",
    "TransientFailure",
    "classify_failure",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
]
