"""Resilient execution layer: failure taxonomy, retry, chaos.

A campaign of experiments must survive worker crashes, hangs and interrupted
processes without redoing finished work — and without ever degrading
silently.  Recovery is per whole experiment: the campaign supervisor
journals every job, retries transient failures and quarantines fatal ones.
This package supplies the pieces it uses:

* :mod:`repro.resilience.errors` — the transient/fatal failure taxonomy and
  :func:`classify_failure`;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, bounded retry with
  deterministic (jitter-free) exponential backoff;
* :mod:`repro.resilience.chaos` — seeded, deterministic failure injection at
  named points, so every recovery path is *exercised* by tests and CI, not
  just claimed.

The campaign supervisor (:mod:`repro.campaign.supervisor`) consumes the
taxonomy and the retry policy per job.  Policy details:
``docs/RESILIENCE.md``.
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
from repro.resilience.errors import (
    ChaosInjectedError,
    ChaosInjectedFatalError,
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
    "ChaosInjectedError",
    "ChaosInjectedFatalError",
    "Failure",
    "FailureKind",
    "FatalFailure",
    "ResilienceError",
    "TransientFailure",
    "classify_failure",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
]
