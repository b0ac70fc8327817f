"""Typed failure taxonomy of the resilience layer.

Every recovery decision in :mod:`repro.resilience` starts from one question:
*is this failure worth retrying?*  The taxonomy answers it with two classes —

* **transient** — the failure is environmental (a worker process died, a
  job's lease expired, the OS refused a resource) and the same work may
  well succeed on a clean retry;
* **fatal** — the failure is deterministic (a bug raised inside the
  experiment code): retrying reproduces it, so the campaign supervisor
  quarantines the job instead of spending its retry budget.

:func:`classify_failure` maps an arbitrary exception onto the taxonomy.
Chaos-injected failures (:mod:`repro.resilience.chaos`) subclass the typed
errors directly so every classification path is exercisable from tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = [
    "ResilienceError",
    "TransientFailure",
    "FatalFailure",
    "WorkerCrashError",
    "CheckpointError",
    "CheckpointCorruptError",
    "ChaosInjectedError",
    "ChaosInjectedFatalError",
    "FailureKind",
    "Failure",
    "classify_failure",
]


class ResilienceError(Exception):
    """Base class of every error the resilience layer raises itself."""


class TransientFailure(ResilienceError):
    """A failure that a clean retry may resolve."""


class FatalFailure(ResilienceError):
    """A deterministic failure: retrying reproduces it."""


class WorkerCrashError(TransientFailure):
    """A worker process died (the pool reported itself broken)."""


class CheckpointError(ResilienceError):
    """A checkpoint could not be read or written."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed its integrity check (truncated/corrupt)."""


class ChaosInjectedError(TransientFailure):
    """A chaos-harness-injected transient failure (tests/CI only)."""


class ChaosInjectedFatalError(FatalFailure):
    """A chaos-harness-injected deterministic failure (tests/CI only)."""


class FailureKind(str, Enum):
    """Retry-worthiness of a classified failure."""

    TRANSIENT = "transient"
    FATAL = "fatal"


#: Exception types whose failures are worth retrying even though they do not
#: derive from :class:`TransientFailure`: process-pool breakage, IPC and OS
#: resource errors, and timeouts.  Everything else is a deterministic bug.
_TRANSIENT_TYPES: tuple[type[BaseException], ...] = (
    OSError,
    EOFError,
    ConnectionError,
    TimeoutError,
    MemoryError,
)


@dataclass(frozen=True)
class Failure:
    """One classified failure, ready for the retry ledger."""

    kind: FailureKind
    reason: str
    exception_type: str

    @property
    def transient(self) -> bool:
        return self.kind is FailureKind.TRANSIENT


def classify_failure(exc: BaseException) -> Failure:
    """Classify ``exc`` as transient or fatal for retry decisions.

    ``concurrent.futures`` breakage (``BrokenExecutor`` and the
    pickling-boundary ``BrokenProcessPool``) counts as transient: the worker
    died, the work itself is untainted.
    """
    from concurrent.futures import BrokenExecutor
    from concurrent.futures import TimeoutError as FuturesTimeoutError

    if isinstance(exc, FatalFailure):
        kind = FailureKind.FATAL
    elif isinstance(
        exc,
        (TransientFailure, BrokenExecutor, FuturesTimeoutError) + _TRANSIENT_TYPES,
    ):
        kind = FailureKind.TRANSIENT
    else:
        kind = FailureKind.FATAL
    return Failure(
        kind=kind,
        reason=f"{type(exc).__name__}: {exc}",
        exception_type=type(exc).__name__,
    )
