"""Deterministic chaos harness: failure injection at the campaign's named points.

Every recovery path of the campaign supervisor is exercised by *injecting*
the failure it recovers from, at a named **chaos point**, under a
:class:`ChaosPlan` installed for the duration of a test.  A rule fires on
the exact hits it names (``keys`` / ``attempts``) — never on wall-clock or
global RNG state — so a failing chaos test replays bit-identically.

========================  =====================================================
point                     where / what it can inject
========================  =====================================================
``campaign.job``          in the process that runs the job, before the
                          experiment (and before the heartbeat thread
                          starts); kinds ``exception``, ``fatal``, ``crash``,
                          ``sleep``.  ``key`` = job id (config hash),
                          ``attempt`` = lease attempt number.
``campaign.journal``      cooperative: the journal mangles the line it is
                          appending; kinds ``truncate`` (torn tail),
                          ``corrupt`` (bit flip).  ``key`` = record type.
``campaign.lease``        cooperative: the supervisor treats a matching
                          lease as expired; kind ``expire``.  ``key`` = job
                          id, ``attempt`` = lease attempt number.
========================  =====================================================

The plan travels into pool workers through the pool initializer, so
worker-side points fire under the same plan as the parent.  That is why the
harness lives in ``src/``: monkeypatching cannot reach a worker process.

With no plan installed every hook is a no-op costing one module-global check.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Hashable, Iterator

__all__ = [
    "ChaosInjectedError",
    "ChaosInjectedFatalError",
    "ChaosRule",
    "ChaosPlan",
    "install",
    "uninstall",
    "current_plan",
    "active",
    "maybe_inject",
    "planned_kind",
]

#: Kinds ``maybe_inject`` performs itself.
_ACTIVE_KINDS = frozenset({"exception", "fatal", "crash", "sleep"})
#: Kinds a call site must apply itself (file mangling, forced lease expiry).
_COOPERATIVE_KINDS = frozenset({"truncate", "corrupt", "expire"})


class ChaosInjectedError(Exception):
    """An injected failure the supervisor classifies as transient."""


class ChaosInjectedFatalError(Exception):
    """An injected failure the supervisor classifies as fatal."""


@dataclass(frozen=True)
class ChaosRule:
    """One injection rule: *at this point, under these conditions, do this*.

    Attributes
    ----------
    point:
        Chaos-point name the rule arms.
    kind:
        ``exception`` | ``fatal`` | ``crash`` | ``sleep`` (active) or
        ``truncate`` | ``corrupt`` | ``expire`` (cooperative, applied by
        the call site).
    keys:
        Hit keys (job ids, record types) the rule fires on; None = all.
    attempts:
        Attempt numbers the rule fires on; None = all.  ``{0}`` makes a
        failure that heals on retry.
    sleep_s:
        Sleep duration for ``kind="sleep"``.
    """

    point: str
    kind: str
    keys: frozenset | None = None
    attempts: frozenset | None = None
    sleep_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _ACTIVE_KINDS | _COOPERATIVE_KINDS:
            raise ValueError(f"unknown chaos kind {self.kind!r}")
        # Accept any iterable for convenience; store hashable frozensets.
        if self.keys is not None and not isinstance(self.keys, frozenset):
            object.__setattr__(self, "keys", frozenset(self.keys))
        if self.attempts is not None and not isinstance(self.attempts, frozenset):
            object.__setattr__(self, "attempts", frozenset(self.attempts))

    def matches(self, point: str, key: Hashable, attempt: int) -> bool:
        return (
            point == self.point
            and (self.keys is None or key in self.keys)
            and (self.attempts is None or attempt in self.attempts)
        )


@dataclass(frozen=True)
class ChaosPlan:
    """A set of injection rules, installable as the active plan."""

    rules: tuple[ChaosRule, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.rules, tuple):
            object.__setattr__(self, "rules", tuple(self.rules))

    def rule_for(self, point: str, key: Hashable, attempt: int) -> ChaosRule | None:
        """First rule armed for this hit, or None."""
        for rule in self.rules:
            if rule.matches(point, key, attempt):
                return rule
        return None


_PLAN: ChaosPlan | None = None


def install(plan: ChaosPlan | None) -> None:
    """Install ``plan`` as the process-wide active plan (None clears it)."""
    global _PLAN
    _PLAN = plan


def uninstall() -> None:
    """Clear the active plan."""
    install(None)


def current_plan() -> ChaosPlan | None:
    """The active plan (shipped to campaign pool workers)."""
    return _PLAN


@contextmanager
def active(plan: ChaosPlan) -> Iterator[ChaosPlan]:
    """Scope ``plan`` to a ``with`` block (tests)."""
    previous = _PLAN
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def maybe_inject(point: str, key: Hashable = None, attempt: int = 0) -> None:
    """Fire any active-kind rule armed for this hit; no-op without a plan.

    ``exception``/``fatal`` raise the two chaos error types, ``crash`` kills
    the process the way a segfaulting worker would (``os._exit``), ``sleep``
    stalls long enough to breach a job's lease.  Cooperative kinds are
    ignored here — the call site applies them via :func:`planned_kind`.
    """
    if _PLAN is None:
        return
    rule = _PLAN.rule_for(point, key, attempt)
    if rule is None or rule.kind not in _ACTIVE_KINDS:
        return
    if rule.kind == "exception":
        raise ChaosInjectedError(
            f"chaos: injected failure at {point} (key={key!r}, attempt={attempt})"
        )
    if rule.kind == "fatal":
        raise ChaosInjectedFatalError(
            f"chaos: injected fatal at {point} (key={key!r}, attempt={attempt})"
        )
    if rule.kind == "crash":
        os._exit(23)
    time.sleep(rule.sleep_s)


def planned_kind(point: str, key: Hashable = None, attempt: int = 0) -> str | None:
    """Cooperative-kind lookup: what (if anything) should the site inject?"""
    if _PLAN is None:
        return None
    rule = _PLAN.rule_for(point, key, attempt)
    if rule is None or rule.kind not in _COOPERATIVE_KINDS:
        return None
    return rule.kind
