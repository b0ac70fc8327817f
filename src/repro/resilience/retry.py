"""Bounded retry with deterministic backoff.

The policy is intentionally jitter-free: recovery paths must be reproducible
(the chaos tests assert exact retry counts and delays), and the workers being
throttled are local processes, not a shared service, so thundering-herd
jitter buys nothing here.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy", "DEFAULT_RETRY_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """How patiently failed work is re-attempted.

    The retry *budget* is not part of the policy: each campaign job carries
    its own ``max_attempts``.

    Attributes
    ----------
    backoff_base:
        Delay in seconds before the first retry.
    backoff_factor:
        Multiplier applied per further retry (exponential backoff).
    backoff_max:
        Upper bound on any single delay.
    """

    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, retry_index: int) -> float:
        """Deterministic delay before retry number ``retry_index`` (0-based)."""
        if retry_index < 0:
            raise ValueError(f"retry_index must be >= 0, got {retry_index}")
        return min(
            self.backoff_base * self.backoff_factor**retry_index, self.backoff_max
        )


DEFAULT_RETRY_POLICY = RetryPolicy()
