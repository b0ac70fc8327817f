"""Unit tests: failure taxonomy, retry policy, and the chaos harness."""

import pickle

import pytest

from repro.resilience import (
    ChaosInjectedError,
    ChaosInjectedFatalError,
    ChaosPlan,
    ChaosRule,
    FailureKind,
    RetryPolicy,
    chaos,
    classify_failure,
)


# ---------------------------------------------------------------------------
# classify_failure
# ---------------------------------------------------------------------------
def test_classify_transient_types():
    from concurrent.futures.process import BrokenProcessPool

    for exc in (
        BrokenProcessPool("worker died"),
        OSError("fork failed"),
        TimeoutError("deadline"),
        EOFError("pipe closed"),
        ChaosInjectedError("injected"),
    ):
        failure = classify_failure(exc)
        assert failure.kind is FailureKind.TRANSIENT
        assert failure.transient
        assert type(exc).__name__ == failure.exception_type
        assert failure.exception_type in failure.reason


def test_classify_fatal_types():
    for exc in (
        ValueError("bad input"),
        AssertionError("invariant"),
        ChaosInjectedFatalError("injected fatal"),
    ):
        failure = classify_failure(exc)
        assert failure.kind is FailureKind.FATAL
        assert not failure.transient


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
def test_retry_policy_deterministic_exponential_backoff():
    policy = RetryPolicy(
        max_attempts=5, backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5
    )
    assert policy.delays() == [0.1, 0.2, 0.4, 0.5]
    # Same policy, same delays — no jitter.
    assert policy.delays() == RetryPolicy(
        max_attempts=5, backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5
    ).delays()


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy().delay(-1)


# ---------------------------------------------------------------------------
# Chaos harness
# ---------------------------------------------------------------------------
def test_chaos_noop_without_plan():
    chaos.uninstall()
    chaos.maybe_inject("campaign.job", key=0)  # must not raise
    assert chaos.planned_kind("checkpoint.save", key="atpg") is None
    assert chaos.current_plan() is None


def test_chaos_rule_matches_keys_and_attempts():
    rule = ChaosRule(
        point="campaign.job", kind="exception", keys={1, 2}, attempts={0}
    )
    assert rule.matches(0, "campaign.job", 1, 0)
    assert not rule.matches(0, "campaign.job", 3, 0)
    assert not rule.matches(0, "campaign.job", 1, 1)
    assert not rule.matches(0, "other.point", 1, 0)


def test_chaos_rule_rejects_unknown_kind_and_bad_rate():
    with pytest.raises(ValueError):
        ChaosRule(point="p", kind="explode")
    with pytest.raises(ValueError):
        ChaosRule(point="p", kind="exception", rate=1.5)


def test_chaos_rate_is_seed_deterministic():
    rule = ChaosRule(point="p", kind="exception", rate=0.5)
    outcomes_a = [rule.matches(7, "p", k, 0) for k in range(200)]
    outcomes_b = [rule.matches(7, "p", k, 0) for k in range(200)]
    assert outcomes_a == outcomes_b
    # A different seed re-rolls the outcomes.
    outcomes_c = [rule.matches(8, "p", k, 0) for k in range(200)]
    assert outcomes_a != outcomes_c
    # Rate bounds behave: 0 never fires, 1 always fires.
    never = ChaosRule(point="p", kind="exception", rate=0.0)
    always = ChaosRule(point="p", kind="exception", rate=1.0)
    assert not any(never.matches(7, "p", k, 0) for k in range(50))
    assert all(always.matches(7, "p", k, 0) for k in range(50))


def test_chaos_active_scopes_and_restores_plan():
    chaos.uninstall()
    plan = ChaosPlan(rules=(ChaosRule(point="p", kind="exception"),))
    with chaos.active(plan):
        assert chaos.current_plan() is plan
        with pytest.raises(ChaosInjectedError):
            chaos.maybe_inject("p")
    assert chaos.current_plan() is None


def test_chaos_fatal_kind_raises_fatal():
    plan = ChaosPlan(rules=(ChaosRule(point="p", kind="fatal"),))
    with chaos.active(plan), pytest.raises(ChaosInjectedFatalError):
        chaos.maybe_inject("p")


def test_chaos_cooperative_kinds_do_not_fire_actively():
    plan = ChaosPlan(
        rules=(ChaosRule(point="checkpoint.save", kind="truncate", keys={"atpg"}),)
    )
    with chaos.active(plan):
        chaos.maybe_inject("checkpoint.save", key="atpg")  # must not raise
        assert chaos.planned_kind("checkpoint.save", key="atpg") == "truncate"
        assert chaos.planned_kind("checkpoint.save", key="other") is None


def test_chaos_plan_is_picklable_for_worker_shipping():
    plan = ChaosPlan(
        rules=(
            ChaosRule(point="campaign.job", kind="crash", keys={0}, attempts={0}),
            ChaosRule(point="campaign.job", kind="sleep", sleep_s=0.5, rate=0.3),
        ),
        seed=42,
    )
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone.rule_for("campaign.job", 0, 0).kind == "crash"
