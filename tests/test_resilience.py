"""Unit tests of the campaign's recovery pieces: failure classification,
the retry backoff schedule, and the chaos harness."""

import pickle

import pytest

from repro.campaign import chaos
from repro.campaign.chaos import (
    ChaosInjectedError,
    ChaosInjectedFatalError,
    ChaosPlan,
    ChaosRule,
)
from repro.campaign.supervisor import backoff_s, classify_failure


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
        assert classify_failure(exc) == "transient"


def test_classify_fatal_types():
    for exc in (
        ValueError("bad input"),
        AssertionError("invariant"),
        ChaosInjectedFatalError("injected fatal"),
    ):
        assert classify_failure(exc) == "fatal"


# ---------------------------------------------------------------------------
# Backoff
# ---------------------------------------------------------------------------
def test_backoff_schedule_doubles_from_50ms_and_caps_at_2s():
    assert [backoff_s(i) for i in range(8)] == [
        0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0, 2.0
    ]


# ---------------------------------------------------------------------------
# Chaos harness
# ---------------------------------------------------------------------------
def test_chaos_noop_without_plan():
    chaos.uninstall()
    chaos.maybe_inject("campaign.job", key=0)  # must not raise
    assert chaos.planned_kind("campaign.journal", key="done") is None
    assert chaos.current_plan() is None


def test_chaos_rule_matches_keys_and_attempts():
    rule = ChaosRule(
        point="campaign.job", kind="exception", keys={1, 2}, attempts={0}
    )
    assert rule.matches("campaign.job", 1, 0)
    assert not rule.matches("campaign.job", 3, 0)
    assert not rule.matches("campaign.job", 1, 1)
    assert not rule.matches("other.point", 1, 0)


def test_chaos_rule_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ChaosRule(point="p", kind="explode")


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
        rules=(ChaosRule(point="campaign.journal", kind="truncate", keys={"done"}),)
    )
    with chaos.active(plan):
        chaos.maybe_inject("campaign.journal", key="done")  # must not raise
        assert chaos.planned_kind("campaign.journal", key="done") == "truncate"
        assert chaos.planned_kind("campaign.journal", key="lease") is None


def test_chaos_plan_is_picklable_for_worker_shipping():
    plan = ChaosPlan(
        rules=(
            ChaosRule(point="campaign.job", kind="crash", keys={0}, attempts={0}),
            ChaosRule(point="campaign.job", kind="sleep", sleep_s=0.5),
        ),
    )
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone.rule_for("campaign.job", 0, 0).kind == "crash"
