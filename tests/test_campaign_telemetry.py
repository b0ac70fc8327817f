"""Campaign telemetry: the record stream a supervisor's ``on_record`` sees.

The stream is the journal, record for record, plus one ``counters`` record
per computed job — the same records whether jobs run inline or on a pool.
"""

import json

import pytest

from repro import obs
from repro.campaign import CampaignSpec, CampaignSupervisor, Journal, chaos
from repro.campaign.chaos import ChaosPlan, ChaosRule
from repro.experiments import ExperimentConfig
from repro.experiments.pipeline import _run_cached


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    _run_cached.cache_clear()
    yield
    obs.disable()
    _run_cached.cache_clear()


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="t",
        base=ExperimentConfig(benchmark="c17", max_random_patterns=16),
        grid={"seed": (1, 2)},
    )


def _run_campaign(directory, max_workers=0) -> list[dict]:
    """Run a fresh campaign with a record callback; return what it saw."""
    seen: list[dict] = []
    sup = CampaignSupervisor(
        directory, max_workers=max_workers, on_record=seen.append
    )
    sup.submit(_spec())
    report = sup.run()
    assert report.finished
    assert not obs.is_enabled()  # every job restored the obs state
    _run_cached.cache_clear()  # the next run must recompute, not memo-hit
    return seen


def _counters_by_job(records: list[dict]) -> dict[str, dict]:
    return {r["job"]: r["counters"] for r in records if r["type"] == "counters"}


def _journal(directory) -> list[dict]:
    return Journal(directory, readonly=True).replay()[0]


@pytest.mark.parametrize("max_workers", [0, 2])
def test_on_record_stream_is_the_journal(tmp_path, max_workers):
    """Oracle: apart from ``counters``, the stream is the journal replay."""
    seen = _run_campaign(tmp_path / "camp", max_workers=max_workers)
    journalled = [r for r in seen if r["type"] != "counters"]
    assert journalled == _journal(tmp_path / "camp")
    types = [r["type"] for r in journalled]
    assert types.count("lease") == types.count("done") == 2
    assert types[-1] == "end"


def test_on_record_stream_carries_failures_and_retries(tmp_path):
    plan = ChaosPlan(
        rules=(
            ChaosRule(point="campaign.job", kind="exception", attempts={0}),
        )
    )
    seen: list[dict] = []
    sup = CampaignSupervisor(
        tmp_path / "camp", max_workers=0, on_record=seen.append
    )
    sup.submit(_spec())
    with chaos.active(plan):
        with pytest.warns(RuntimeWarning, match="retrying"):
            sup.run()
    journalled = [r for r in seen if r["type"] != "counters"]
    assert journalled == _journal(tmp_path / "camp")
    assert [r["type"] for r in journalled].count("fail") == 2


def test_no_callback_no_counters(tmp_path):
    sup = CampaignSupervisor(tmp_path / "camp", max_workers=0)
    sup.submit(_spec())
    sup.run()
    # Without a callback jobs run without a registry of their own.
    assert all(r["type"] != "counters" for r in _journal(tmp_path / "camp"))
    assert not obs.is_enabled()


def test_per_job_counters_bit_identical_across_fresh_campaigns(tmp_path):
    """Acceptance core: per-job counters are stable across runs and modes."""
    streams = [
        _run_campaign(tmp_path / "a"),
        _run_campaign(tmp_path / "b"),
        _run_campaign(tmp_path / "c", max_workers=2),
    ]
    job_ids = {j.job_id for j in _spec().expand()}
    first, second, pooled = (_counters_by_job(seen) for seen in streams)
    # One non-empty counters snapshot per *computed* job, keyed by job id.
    assert set(first) == job_ids
    assert all(first.values())
    # Recovery is per job, so no job carries per-stage resilience counters.
    assert not any(
        name.startswith("resilience.")
        for counters in first.values()
        for name in counters
    )
    assert first == second == pooled
    assert (
        json.dumps(first, sort_keys=True)
        == json.dumps(second, sort_keys=True)
        == json.dumps(pooled, sort_keys=True)
    )
