"""Campaign telemetry: the ``CampaignEvent`` stream a supervisor publishes.

Jobs run with the event bus suspended, so a campaign's stream holds only
the supervisor's own scheduling narration plus one ``counters`` snapshot
per computed job — the same records whether jobs run inline or on a pool.
"""

import json

import pytest

from repro import obs
from repro.campaign import CampaignSpec, CampaignSupervisor
from repro.experiments import ExperimentConfig
from repro.experiments.pipeline import _run_cached
from repro.obs.events import CampaignEvent, ListSink, RetryEvent
from repro.resilience.retry import RetryPolicy

FAST_RETRY = RetryPolicy(
    max_attempts=2, backoff_base=0.001, backoff_factor=1.0, backoff_max=0.001
)


@pytest.fixture(autouse=True)
def _clean_events_state():
    obs.disable_events()
    obs.disable()
    _run_cached.cache_clear()
    yield
    obs.disable_events()
    obs.disable()
    _run_cached.cache_clear()


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="t",
        base=ExperimentConfig(benchmark="c17", max_random_patterns=16),
        grid={"seed": (1, 2)},
    )


def _run_campaign(directory, max_workers=0) -> ListSink:
    """Run a fresh campaign with the event bus on; return the sink."""
    bus = obs.enable_events()
    sink = ListSink(bus)
    sup = CampaignSupervisor(
        directory, max_workers=max_workers, retry=FAST_RETRY
    )
    sup.submit(_spec())
    report = sup.run()
    assert report.finished
    assert obs.event_bus() is bus  # every job restored the supervisor's bus
    obs.disable_events()
    _run_cached.cache_clear()  # the next run must recompute, not memo-hit
    return sink


def _counters_by_job(sink: ListSink) -> dict[str, dict]:
    return {
        e.job: e.data["counters"]
        for e in sink.events
        if isinstance(e, CampaignEvent) and e.action == "counters"
    }


def test_per_job_counters_bit_identical_across_fresh_campaigns(tmp_path):
    """Acceptance core: per-job counters are stable across runs and modes."""
    sinks = [
        _run_campaign(tmp_path / "a"),
        _run_campaign(tmp_path / "b"),
        _run_campaign(tmp_path / "c", max_workers=2),
    ]
    job_ids = {j.job_id for j in _spec().expand()}
    for sink in sinks:
        # Inline or pooled, jobs publish nothing of their own.
        assert {type(e) for e in sink.events} <= {CampaignEvent, RetryEvent}
        actions = [e.action for e in sink.events]
        assert actions.count("lease") == actions.count("done") == 2
    first, second, pooled = (_counters_by_job(sink) for sink in sinks)
    # One non-empty counters snapshot per *computed* job, keyed by job id.
    assert set(first) == job_ids
    assert all(first.values())
    assert first == second == pooled
    assert (
        json.dumps(first, sort_keys=True)
        == json.dumps(second, sort_keys=True)
        == json.dumps(pooled, sort_keys=True)
    )
