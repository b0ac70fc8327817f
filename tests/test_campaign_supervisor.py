"""Campaign supervisor behaviour: cache serving, retries, leases, resume.

Inline mode (``max_workers=0``) keeps most scenarios deterministic and
fast; the pool-mode tests at the bottom exercise the real lease/heartbeat
machinery with small timeouts.
"""

import pytest

from repro import obs
from repro.campaign import (
    CampaignSpec,
    CampaignSupervisor,
    Journal,
    ResultStore,
    chaos,
    result_record,
)
from repro.campaign.chaos import ChaosPlan, ChaosRule
from repro.campaign.state import DONE, QUARANTINED
from repro.experiments import ExperimentConfig, run_experiment


def _spec(seeds=(1, 2)) -> CampaignSpec:
    return CampaignSpec(
        name="t",
        base=ExperimentConfig(benchmark="c17", max_random_patterns=16),
        grid={"seed": tuple(seeds)},
    )


def _inline(tmp_path, **kwargs) -> CampaignSupervisor:
    kwargs.setdefault("max_workers", 0)
    return CampaignSupervisor(tmp_path / "camp", **kwargs)


def _journal_records(tmp_path, kind=None) -> list[dict]:
    records, _ = Journal(tmp_path / "camp").replay()
    if kind is None:
        return records
    return [r for r in records if r.get("type") == kind]


@pytest.fixture()
def metrics():
    _, registry = obs.enable()
    yield registry
    obs.disable()


# ---------------------------------------------------------------------------
# inline happy path + bit-identical results
# ---------------------------------------------------------------------------
def test_inline_run_computes_all_jobs(tmp_path):
    sup = _inline(tmp_path)
    new = sup.submit(_spec())
    assert len(new) == 2
    report = sup.run()
    assert report.jobs_computed == 2
    assert report.jobs_cached == 0
    assert report.n_done == 2
    assert report.finished
    assert not report.stopped
    # Journal narrative: campaign, two lease+done pairs, end.
    assert len(_journal_records(tmp_path, "lease")) == 2
    assert len(_journal_records(tmp_path, "done")) == 2
    assert len(_journal_records(tmp_path, "end")) == 1


def test_stored_results_bit_identical_to_direct_run(tmp_path):
    sup = _inline(tmp_path)
    spec = _spec(seeds=(3,))
    (job,) = spec.expand()
    sup.submit(spec)
    sup.run()
    stored = ResultStore(tmp_path / "camp" / "results").load(job.job_id)
    direct = result_record(run_experiment(job.config))
    assert stored == direct


def test_manifests_written_per_job(tmp_path):
    from repro.obs.manifest import read_manifests

    sup = _inline(tmp_path)
    sup.submit(_spec())
    sup.run()
    manifests = read_manifests(str(tmp_path / "camp" / "manifests.jsonl"))
    assert len(manifests) == 2
    assert all(m.results["campaign"] == "t" for m in manifests)
    assert {m.results["job_id"] for m in manifests} == {
        j.job_id for j in _spec().expand()
    }


def test_manifests_resolve_git_once_per_process(tmp_path, monkeypatch):
    import subprocess

    from repro.obs.manifest import git_describe, read_manifests

    git_calls = []
    real_run = subprocess.run

    def spy(cmd, *args, **kwargs):
        if cmd[0] == "git":
            git_calls.append(cmd)
        return real_run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", spy)
    git_describe.cache_clear()
    sup = _inline(tmp_path)
    sup.submit(_spec(seeds=(1, 2, 3)))
    sup.run()
    manifests = read_manifests(str(tmp_path / "camp" / "manifests.jsonl"))
    assert len(manifests) == 3
    assert len(git_calls) == 1
    assert len({m.git for m in manifests}) == 1


# ---------------------------------------------------------------------------
# cache serving: zero recomputation on re-submission
# ---------------------------------------------------------------------------
def test_resubmission_serves_from_cache_with_zero_recompute(tmp_path, metrics):
    first = _inline(tmp_path)
    first.submit(_spec())
    first.run()
    leases_before = len(_journal_records(tmp_path, "lease"))
    hits_before = metrics.counter("pipeline.cache_hit").value

    second = _inline(tmp_path)
    second.submit(_spec())
    report = second.run()

    assert report.jobs_cached == 0  # already DONE in the journal: no work
    assert report.jobs_computed == 0
    # The same sweep in a *fresh* campaign directory sharing the result
    # store is the real cache test: every job serves from cache.
    third = CampaignSupervisor(
        tmp_path / "camp2",
        max_workers=0,
        results_dir=tmp_path / "camp" / "results",
    )
    third.submit(_spec())
    report3 = third.run()
    assert report3.jobs_cached == 2
    assert report3.jobs_computed == 0
    assert report3.finished
    # Zero recomputation, observable three ways: the cache-hit counter rose
    # once per job, no new lease was journalled anywhere, and the second
    # campaign's journal holds only cached completions.
    assert metrics.counter("pipeline.cache_hit").value == hits_before + 2
    assert len(_journal_records(tmp_path, "lease")) == leases_before
    records, _ = Journal(tmp_path / "camp2").replay()
    assert [r["type"] for r in records if r["type"] != "campaign"] == [
        "done",
        "done",
        "end",
    ]
    assert all(r["cached"] for r in records if r["type"] == "done")


def test_cached_results_identical_to_computed(tmp_path):
    spec = _spec()
    first = _inline(tmp_path)
    first.submit(spec)
    first.run()
    store = ResultStore(tmp_path / "camp" / "results")
    baseline = {j: store.load(j) for j in store.job_ids()}

    second = CampaignSupervisor(
        tmp_path / "other",
        max_workers=0,
        results_dir=tmp_path / "camp" / "results",
    )
    second.submit(spec)
    second.run()
    assert {j: store.load(j) for j in store.job_ids()} == baseline


def test_corrupt_cached_result_recomputes(tmp_path):
    sup = _inline(tmp_path)
    spec = _spec(seeds=(5,))
    (job,) = spec.expand()
    sup.submit(spec)
    sup.run()
    store = ResultStore(tmp_path / "camp" / "results")
    path = store.path_for(job.job_id)
    path.write_text(path.read_text().replace('"seed": 5', '"seed": 6'))

    fresh = CampaignSupervisor(
        tmp_path / "fresh",
        max_workers=0,
        results_dir=store.root,
    )
    fresh.submit(spec)
    with pytest.warns(RuntimeWarning, match="corrupt result"):
        report = fresh.run()
    assert report.jobs_computed == 1
    assert report.jobs_cached == 0
    assert store.load(job.job_id) == result_record(run_experiment(job.config))


# ---------------------------------------------------------------------------
# failure classification: retry vs quarantine
# ---------------------------------------------------------------------------
def test_transient_failure_retries_then_succeeds(tmp_path):
    plan = ChaosPlan(
        rules=(
            ChaosRule(point="campaign.job", kind="exception", attempts={0}),
        )
    )
    sup = _inline(tmp_path)
    sup.submit(_spec(seeds=(1,)))
    with chaos.active(plan):
        with pytest.warns(RuntimeWarning, match="retrying"):
            report = sup.run()
    assert report.jobs_retried == 1
    assert report.jobs_quarantined == 0
    assert report.n_done == 1
    assert report.finished
    fails = _journal_records(tmp_path, "fail")
    assert [f["kind"] for f in fails] == ["transient"]


def test_transient_retry_journals_alike_inline_and_on_a_pool(tmp_path):
    """Inline jobs take the pool's lease path: same journal, same record."""
    plan = ChaosPlan(
        rules=(
            ChaosRule(point="campaign.job", kind="exception", attempts={0}),
        )
    )
    spec = _spec(seeds=(1,))
    (job,) = spec.expand()
    narratives, stored = [], []
    for workers in (0, 1):
        home = tmp_path / f"w{workers}"
        sup = CampaignSupervisor(home, max_workers=workers)
        sup.submit(spec)
        with chaos.active(plan):
            with pytest.warns(RuntimeWarning, match="retrying"):
                assert sup.run().finished
        records, _ = Journal(home).replay()
        narratives.append(
            [
                (r["type"], r.get("job"), r.get("attempt"), r.get("kind"))
                for r in records
            ]
        )
        stored.append(ResultStore(home / "results").load(job.job_id))
    assert narratives[0] == narratives[1]
    assert [n[0] for n in narratives[0]] == [
        "campaign", "lease", "fail", "lease", "done", "end"
    ]
    assert stored[0] == stored[1] is not None


def test_refused_submit_retries_after_backoff(tmp_path):
    """A pool that refuses a submit must not strand the job."""
    from concurrent.futures import Future

    class RefuseFirstSubmit:
        calls = 0

        def submit(self, fn, *args):
            self.calls += 1
            if self.calls == 1:
                raise OSError("cannot fork")
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    pool = RefuseFirstSubmit()
    sup = CampaignSupervisor(tmp_path / "camp", max_workers=1)
    sup._ensure_pool = lambda: pool
    sup.submit(_spec(seeds=(1,)))
    with pytest.warns(RuntimeWarning, match="retrying"):
        report = sup.run()
    assert report.finished
    assert report.n_done == 1
    assert report.jobs_retried == 1
    assert pool.calls == 2
    assert [r["type"] for r in _journal_records(tmp_path)] == [
        "campaign", "lease", "fail", "lease", "done", "end"
    ]


def test_fatal_failure_quarantines_immediately(tmp_path):
    plan = ChaosPlan(
        rules=(ChaosRule(point="campaign.job", kind="fatal"),)
    )
    sup = _inline(tmp_path)
    sup.submit(_spec(seeds=(1,)))
    with chaos.active(plan):
        with pytest.warns(RuntimeWarning, match="quarantined"):
            report = sup.run()
    assert report.jobs_quarantined == 1
    assert report.jobs_retried == 0
    assert report.counts.get(QUARANTINED) == 1
    assert len(_journal_records(tmp_path, "lease")) == 1  # no retry burned
    assert ResultStore(tmp_path / "camp" / "results").job_ids() == []


def test_retry_budget_exhaustion_quarantines(tmp_path):
    plan = ChaosPlan(
        rules=(ChaosRule(point="campaign.job", kind="exception"),)
    )
    sup = _inline(tmp_path)
    sup.submit(_spec(seeds=(1,)))
    with chaos.active(plan):
        with pytest.warns(RuntimeWarning):
            report = sup.run()
    assert report.jobs_quarantined == 1
    assert len(_journal_records(tmp_path, "lease")) == 2  # full budget spent
    quarantine = _journal_records(tmp_path, "quarantine")
    assert "budget spent" in quarantine[0]["reason"]


def test_quarantine_leaves_other_jobs_unharmed(tmp_path):
    spec = _spec(seeds=(1, 2))
    bad = spec.expand()[0]
    plan = ChaosPlan(
        rules=(
            ChaosRule(point="campaign.job", kind="fatal", keys={bad.job_id}),
        )
    )
    sup = _inline(tmp_path)
    sup.submit(spec)
    with chaos.active(plan):
        with pytest.warns(RuntimeWarning, match="quarantined"):
            report = sup.run()
    assert report.jobs_quarantined == 1
    assert report.n_done == 1
    assert report.counts[DONE] == 1
    assert report.counts[QUARANTINED] == 1


# ---------------------------------------------------------------------------
# stop / resume
# ---------------------------------------------------------------------------
def test_request_stop_journals_clean_stop_and_resume_completes(tmp_path):
    sup = _inline(tmp_path)
    sup.submit(_spec())
    sup.request_stop("unit-test")
    report = sup.run()
    assert report.stopped
    assert report.stop_reason == "unit-test"
    assert not report.finished
    assert report.n_done == 0
    stops = _journal_records(tmp_path, "stop")
    # Records carry a wall-clock ``ts`` for the trace/report observers;
    # replay ignores it (unknown keys are forward-compatible).
    assert [
        {k: v for k, v in stop.items() if k != "ts"} for stop in stops
    ] == [{"type": "stop", "reason": "unit-test"}]

    resumed = _inline(tmp_path)
    report2 = resumed.run()  # no re-submission needed: jobs are journalled
    assert report2.n_done == 2
    assert report2.finished


def test_dead_lease_reclaimed_on_restart(tmp_path):
    sup = _inline(tmp_path)
    spec = _spec(seeds=(1,))
    (job,) = spec.expand()
    sup.submit(spec)
    # Simulate kill -9 mid-flight: a lease was journalled, no outcome.
    sup._append(
        {
            "type": "lease",
            "job": job.job_id,
            "lease_id": f"{job.job_id}.a0",
            "attempt": 0,
        }
    )
    sup.journal.close()

    resumed = _inline(tmp_path)
    report = resumed.run()
    reclaims = _journal_records(tmp_path, "reclaim")
    assert len(reclaims) == 1
    assert "restart" in reclaims[0]["reason"]
    assert report.n_done == 1
    assert report.finished


def test_restart_removes_dead_lease_heartbeat_files(tmp_path):
    sup = _inline(tmp_path)
    spec = _spec(seeds=(1,))
    (job,) = spec.expand()
    sup.submit(spec)
    # A SIGKILLed pool supervisor leaves its lease and heartbeat behind.
    lease_id = f"{job.job_id}.a0"
    sup._append(
        {"type": "lease", "job": job.job_id, "lease_id": lease_id, "attempt": 0}
    )
    sup.journal.close()
    leases = tmp_path / "camp" / "leases"
    leases.mkdir()
    (leases / f"{lease_id}.hb").write_text("7", encoding="utf-8")

    report = _inline(tmp_path).run()
    assert report.finished
    assert list(leases.iterdir()) == []


def test_resubmission_strengthens_budget_without_resetting_progress(tmp_path):
    sup = _inline(tmp_path)
    spec = _spec(seeds=(1,))
    (job,) = spec.expand()
    sup.submit(spec)
    sup.run()

    again = _inline(tmp_path)
    stronger = CampaignSpec(
        name="t",
        base=ExperimentConfig(benchmark="c17", max_random_patterns=16),
        grid={"seed": (1,)},
        max_attempts=5,
    )
    assert again.submit(stronger) == []  # no *new* jobs
    state_job = again.state.jobs[job.job_id]
    assert state_job.max_attempts == 5
    assert state_job.status == DONE  # progress survived the re-registration


# ---------------------------------------------------------------------------
# pool mode: real leases, heartbeats, reclaim
# ---------------------------------------------------------------------------
def test_pool_run_matches_inline_results(tmp_path):
    spec = _spec(seeds=(7,))
    (job,) = spec.expand()
    sup = CampaignSupervisor(tmp_path / "camp", max_workers=2)
    sup.submit(spec)
    report = sup.run()
    assert report.jobs_computed == 1
    assert report.finished
    stored = ResultStore(tmp_path / "camp" / "results").load(job.job_id)
    assert stored == result_record(run_experiment(job.config))
    done = _journal_records(tmp_path, "done")
    assert done[0]["worker_pid"] is not None


def test_forced_lease_expiry_reclaims_and_retries(tmp_path):
    plan = ChaosPlan(
        rules=(
            ChaosRule(point="campaign.lease", kind="expire", attempts={0}),
        )
    )
    sup = CampaignSupervisor(
        tmp_path / "camp",
        max_workers=1,
        lease_timeout=60.0,
    )
    sup.submit(_spec(seeds=(1,)))
    with chaos.active(plan):
        with pytest.warns(RuntimeWarning, match="reclaimed"):
            report = sup.run()
    assert report.leases_reclaimed == 1
    assert report.jobs_retried == 1
    assert report.n_done == 1
    assert report.finished
    reclaims = _journal_records(tmp_path, "reclaim")
    assert len(reclaims) == 1
    assert "expired" in reclaims[0]["reason"]


def test_hung_worker_lease_expires_and_job_recovers(tmp_path):
    # The chaos sleep fires *before* the worker's first heartbeat, so the
    # lease shows no progress at all — the worst-case hang.
    plan = ChaosPlan(
        rules=(
            ChaosRule(
                point="campaign.job",
                kind="sleep",
                attempts={0},
                sleep_s=30.0,
            ),
        )
    )
    sup = CampaignSupervisor(
        tmp_path / "camp",
        max_workers=1,
        lease_timeout=0.5,
    )
    sup.submit(_spec(seeds=(1,)))
    with chaos.active(plan):
        with pytest.warns(RuntimeWarning, match="hung lease"):
            report = sup.run()
    assert report.leases_reclaimed == 1
    assert report.n_done == 1
    assert report.finished
    # The reclaim is journalled before the retry's lease.
    kinds = [
        r["type"]
        for r in _journal_records(tmp_path)
        if r["type"] in ("lease", "reclaim", "done")
    ]
    assert kinds == ["lease", "reclaim", "lease", "done"]


def test_crashed_worker_is_retried(tmp_path):
    plan = ChaosPlan(
        rules=(ChaosRule(point="campaign.job", kind="crash", attempts={0}),)
    )
    sup = CampaignSupervisor(tmp_path / "camp", max_workers=1)
    sup.submit(_spec(seeds=(1,)))
    with chaos.active(plan):
        with pytest.warns(RuntimeWarning):
            report = sup.run()
    assert report.n_done == 1
    assert report.finished
    fails = _journal_records(tmp_path, "fail")
    assert len(fails) == 1
    assert fails[0]["kind"] == "transient"  # a dead pool is retryable
