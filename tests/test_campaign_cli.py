"""End-to-end tests of ``python -m repro campaign ...`` via main()."""

import json
import re

import pytest

from repro import obs
from repro.__main__ import main
from repro.campaign import Journal


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    yield
    obs.disable()


def _write_spec(tmp_path, seeds=(1, 2), name="cli-sweep") -> str:
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "name": name,
                "base": {"benchmark": "c17", "max_random_patterns": 16},
                "grid": {"seed": list(seeds)},
            }
        )
    )
    return str(path)


def _campaign(tmp_path) -> str:
    return str(tmp_path / "camp")


# ---------------------------------------------------------------------------
# run / resume
# ---------------------------------------------------------------------------
def test_campaign_run_inline_completes(capsys, tmp_path):
    code = main(
        [
            "campaign",
            "run",
            _write_spec(tmp_path),
            "--dir",
            _campaign(tmp_path),
            "--workers",
            "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "2 new job(s) submitted" in out
    assert "2 done (0 from cache, 2 computed)" in out


def test_campaign_rerun_serves_everything_from_journal(capsys, tmp_path):
    spec = _write_spec(tmp_path)
    camp = _campaign(tmp_path)
    assert main(["campaign", "run", spec, "--dir", camp, "--workers", "0"]) == 0
    capsys.readouterr()
    # Second submission of the same sweep: all jobs are already DONE.
    assert main(["campaign", "run", spec, "--dir", camp, "--workers", "0"]) == 0
    out = capsys.readouterr().out
    assert "0 new job(s) submitted (2 total)" in out
    assert "2 done" in out


def test_campaign_shared_results_dir_serves_from_cache(capsys, tmp_path):
    spec = _write_spec(tmp_path)
    results = str(tmp_path / "shared-results")
    assert (
        main(
            [
                "campaign", "run", spec,
                "--dir", str(tmp_path / "a"),
                "--workers", "0",
                "--results-dir", results,
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert (
        main(
            [
                "campaign", "run", spec,
                "--dir", str(tmp_path / "b"),
                "--workers", "0",
                "--results-dir", results,
            ]
        )
        == 0
    )
    assert "2 done (2 from cache, 0 computed)" in capsys.readouterr().out


def test_campaign_resume_continues_after_stop(capsys, tmp_path):
    spec = _write_spec(tmp_path)
    camp = _campaign(tmp_path)
    assert main(["campaign", "run", spec, "--dir", camp, "--workers", "0"]) == 0
    capsys.readouterr()
    # Manually journal two fresh pending jobs by re-submitting a wider sweep
    # through resume's sibling: run with a superset spec.
    wider = _write_spec(tmp_path, seeds=(1, 2, 3))
    assert (
        main(["campaign", "run", wider, "--dir", camp, "--workers", "0"]) == 0
    )
    capsys.readouterr()
    assert main(["campaign", "resume", "--dir", camp, "--workers", "0"]) == 0
    assert "3 done" in capsys.readouterr().out


def test_campaign_resume_without_campaign_exits_2(capsys, tmp_path):
    code = main(
        ["campaign", "resume", "--dir", str(tmp_path / "void"), "--workers", "0"]
    )
    assert code == 2
    assert "no campaign journal" in capsys.readouterr().err


def test_campaign_run_bad_spec_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "grid": {"nonsense": [1]}}))
    code = main(
        [
            "campaign", "run", str(bad),
            "--dir", _campaign(tmp_path),
            "--workers", "0",
        ]
    )
    assert code == 2
    assert "invalid campaign spec" in capsys.readouterr().err


def test_campaign_run_negative_workers_exits_2(capsys, tmp_path):
    code = main(
        [
            "campaign", "run", _write_spec(tmp_path),
            "--dir", _campaign(tmp_path),
            "--workers", "-1",
        ]
    )
    assert code == 2
    assert "--workers" in capsys.readouterr().err


def test_campaign_run_nonpositive_lease_timeout_exits_2(capsys, tmp_path):
    code = main(
        [
            "campaign", "run", _write_spec(tmp_path),
            "--dir", _campaign(tmp_path),
            "--workers", "0",
            "--lease-timeout", "0",
        ]
    )
    assert code == 2
    assert "--lease-timeout" in capsys.readouterr().err


def test_campaign_quarantine_exits_1(capsys, tmp_path):
    from repro.campaign import chaos
    from repro.campaign.chaos import ChaosPlan, ChaosRule

    plan = ChaosPlan(rules=(ChaosRule(point="campaign.job", kind="fatal"),))
    with chaos.active(plan):
        with pytest.warns(RuntimeWarning, match="quarantined"):
            code = main(
                [
                    "campaign", "run", _write_spec(tmp_path, seeds=(1,)),
                    "--dir", _campaign(tmp_path),
                    "--workers", "0",
                ]
            )
    assert code == 1
    assert "1 quarantined" in capsys.readouterr().out


def test_campaign_events_stream(capsys, tmp_path):
    events = tmp_path / "events.jsonl"
    code = main(
        [
            "campaign", "run", _write_spec(tmp_path, seeds=(1,)),
            "--dir", _campaign(tmp_path),
            "--workers", "0",
            "--events", str(events),
        ]
    )
    assert code == 0
    lines = [json.loads(line) for line in events.read_text().splitlines()]
    journalled = [r for r in lines if r["type"] != "counters"]
    records, _ = Journal(tmp_path / "camp", readonly=True).replay()
    assert journalled == json.loads(json.dumps(records))
    assert [r["type"] for r in lines] == [
        "campaign", "lease", "done", "counters", "end"
    ]


def test_campaign_run_progress_counts_every_submitted_job(capsys, tmp_path):
    code = main(
        [
            "campaign", "run", _write_spec(tmp_path, seeds=range(1, 7)),
            "--dir", _campaign(tmp_path),
            "--workers", "2",
            "--progress",
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    progress = [line for line in err.splitlines() if "totals:" in line]
    assert progress, err
    for line in progress:
        counts = re.search(
            r"totals: (\d+) done, (\d+) pending, (\d+) leased, "
            r"(\d+) quarantined",
            line,
        )
        assert counts is not None, line
        assert sum(int(n) for n in counts.groups()) == 6, line
    # The full status table closes the run.
    assert "6 job(s)" in err
    assert progress[-1].endswith("totals: 6 done, 0 pending, 0 leased, "
                                 "0 quarantined")


# ---------------------------------------------------------------------------
# status / gc
# ---------------------------------------------------------------------------
def test_campaign_status_table(capsys, tmp_path):
    spec = _write_spec(tmp_path)
    camp = _campaign(tmp_path)
    assert main(["campaign", "run", spec, "--dir", camp, "--workers", "0"]) == 0
    capsys.readouterr()
    assert main(["campaign", "status", "--dir", camp]) == 0
    out = capsys.readouterr().out
    assert "2 job(s)" in out
    assert "[finished]" in out
    assert "totals: 2 done, 0 pending, 0 leased, 0 quarantined" in out


def test_campaign_status_missing_dir_exits_2(capsys, tmp_path):
    assert main(["campaign", "status", "--dir", str(tmp_path / "void")]) == 2
    assert "no campaign journal" in capsys.readouterr().err


def test_campaign_gc_reclaims_unreferenced_results(capsys, tmp_path):
    from repro.campaign import ResultStore

    spec = _write_spec(tmp_path)
    camp = _campaign(tmp_path)
    assert main(["campaign", "run", spec, "--dir", camp, "--workers", "0"]) == 0
    capsys.readouterr()
    store = ResultStore(tmp_path / "camp" / "results")
    store.save("feedfacedeadbeef", {"orphan": True})  # not in any history

    assert main(["campaign", "gc", "--dir", camp, "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert "would remove 1 result dir(s)" in out
    assert store.has("feedfacedeadbeef")  # dry run deleted nothing

    assert main(["campaign", "gc", "--dir", camp]) == 0
    out = capsys.readouterr().out
    assert "removed 1 result dir(s)" in out
    assert "reclaimed" in out
    assert not store.has("feedfacedeadbeef")
    assert len(store.job_ids()) == 2  # live results kept


def test_campaign_status_stop_only_journal(capsys, tmp_path):
    """A journal holding nothing but a stop record (a campaign killed
    before its spec was submitted) must explain itself, not crash."""
    camp = tmp_path / "camp"
    camp.mkdir()
    with Journal(camp) as journal:
        journal.append({"type": "stop", "reason": "SIGTERM"})
    assert main(["campaign", "status", "--dir", str(camp)]) == 0
    out = capsys.readouterr().out
    assert "stopped before any job started" in out
    assert "SIGTERM" in out
    assert "resume will wait" in out


def test_campaign_status_follow_exits_when_complete(capsys, tmp_path):
    spec = _write_spec(tmp_path)
    camp = _campaign(tmp_path)
    assert main(["campaign", "run", spec, "--dir", camp, "--workers", "0"]) == 0
    capsys.readouterr()
    # The campaign is already finished: --follow renders once and returns.
    assert main(
        ["campaign", "status", "--dir", camp, "--follow", "--interval", "0.05"]
    ) == 0
    out = capsys.readouterr().out
    assert "DONE" in out or "done" in out


def test_campaign_status_follow_rejects_bad_interval(capsys, tmp_path):
    spec = _write_spec(tmp_path)
    camp = _campaign(tmp_path)
    assert main(["campaign", "run", spec, "--dir", camp, "--workers", "0"]) == 0
    capsys.readouterr()
    assert main(
        ["campaign", "status", "--dir", camp, "--follow", "--interval", "0"]
    ) == 2
    assert "--interval must be positive" in capsys.readouterr().err


def test_campaign_status_is_read_only(tmp_path):
    spec = _write_spec(tmp_path)
    camp = _campaign(tmp_path)
    assert main(["campaign", "run", spec, "--dir", camp, "--workers", "0"]) == 0
    journal_path = tmp_path / "camp" / "journal.jsonl"
    before = journal_path.read_bytes()
    # Tear the tail: an appendable open would heal (rewrite) the file.
    journal_path.write_bytes(before[:-3])
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["campaign", "status", "--dir", camp]) == 0
    assert journal_path.read_bytes() == before[:-3]


def test_campaign_trace_rejects_the_retired_events_flag(capsys, tmp_path):
    # Jobs publish no events, so there is no worker stream to overlay.
    with pytest.raises(SystemExit):
        main(
            [
                "campaign", "trace", "--dir", _campaign(tmp_path),
                "--events", str(tmp_path / "events.jsonl"),
            ]
        )
    assert "--events" in capsys.readouterr().err
