"""Cross-job trace export and the sweep report builder.

The trace tests prove the issue's post-mortem property: a Chrome/Perfetto
trace rebuilds from the *journal alone* — one process group per job, lanes
per worker, instant markers for reclaims/retries/cache hits — and degrades
to a synthetic timebase on pre-``ts`` journals.  The report tests cover the
self-contained HTML contract plus the ``--baseline``/``--gate`` regression
strip (same exit-code contract as ``obs check-bench``).
"""

import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.campaign import Journal
from repro.obs.campaign_html import (
    CAMPAIGN_PANEL_IDS,
    campaign_regressions,
)
from repro.obs.export import campaign_chrome_trace, write_campaign_trace


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    yield
    obs.disable()


def _synthetic_records(with_ts=True) -> list[dict]:
    """A two-job campaign: job-a retried then done, job-b reclaimed once."""

    def stamp(record, ts):
        if with_ts:
            record["ts"] = ts
        return record

    jobs = [
        {"job_id": "job-a", "config": {"seed": 1}, "priority": 0,
         "max_attempts": 3},
        {"job_id": "job-b", "config": {"seed": 2}, "priority": 0,
         "max_attempts": 3},
    ]
    return [
        stamp({"type": "campaign", "name": "t", "spec": {}, "jobs": jobs},
              100.0),
        stamp({"type": "lease", "job": "job-a", "lease_id": "L1",
               "attempt": 0}, 100.1),
        stamp({"type": "lease", "job": "job-b", "lease_id": "L2",
               "attempt": 0}, 100.2),
        stamp({"type": "fail", "job": "job-a", "attempt": 0,
               "kind": "transient", "reason": "TimeoutError"}, 100.4),
        stamp({"type": "reclaim", "job": "job-b",
               "reason": "lease expired"}, 100.6),
        stamp({"type": "lease", "job": "job-a", "lease_id": "L3",
               "attempt": 1}, 100.7),
        stamp({"type": "done", "job": "job-a", "cached": False,
               "result_sha": "a" * 64, "wall_s": 0.5, "worker_pid": 4242},
              101.2),
        stamp({"type": "lease", "job": "job-b", "lease_id": "L4",
               "attempt": 1}, 101.3),
        stamp({"type": "done", "job": "job-b", "cached": True,
               "result_sha": "b" * 64}, 101.4),
        stamp({"type": "end", "name": "t"}, 101.5),
    ]


# ---------------------------------------------------------------------------
# trace: built from the journal alone
# ---------------------------------------------------------------------------
def test_trace_gives_each_job_its_own_process_group():
    trace = campaign_chrome_trace(_synthetic_records())
    names = {
        (e["pid"], e["args"]["name"])
        for e in trace["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert (0, "campaign supervisor") in names
    assert (1, "job job-a") in names
    assert (2, "job job-b") in names
    assert trace["otherData"]["jobs"] == 2
    assert trace["otherData"]["timebase"].startswith("journal wall clock")


def test_trace_lease_intervals_land_on_worker_lanes():
    trace = campaign_chrome_trace(_synthetic_records())
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    job_a = {e["name"]: e for e in spans if e["pid"] == 1}
    # job-a's final attempt ran on the reporting worker's pid lane.
    done = job_a["attempt 1 [done]"]
    assert done["tid"] == 4242
    assert done["args"]["outcome"] == "done"
    # Attempt 0 ended in a transient failure on the attempt-number lane
    # (the worker never reported a pid).
    fail = job_a["attempt 0 [fail]"]
    assert fail["tid"] == 0
    # Timebase rebased to the earliest stamp: nothing starts before 0.
    assert min(e["ts"] for e in trace["traceEvents"] if "ts" in e) == 0.0
    assert done["dur"] == pytest.approx(0.5e6)


def test_trace_markers_for_reclaim_retry_and_cache_hit():
    trace = campaign_chrome_trace(
        _synthetic_records(), compactions=[101.45]
    )
    markers = {
        e["name"] for e in trace["traceEvents"] if e["ph"] == "i"
    }
    assert "lease reclaimed" in markers
    assert "retry (transient failure)" in markers
    assert "cache hit" in markers
    assert "journal compacted" in markers


def test_trace_degrades_to_synthetic_timebase_without_ts():
    trace = campaign_chrome_trace(_synthetic_records(with_ts=False))
    assert "synthetic" in trace["otherData"]["timebase"]
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans, "lease intervals must survive the ts-less degrade"
    # 1ms-per-record spacing keeps ordering readable.
    assert all(e["dur"] > 0 for e in spans)


def test_trace_closes_leases_left_open_by_a_crash():
    records = _synthetic_records()[:3]  # campaign + two leases, no terminal
    trace = campaign_chrome_trace(records)
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["args"]["outcome"] for e in spans} == {"open"}
    assert all(e["args"]["note"] == "no terminal record" for e in spans)


def test_write_campaign_trace_is_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    count = write_campaign_trace(str(path), _synthetic_records())
    payload = json.loads(path.read_text())
    assert len(payload["traceEvents"]) == count
    assert payload["displayTimeUnit"] == "ms"


# ---------------------------------------------------------------------------
# regressions vs a baseline campaign
# ---------------------------------------------------------------------------
def _walls_journal(directory, walls: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    jobs = [
        {"job_id": j, "config": {"seed": i}, "priority": 0, "max_attempts": 3}
        for i, j in enumerate(walls)
    ]
    with Journal(directory) as journal:
        journal.append(
            {"type": "campaign", "name": "t", "spec": {}, "jobs": jobs,
             "ts": 100.0}
        )
        now = 100.0
        for i, (job, wall) in enumerate(walls.items()):
            journal.append(
                {"type": "lease", "job": job, "lease_id": f"L{i}",
                 "attempt": 0, "ts": now}
            )
            now += wall
            journal.append(
                {"type": "done", "job": job, "cached": False,
                 "result_sha": "0" * 64, "wall_s": wall, "worker_pid": 1,
                 "ts": now}
            )
        journal.append({"type": "end", "name": "t", "ts": now})


def test_campaign_regressions_flags_only_jobs_past_tolerance(tmp_path):
    _walls_journal(tmp_path / "base", {"j1": 0.1, "j2": 0.1, "j3": 0.1})
    _walls_journal(tmp_path / "cur", {"j1": 0.11, "j2": 0.5, "j4": 9.0})
    base, _ = Journal(tmp_path / "base", readonly=True).replay()
    cur, _ = Journal(tmp_path / "cur", readonly=True).replay()
    rows = campaign_regressions(cur, base, tolerance=3.0)
    # j4 has no baseline, j3 no current: only the common jobs compare.
    assert [r["job"] for r in rows] == ["j1", "j2"]
    by_job = {r["job"]: r for r in rows}
    assert not by_job["j1"]["regressed"]
    assert by_job["j2"]["regressed"]
    assert by_job["j2"]["ratio"] == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# report CLI: self-contained HTML, graceful degrade, gate
# ---------------------------------------------------------------------------
def _run_real_campaign(tmp_path, name="report-sweep") -> str:
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "name": name,
                "base": {"benchmark": "c17", "max_random_patterns": 16},
                "grid": {"seed": [1, 2]},
            }
        )
    )
    camp = str(tmp_path / "camp")
    assert (
        main(["campaign", "run", str(spec), "--dir", camp, "--workers", "0"])
        == 0
    )
    return camp


def test_report_cli_renders_self_contained_html(capsys, tmp_path):
    camp = _run_real_campaign(tmp_path)
    capsys.readouterr()
    assert main(["campaign", "report", "--dir", camp]) == 0
    out = capsys.readouterr().out
    assert "wrote campaign report" in out
    html = (tmp_path / "camp" / "report.html").read_text()
    for panel_id in CAMPAIGN_PANEL_IDS:
        assert f'id="{panel_id}"' in html
    assert "<script" not in html
    assert "http://" not in html and "https://" not in html
    assert "report-sweep" in html
    # The sweep axis (seed) made it into the small multiples.
    assert "seed" in html


def test_report_degrades_gracefully_on_ts_less_journal(capsys, tmp_path):
    """Pre-PR-10 journals (no per-record wall clocks) still render."""
    directory = tmp_path / "old"
    directory.mkdir()
    jobs = [{"job_id": "j1", "config": {"seed": 1}, "priority": 0,
             "max_attempts": 3}]
    with Journal(directory) as journal:
        for record in (
            {"type": "campaign", "name": "old", "spec": {}, "jobs": jobs},
            {"type": "lease", "job": "j1", "lease_id": "L", "attempt": 0},
            {"type": "done", "job": "j1", "cached": False,
             "result_sha": "0" * 64, "wall_s": 0.2, "worker_pid": 1},
            {"type": "end", "name": "old"},
        ):
            # Raw Journal.append stamps nothing — only the supervisor adds
            # ts — so this journal is byte-faithful to the old format.
            journal.append(dict(record))
    records, _ = Journal(directory, readonly=True).replay()
    assert all("ts" not in r for r in records)

    out_file = str(tmp_path / "old-report.html")
    assert main(["campaign", "report", "--dir", str(directory),
                 "--out", out_file]) == 0
    html = open(out_file).read()
    for panel_id in CAMPAIGN_PANEL_IDS:
        assert f'id="{panel_id}"' in html


def test_report_gate_fails_on_regressed_baseline(capsys, tmp_path):
    _walls_journal(tmp_path / "base", {"j1": 0.1, "j2": 0.1})
    _walls_journal(tmp_path / "cur", {"j1": 0.1, "j2": 2.0})
    out_file = str(tmp_path / "report.html")
    code = main(
        ["campaign", "report", "--dir", str(tmp_path / "cur"),
         "--out", out_file, "--baseline", str(tmp_path / "base"), "--gate"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "slower than" in captured.err
    html = open(out_file).read()
    assert 'id="panel-campaign-regression"' in html
    # Without --gate the same comparison only warns.
    assert main(
        ["campaign", "report", "--dir", str(tmp_path / "cur"),
         "--out", out_file, "--baseline", str(tmp_path / "base")]
    ) == 0


def test_report_gate_passes_on_clean_baseline(tmp_path):
    _walls_journal(tmp_path / "base", {"j1": 0.1})
    _walls_journal(tmp_path / "cur", {"j1": 0.1})
    assert main(
        ["campaign", "report", "--dir", str(tmp_path / "cur"),
         "--out", str(tmp_path / "r.html"),
         "--baseline", str(tmp_path / "base"), "--gate"]
    ) == 0


def test_report_missing_dir_exits_2(capsys, tmp_path):
    assert main(
        ["campaign", "report", "--dir", str(tmp_path / "nope")]
    ) == 2
    assert "error" in capsys.readouterr().err


def test_trace_cli_writes_trace_json(capsys, tmp_path):
    camp = _run_real_campaign(tmp_path, name="trace-sweep")
    capsys.readouterr()
    assert main(["campaign", "trace", "--dir", camp]) == 0
    out = capsys.readouterr().out
    assert "trace event(s)" in out
    payload = json.loads((tmp_path / "camp" / "trace.json").read_text())
    process_names = {
        e["args"]["name"]
        for e in payload["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    }
    assert "campaign supervisor" in process_names
    assert sum(n.startswith("job ") for n in process_names) == 2
