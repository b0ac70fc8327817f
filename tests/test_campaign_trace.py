"""Cross-job trace export (``python -m repro campaign trace``).

The tests prove the post-mortem property: a Chrome/Perfetto trace rebuilds
from the *journal alone* — one process group per job, lanes per worker,
instant markers for reclaims/retries/cache hits — and refuses a journal
with no ``ts`` stamp rather than invent a timebase.
"""

import json

import pytest

from repro import obs
from repro.__main__ import main
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
    trace = campaign_chrome_trace(_synthetic_records())
    markers = {
        e["name"] for e in trace["traceEvents"] if e["ph"] == "i"
    }
    assert "lease reclaimed" in markers
    assert "retry (transient failure)" in markers
    assert "cache hit" in markers


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
# trace CLI over a real campaign directory
# ---------------------------------------------------------------------------
def _run_real_campaign(tmp_path, name) -> str:
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


def test_trace_refuses_a_journal_without_ts(capsys, tmp_path):
    from repro.campaign import Journal

    with Journal(tmp_path / "camp") as journal:
        for record in _synthetic_records(with_ts=False):
            journal.append(record)
    with pytest.raises(ValueError, match="'ts'"):
        campaign_chrome_trace(_synthetic_records(with_ts=False))
    assert main(["campaign", "trace", "--dir", str(tmp_path / "camp")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'ts'" in err
    assert not (tmp_path / "camp" / "trace.json").exists()
