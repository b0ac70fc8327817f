#!/usr/bin/env python3
"""Campaign smoke: SIGKILL a live campaign, resume it, verify bit-exactness.

A six-job c17 sweep runs under ``python -m repro campaign`` in a child
process; the moment the write-ahead journal records its first completed
job (with another job's lease still open, so the kill leaves a reclaim
for the observatory to show) the child is killed with SIGKILL — the one
signal nothing can handle.  ``campaign resume`` then replays the journal
and finishes the sweep, and the script asserts:

* every result is **bit-identical** to an uninterrupted reference campaign
  (the result records carry no wall-clock facts, so equality is exact);
* jobs completed before the kill were not recomputed (no second lease);
* a fresh campaign sharing the result store serves **all** jobs from cache
  with zero simulation — its journal holds cached completions only;
* the record stream (``--events``) of the killed-then-resumed campaign
  carries per-job ``counters`` records **bit-identical** to the reference
  stream;
* ``campaign trace`` rebuilds a Chrome trace from the journal alone:
  one process group per job plus the reclaimed-lease marker;
* ``obs list --campaign`` reads one result row per journalled ``done``
  job, each with its fitted ``theta_max`` and residual ``DL``.

This is the CI campaign-smoke gate.  The campaign directory (journal,
events and trace included) survives at ``campaign-smoke/`` for artifact
upload.

Run:  PYTHONPATH=src python examples/campaign_smoke.py
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.campaign import Journal, ResultStore

HOME = Path("campaign-smoke")
SEEDS = (1, 2, 3, 4, 5, 6)
KILL_ATTEMPTS = 3


def write_spec() -> Path:
    spec_path = HOME / "spec.json"
    spec_path.write_text(
        json.dumps(
            {
                "name": "smoke-sweep",
                "base": {"benchmark": "c17", "max_random_patterns": 32},
                "grid": {"seed": list(SEEDS)},
            }
        )
    )
    return spec_path


def campaign_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", "campaign", *args]


def run_campaign(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH="src")
    rc = subprocess.run(campaign_cmd(*args), env=env).returncode
    assert rc == 0, f"campaign {args[0]} exited {rc}"


def reference_records(spec_path: Path) -> dict[str, dict]:
    """An uninterrupted campaign: the ground truth every path must match."""
    run_campaign(
        "run", str(spec_path),
        "--dir", str(HOME / "reference"),
        "--workers", "0",
        "--events", str(HOME / "reference_events.jsonl"),
    )
    store = ResultStore(HOME / "reference" / "results")
    reference = {job_id: store.load(job_id) for job_id in store.job_ids()}
    assert len(reference) == len(SEEDS), sorted(reference)
    # Apart from its counters records, the stream is the journal itself.
    with open(HOME / "reference_events.jsonl", encoding="utf-8") as handle:
        streamed = [json.loads(line) for line in handle]
    journalled = Journal(HOME / "reference", readonly=True).replay()[0]
    assert [r for r in streamed if r["type"] != "counters"] == journalled
    return reference


def _journal_counts(camp: Path) -> tuple[int, int]:
    """(done records, still-open leases) — tolerating a torn tail."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        records, _ = Journal(camp, readonly=True).replay()
    done = sum(1 for r in records if r.get("type") == "done")
    leases = sum(1 for r in records if r.get("type") == "lease")
    closed = sum(
        1
        for r in records
        if r.get("type") in ("done", "fail", "reclaim", "quarantine")
    )
    return done, leases - closed


def kill_mid_flight(spec_path: Path) -> int:
    """SIGKILL the campaign after a ``done`` with another lease still open.

    The open lease is what resume reclaims — the observatory's trace must
    show it.  The kill window is narrow, so retry with a fresh
    directory if the child slips through it.
    """
    camp = HOME / "camp"
    events = HOME / "camp_events.jsonl"
    env = dict(os.environ, PYTHONPATH="src")
    for attempt in range(KILL_ATTEMPTS):
        shutil.rmtree(camp, ignore_errors=True)
        events.unlink(missing_ok=True)
        child = subprocess.Popen(
            campaign_cmd(
                "run", str(spec_path),
                "--dir", str(camp),
                "--workers", "0",
                "--events", str(events),
            ),
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 120.0
        armed = False
        while time.monotonic() < deadline:
            if child.poll() is not None:
                break  # finished before we fired: retry
            try:
                done, open_leases = _journal_counts(camp)
            except Exception:
                done, open_leases = 0, 0
            if done >= 1 and open_leases >= 1:
                armed = True
                break
            time.sleep(0.01)
        if not armed:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=30)
            print(f"kill window missed (attempt {attempt + 1}); retrying")
            continue
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
        done_before, open_leases = _journal_counts(camp)
        if done_before < 1 or open_leases < 1 or done_before >= len(SEEDS):
            print(
                f"kill landed outside the window (attempt {attempt + 1}: "
                f"{done_before} done, {open_leases} open); retrying"
            )
            continue
        print(
            f"killed campaign with SIGKILL after {done_before} completed "
            f"job(s), {open_leases} lease(s) left open"
        )
        return done_before
    raise AssertionError(
        f"could not land SIGKILL inside the window in {KILL_ATTEMPTS} tries"
    )


def resume_and_verify(reference: dict[str, dict], done_before: int) -> None:
    camp = HOME / "camp"
    # The resumed supervisor appends to the same --events stream: the file
    # ends up holding the records of both lives of the campaign.
    run_campaign(
        "resume", "--dir", str(camp), "--workers", "0",
        "--events", str(HOME / "camp_events.jsonl"),
    )

    records, _ = Journal(camp).replay()
    leases: dict[str, int] = {}
    for record in records:
        if record.get("type") == "lease":
            leases[record["job"]] = leases.get(record["job"], 0) + 1
    done_jobs = [r["job"] for r in records if r.get("type") == "done"]
    assert len(done_jobs) == len(SEEDS), done_jobs
    # The resume reclaimed the lease the SIGKILL orphaned.
    assert any(r.get("type") == "reclaim" for r in records), (
        "no reclaim journalled on resume"
    )
    # Jobs finished before the kill must not have been recomputed: exactly
    # one lease each, journalled before their completion.
    survivors = done_jobs[:done_before]
    for job_id in survivors:
        assert leases.get(job_id) == 1, (job_id, leases)

    store = ResultStore(camp / "results")
    resumed = {job_id: store.load(job_id) for job_id in store.job_ids()}
    assert resumed == reference, "resumed results differ from reference"
    print(
        f"resume ok: {len(done_jobs)} jobs done, survivors kept their single "
        "lease, all results bit-identical to the uninterrupted reference"
    )


def verify_cache_serving(reference: dict[str, dict]) -> None:
    """A fresh campaign over the same store must do zero simulation."""
    run_campaign(
        "run", str(HOME / "spec.json"),
        "--dir", str(HOME / "cached"),
        "--workers", "0",
        "--results-dir", str(HOME / "camp" / "results"),
    )
    records, _ = Journal(HOME / "cached").replay()
    kinds = [r["type"] for r in records]
    assert kinds.count("lease") == 0, kinds  # zero simulation
    dones = [r for r in records if r["type"] == "done"]
    assert len(dones) == len(SEEDS) and all(r["cached"] for r in dones), dones
    store = ResultStore(HOME / "camp" / "results")
    assert {j: store.load(j) for j in store.job_ids()} == reference
    print(
        f"cache ok: {len(dones)} jobs served from cache with zero leases, "
        "store untouched"
    )


def _counters_by_job(events_path: Path) -> dict[str, dict]:
    """Per-job counters snapshots from a --events campaign record stream."""
    counters: dict[str, dict] = {}
    with open(events_path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail of the SIGKILLed writer
            if record.get("type") == "counters":
                counters[record["job"]] = record["counters"]
    return counters


def verify_event_stream() -> None:
    """Acceptance (a): merged per-job counters match the reference stream."""
    reference = _counters_by_job(HOME / "reference_events.jsonl")
    merged = _counters_by_job(HOME / "camp_events.jsonl")
    assert len(reference) == len(SEEDS), sorted(reference)
    assert set(merged) == set(reference), (
        sorted(merged), sorted(reference)
    )
    for job_id, expected in reference.items():
        got = merged[job_id]
        assert got == expected, (
            f"job {job_id[:12]} counters diverge from reference:\n"
            f"  reference: {json.dumps(expected, sort_keys=True)}\n"
            f"  merged:    {json.dumps(got, sort_keys=True)}"
        )
    assert json.dumps(merged, sort_keys=True) == json.dumps(
        reference, sort_keys=True
    )
    print(
        f"events ok: merged stream's per-job counters bit-identical to the "
        f"reference for all {len(merged)} job(s)"
    )


def verify_trace() -> None:
    """Acceptance (b): a Chrome trace rebuilds from the journal alone."""
    trace_path = HOME / "camp" / "trace.json"
    run_campaign(
        "trace", "--dir", str(HOME / "camp"), "--out", str(trace_path)
    )
    trace = json.loads(trace_path.read_text())
    process_names = [
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e.get("ph") == "M" and e["name"] == "process_name"
    ]
    job_groups = [n for n in process_names if n.startswith("job ")]
    assert len(job_groups) == len(SEEDS), process_names
    assert "campaign supervisor" in process_names
    markers = {
        e["name"] for e in trace["traceEvents"] if e.get("ph") == "i"
    }
    assert "lease reclaimed" in markers, sorted(markers)
    assert trace["otherData"]["timebase"].startswith("journal wall clock")
    print(
        f"trace ok: {len(job_groups)} job lane groups + supervisor, "
        "reclaimed-lease marker present, journal-only timebase"
    )


def verify_results() -> None:
    """Acceptance (c): ``obs list --campaign`` reads every finished job."""
    camp = HOME / "camp"
    env = dict(os.environ, PYTHONPATH="src")
    listing = subprocess.run(
        [sys.executable, "-m", "repro", "obs", "list",
         "--campaign", str(camp), "--json"],
        env=env, capture_output=True, text=True, check=True,
    )
    rows = json.loads(listing.stdout)
    records, _ = Journal(camp, readonly=True).replay()
    done = {r["job"] for r in records if r.get("type") == "done"}
    assert rows, "obs list found no per-job manifests"
    for row in rows:
        assert row["job_id"] in done, (row["job_id"], sorted(done))
        assert row["theta_max"] is not None, row
        assert row["final_DL_ppm"] is not None, row
    print(
        f"results ok: {len(rows)} manifest row(s), every one a journalled "
        "done job carrying theta_max and DL ppm"
    )


def main() -> int:
    shutil.rmtree(HOME, ignore_errors=True)
    HOME.mkdir(parents=True)
    spec_path = write_spec()
    reference = reference_records(spec_path)
    print(f"reference campaign complete ({len(reference)} results)")
    done_before = kill_mid_flight(spec_path)
    resume_and_verify(reference, done_before)
    verify_cache_serving(reference)
    verify_event_stream()
    verify_trace()
    verify_results()
    print("campaign smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
