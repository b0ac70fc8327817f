"""Chrome/Perfetto trace export: one lane, rebasing, metadata, instant events."""

import json

import pytest

from repro import obs
from repro.obs.events import CheckpointEvent, RetryEvent, StageEvent
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.trace import TraceCollector


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    obs.disable_events()
    yield
    obs.disable()
    obs.disable_events()


def _collector_with_work():
    collector, _ = obs.enable()
    with collector.start("pipeline.run", {"benchmark": "c17"}):
        with collector.start("fault_sim.run", {}):
            pass
    return collector


def test_spans_become_complete_events_rebased_to_zero():
    collector = _collector_with_work()
    trace = chrome_trace(collector)
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {
        "pipeline.run",
        "fault_sim.run",
    }
    assert min(e["ts"] for e in complete) == 0.0
    assert all(e["dur"] >= 0 for e in complete)
    assert trace["displayTimeUnit"] == "ms"


def test_retry_and_checkpoint_events_become_instant_markers():
    collector = _collector_with_work()
    base = collector.roots[0].start_wall
    events = [
        RetryEvent(
            point="campaign.job",
            key=1,
            attempt=1,
            reason="boom",
            ts_mono=base + 0.25,
        ),
        CheckpointEvent(stage="atpg", action="save", ts_mono=base + 0.5),
        StageEvent(stage="atpg"),  # not a marker type: ignored
    ]
    trace = chrome_trace(collector, events=events)
    instants = [e for e in trace["traceEvents"] if e["ph"] == "i"]
    assert len(instants) == 2
    retry, checkpoint = instants
    assert retry["name"] == "retry campaign.job key=1"
    assert retry["s"] == "g"
    assert retry["ts"] == pytest.approx(250_000, abs=1000)
    assert retry["args"]["reason"] == "boom"
    assert "ts_mono" not in retry["args"]
    assert checkpoint["name"] == "checkpoint save atpg"


def test_empty_collector_still_produces_valid_trace():
    trace = chrome_trace(TraceCollector(), main_pid=7)
    names = {e["name"] for e in trace["traceEvents"]}
    assert names == {"process_name", "process_sort_index"}


def test_write_chrome_trace_is_valid_json(tmp_path):
    collector = _collector_with_work()
    path = tmp_path / "trace.json"
    count = write_chrome_trace(str(path), collector)
    parsed = json.loads(path.read_text())
    assert len(parsed["traceEvents"]) == count
    assert any(e["ph"] == "X" for e in parsed["traceEvents"])


def test_serial_run_exports_single_lane_trace():
    # Every complete event lands on the main lane and exactly one process
    # is named in the metadata.
    collector = _collector_with_work()
    trace = chrome_trace(collector, main_pid=42)
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert complete  # spans exported
    assert {e["pid"] for e in complete} == {42}
    meta = {
        e["pid"]: e["args"]["name"]
        for e in trace["traceEvents"]
        if e["name"] == "process_name"
    }
    assert meta == {42: "pipeline (main)"}
    # The document stays valid trace-event JSON end to end.
    json.loads(json.dumps(trace))


def test_serial_pipeline_chrome_trace_end_to_end(tmp_path):
    from repro.__main__ import main

    out = tmp_path / "trace.json"
    assert (
        main(
            [
                "c17",
                "--seed",
                "5",
                "--trace",
                str(out),
                "--trace-format",
                "chrome",
            ]
        )
        == 0
    )
    trace = json.loads(out.read_text())
    complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert any(e["name"] == "pipeline.run" for e in complete)
    # The pipeline runs in one process: one lane only.
    assert len({e["pid"] for e in complete}) == 1
