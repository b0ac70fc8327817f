"""Event bus, typed events, sinks and the terminal progress renderer."""

import io
import json
import warnings

import pytest

from repro import obs
from repro.obs.events import (
    CheckpointEvent,
    Event,
    EventBus,
    JsonlEventSink,
    ListSink,
    ProgressEvent,
    ProgressRenderer,
    RetryEvent,
    StageEvent,
    event_from_record,
)


@pytest.fixture(autouse=True)
def _clean_events_state():
    obs.disable_events()
    obs.disable()
    yield
    obs.disable_events()
    obs.disable()


# ---------------------------------------------------------------------------
# events and records
# ---------------------------------------------------------------------------
def test_events_stamp_both_clocks():
    event = ProgressEvent(stage="fault_sim", completed=3, total=10)
    assert event.ts > 0
    assert event.ts_mono > 0
    assert event.type == "ProgressEvent"


def test_event_record_round_trip():
    for event in (
        ProgressEvent(
            stage="fault_sim",
            completed=5,
            total=20,
            unit="patterns",
            data={"detection_rate": 0.5},
        ),
        StageEvent(stage="atpg", status="end", wall_s=1.25, data={"n": 3}),
        RetryEvent(
            point="campaign.job",
            key=2,
            attempt=1,
            reason="boom",
            delay_s=0.5,
        ),
        CheckpointEvent(stage="stuck_sim", action="save", path="/tmp/x.ckpt"),
    ):
        record = event.to_record()
        assert record["type"] == event.type
        rebuilt = event_from_record(json.loads(json.dumps(record)))
        assert type(rebuilt) is type(event)
        assert rebuilt.to_record() == record


def test_unknown_event_type_degrades_to_base_event():
    rebuilt = event_from_record({"type": "NoSuchEvent", "ts": 1.0, "ts_mono": 2.0})
    assert type(rebuilt) is Event
    assert rebuilt.ts == 1.0


# ---------------------------------------------------------------------------
# bus
# ---------------------------------------------------------------------------
def test_bus_fans_out_in_subscription_order():
    bus = EventBus()
    seen: list[str] = []
    bus.subscribe(lambda e: seen.append("a"))
    bus.subscribe(lambda e: seen.append("b"))
    bus.publish(StageEvent(stage="x"))
    assert seen == ["a", "b"]
    assert bus.published == 1


def test_broken_subscriber_is_dropped_with_warning():
    bus = EventBus()

    def broken(event):
        raise ValueError("sink died")

    healthy = ListSink(bus)
    bus.subscribe(broken)
    with pytest.warns(RuntimeWarning, match="unsubscribing"):
        bus.publish(StageEvent(stage="one"))
    # The broken sink is gone; the healthy one keeps receiving.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bus.publish(StageEvent(stage="two"))
    assert [e.stage for e in healthy.events] == ["one", "two"]


def test_emit_is_noop_without_bus():
    assert not obs.events_enabled()
    obs.emit(StageEvent(stage="ignored"))  # must not raise
    bus = obs.enable_events()
    sink = ListSink(bus)
    obs.emit(StageEvent(stage="seen"))
    obs.disable_events()
    obs.emit(StageEvent(stage="ignored-again"))
    assert [e.stage for e in sink.events] == ["seen"]


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------
def test_jsonl_sink_writes_parseable_flushed_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    bus = EventBus()
    sink = JsonlEventSink(str(path), bus)
    bus.publish(ProgressEvent(stage="s", completed=1, total=2))
    # Flushed per event: readable before close.
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    bus.publish(StageEvent(stage="s", status="end", wall_s=0.1))
    sink.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["type"] for r in records] == ["ProgressEvent", "StageEvent"]
    assert sink.written == 2
    # A closed sink discards silently instead of raising.
    bus.publish(StageEvent(stage="late"))
    assert sink.written == 2


# ---------------------------------------------------------------------------
# renderer
# ---------------------------------------------------------------------------
def _renderer(min_interval=0.0):
    stream = io.StringIO()  # not a TTY -> line-per-update mode
    return ProgressRenderer(stream=stream, min_interval=min_interval), stream


def test_renderer_formats_progress_fields():
    renderer, stream = _renderer()
    renderer(
        ProgressEvent(
            stage="fault_sim",
            completed=128,
            total=256,
            unit="patterns",
            data={"faults_remaining": 42, "detection_rate": 0.75},
        )
    )
    line = stream.getvalue()
    assert "[fault_sim]" in line
    assert "128/256 patterns" in line
    assert "42 faults left" in line
    assert "75.0% detected" in line


def test_renderer_eta_extrapolates_completion_rate():
    renderer, stream = _renderer()
    for done, t in ((1, 10.0), (3, 12.0)):
        renderer(
            ProgressEvent(
                stage="sim", completed=done, total=9, unit="batches", ts_mono=t
            )
        )
    # 3 of 9 done 2s after the first event: 1.5/s, 6 left -> eta 4.0s.
    assert "eta 4.0s" in stream.getvalue().splitlines()[-1]


def test_renderer_throttles_non_tty_but_prints_final(tmp_path):
    renderer, stream = _renderer(min_interval=3600.0)
    for k in range(1, 10):
        renderer(ProgressEvent(stage="s", completed=k, total=10))
    renderer(ProgressEvent(stage="s", completed=10, total=10))
    lines = stream.getvalue().splitlines()
    # First update prints, the rest throttle, the terminal one always prints.
    assert len(lines) == 2
    assert lines[-1].startswith("[s] | 10/10")


def test_renderer_gives_stage_retry_checkpoint_their_own_lines():
    renderer, stream = _renderer()
    renderer(StageEvent(stage="atpg", status="start"))
    renderer(StageEvent(stage="atpg", status="end", wall_s=2.0, data={"n": 1}))
    renderer(
        RetryEvent(
            point="campaign.job", key=1, attempt=1, reason="x", delay_s=0.25
        )
    )
    renderer(CheckpointEvent(stage="atpg", action="save"))
    renderer.close()
    lines = stream.getvalue().splitlines()
    assert lines[0] == "[atpg] started"
    assert lines[1].startswith("[atpg] done in 2.00s")
    assert "[retry] campaign.job key=1" in lines[2]
    assert lines[3] == "[checkpoint] save atpg"


# ---------------------------------------------------------------------------
# campaign events
# ---------------------------------------------------------------------------
def test_campaign_event_json_round_trip():
    from repro.obs.events import CampaignEvent

    event = CampaignEvent(
        job="abc123", action="done", data={"result_sha": "d" * 64}
    )
    record = event.to_record()
    rebuilt = event_from_record(json.loads(json.dumps(record)))
    assert type(rebuilt) is CampaignEvent
    assert rebuilt.to_record() == record
