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


def test_renderer_eta_uses_ewma_of_chunk_latencies():
    renderer, stream = _renderer()
    for done, latency in ((1, 2.0), (2, 4.0)):
        renderer(
            ProgressEvent(
                stage="par",
                completed=done,
                total=4,
                unit="chunks",
                data={"chunk_id": done - 1, "latency_s": latency, "workers": 2},
            )
        )
    # EWMA after (2.0, 4.0) with alpha=0.4: 0.4*4 + 0.6*2 = 2.8;
    # 2 chunks remain over 2 workers -> eta = 2.8s.
    assert renderer._ewma["par"] == pytest.approx(2.8)
    assert "eta 2.8s" in stream.getvalue().splitlines()[-1]


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
# campaign events and the bounded envelope buffer (the event bridge)
# ---------------------------------------------------------------------------
def test_campaign_and_job_event_json_round_trip():
    from repro.obs.events import CampaignEvent, JobEvent

    inner = ProgressEvent(
        stage="fault_sim", completed=7, total=32, unit="patterns"
    )
    for event in (
        CampaignEvent(
            job="abc123", action="done", data={"result_sha": "d" * 64}
        ),
        JobEvent(
            job="abc123",
            config_hash="abc123",
            worker_pid=4242,
            inner=inner.to_record(),
        ),
    ):
        record = event.to_record()
        rebuilt = event_from_record(json.loads(json.dumps(record)))
        assert type(rebuilt) is type(event)
        assert rebuilt.to_record() == record


def test_job_event_rebuilds_typed_inner_event():
    from repro.obs.events import JobEvent

    inner = ProgressEvent(stage="podem", completed=3, total=9)
    wrapped = JobEvent(job="j1", inner=inner.to_record())
    assert wrapped.inner_type == "ProgressEvent"
    rebuilt = wrapped.inner_event()
    assert isinstance(rebuilt, ProgressEvent)
    assert rebuilt.stage == "podem"
    assert rebuilt.completed == 3


def test_bounded_buffer_writes_envelopes_and_reader_round_trips(tmp_path):
    from repro.obs.events import BoundedEventBuffer, read_event_envelopes

    path = tmp_path / "chan.jsonl"
    buffer = BoundedEventBuffer(
        str(path), tags={"job": "j1", "worker_pid": 7}, flush_size=2
    )
    buffer(StageEvent(stage="a", status="start"))
    buffer(StageEvent(stage="a", status="end"))  # hits flush_size
    buffer.close()

    envelopes, offset = read_event_envelopes(str(path))
    assert offset == path.stat().st_size
    assert [e["tags"]["job"] for e in envelopes] == ["j1"] * len(envelopes)
    records = [r for e in envelopes for r in e["events"]]
    assert [r["stage"] for r in records] == ["a", "a"]
    assert all(e["dropped"] == 0 for e in envelopes)
    # Nothing new: the reader stays put.
    assert read_event_envelopes(str(path), offset) == ([], offset)


def test_bounded_buffer_drops_oldest_and_publishes_loss(tmp_path):
    from repro.obs.events import BoundedEventBuffer, read_event_envelopes

    path = tmp_path / "chan.jsonl"
    # Huge flush_size + interval: nothing flushes until close, so the
    # capacity bound must drop the oldest records.
    buffer = BoundedEventBuffer(
        str(path),
        capacity=3,
        flush_size=10_000,
        min_interval=10_000.0,
        clock=lambda: 0.0,
    )
    for i in range(8):
        buffer(ProgressEvent(stage="s", completed=i))
    buffer.close()

    envelopes, _ = read_event_envelopes(str(path))
    final = envelopes[-1]
    # 8 published, capacity 3: the 5 oldest dropped, count published.
    assert final["dropped"] == 5
    kept = [r["completed"] for e in envelopes for r in e["events"]]
    assert kept == [5, 6, 7]
    assert buffer.dropped == 5


def test_bounded_buffer_close_always_writes_final_envelope(tmp_path):
    from repro.obs.events import BoundedEventBuffer, read_event_envelopes

    path = tmp_path / "chan.jsonl"
    buffer = BoundedEventBuffer(str(path))
    buffer.close()  # no events at all — the envelope still lands
    envelopes, _ = read_event_envelopes(str(path))
    assert len(envelopes) == 1
    assert envelopes[0]["events"] == []
    assert envelopes[0]["dropped"] == 0
    # A closed buffer discards silently instead of raising into the bus.
    buffer(StageEvent(stage="late"))
    assert buffer.envelopes_written == 1


def test_bounded_buffer_throttles_by_interval(tmp_path):
    from repro.obs.events import BoundedEventBuffer

    now = {"t": 0.0}
    buffer = BoundedEventBuffer(
        str(tmp_path / "chan.jsonl"),
        min_interval=1.0,
        flush_size=10_000,
        clock=lambda: now["t"],
    )
    buffer(StageEvent(stage="a"))  # t=0: within interval of construction
    assert buffer.envelopes_written == 0
    now["t"] = 0.5
    buffer(StageEvent(stage="b"))
    assert buffer.envelopes_written == 0
    now["t"] = 1.5
    buffer(StageEvent(stage="c"))  # interval elapsed: flush
    assert buffer.envelopes_written == 1


def test_envelope_reader_leaves_torn_tail_for_next_call(tmp_path):
    from repro.obs.events import read_event_envelopes

    path = tmp_path / "chan.jsonl"
    whole = json.dumps({"tags": {}, "dropped": 0, "events": []})
    path.write_text(whole + "\n" + '{"tags": {}, "dro')  # torn mid-write
    envelopes, offset = read_event_envelopes(str(path))
    assert len(envelopes) == 1
    assert offset == len(whole) + 1
    # The writer finishes the line: the next call picks it up.
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('pped": 1, "events": []}\n')
    more, offset2 = read_event_envelopes(str(path), offset)
    assert [e["dropped"] for e in more] == [1]
    assert offset2 == path.stat().st_size


def test_envelope_reader_missing_file_is_empty():
    from repro.obs.events import read_event_envelopes

    assert read_event_envelopes("/nonexistent/chan.jsonl") == ([], 0)


def test_renderer_renders_job_events_with_job_prefix():
    from repro.obs.events import JobEvent

    stream = io.StringIO()
    renderer = ProgressRenderer(stream=stream, min_interval=0.0)
    inner = ProgressEvent(stage="fault_sim", completed=4, total=8, unit="p")
    renderer(JobEvent(job="abcdef123456", inner=inner.to_record()))
    out = stream.getvalue()
    assert "(abcdef1234)" in out
    assert "[fault_sim]" in out
    assert "4/8" in out
