"""Streaming pipeline events: pub/sub bus, typed events, sinks and renderer.

Long fault-simulation and ATPG campaigns give no signal while they run —
spans and counters only materialise *after* a stage finishes.  The event bus
closes that gap: instrumented code publishes small typed events **while
working**, and any number of subscribers consume them live:

* :class:`JsonlEventSink` — one JSON object per line, flushed per event, for
  machine consumption (``--events FILE``; tail it during a run);
* :class:`ProgressRenderer` — a dependency-free terminal renderer
  (``--progress``): patterns applied, faults remaining, detection rate
  and an ETA from the observed completion rate;
* :class:`ListSink` — in-memory capture, used by the Chrome-trace exporter
  to place retry/checkpoint instant events on the timeline, and by tests.

Like spans and metrics, events are **zero-cost when disabled**: with no bus
installed ``obs.emit`` early-returns after one module-global check, and call
sites inside loops guard event *construction* behind
``obs.events_enabled()``.  Event publication is low-frequency by design —
per stage, per pattern batch, per campaign job — never per pattern or per
fault.

Every event carries two clocks: ``ts`` (``time.time()``, for humans and
cross-machine logs) and ``ts_mono`` (``time.perf_counter()``, the clock
spans use, so exporters can align events with span timelines).
"""

from __future__ import annotations

import json
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, TextIO

__all__ = [
    "Event",
    "ProgressEvent",
    "StageEvent",
    "RetryEvent",
    "CheckpointEvent",
    "CampaignEvent",
    "EventBus",
    "JsonlEventSink",
    "ListSink",
    "ProgressRenderer",
    "event_from_record",
]


@dataclass
class Event:
    """Base event: a name, two clocks, free-form extras."""

    ts: float = field(default=0.0, kw_only=True)
    ts_mono: float = field(default=0.0, kw_only=True)

    def __post_init__(self) -> None:
        if not self.ts:
            self.ts = time.time()
        if not self.ts_mono:
            self.ts_mono = time.perf_counter()

    @property
    def type(self) -> str:
        return type(self).__name__

    def to_record(self) -> dict:
        """JSON-able representation; ``type`` discriminates on the wire."""
        record: dict = {"type": self.type}
        for key, value in self.__dict__.items():
            record[key] = value
        return record


@dataclass
class ProgressEvent(Event):
    """Incremental progress of one stage: ``completed`` of ``total`` units.

    ``total`` may be None for open-ended work (e.g. PODEM's target list
    shrinks as vectors retire several faults).  ``data`` carries stage
    telemetry for renderers: ``faults_remaining``, ``detection_rate``.
    """

    stage: str = "?"
    completed: float = 0.0
    total: float | None = None
    unit: str = ""
    data: dict = field(default_factory=dict)


@dataclass
class StageEvent(Event):
    """A named stage started or finished (``status``: "start" | "end")."""

    stage: str = "?"
    status: str = "start"
    wall_s: float | None = None
    data: dict = field(default_factory=dict)


@dataclass
class RetryEvent(Event):
    """A transiently-failed unit of work is being retried."""

    point: str = "?"
    key: object = None
    attempt: int = 0
    reason: str = ""
    delay_s: float = 0.0


@dataclass
class CheckpointEvent(Event):
    """A pipeline checkpoint was saved, restored, or found corrupt."""

    stage: str = "?"
    action: str = "save"  # "save" | "restore" | "corrupt"
    path: str | None = None


@dataclass
class CampaignEvent(Event):
    """A campaign job changed state under the supervisor.

    ``action``: ``"lease"`` | ``"done"`` | ``"cached"`` | ``"counters"`` |
    ``"reclaim"`` | ``"quarantine"`` | ``"degrade"`` | ``"stop"``.  ``job``
    is the config hash (``"-"`` for campaign-wide actions); ``data`` carries
    the action's detail (``attempt``, ``result_sha``, ``reason``,
    ``workers``, the job's ``counters`` snapshot, ...).
    """

    job: str = "?"
    action: str = "lease"
    data: dict = field(default_factory=dict)


_EVENT_TYPES: dict[str, type[Event]] = {
    cls.__name__: cls
    for cls in (
        ProgressEvent,
        StageEvent,
        RetryEvent,
        CheckpointEvent,
        CampaignEvent,
    )
}


def event_from_record(record: dict) -> Event:
    """Rebuild a typed event from a :meth:`Event.to_record` dictionary."""
    kind = _EVENT_TYPES.get(str(record.get("type")), None)
    fields = {k: v for k, v in record.items() if k != "type"}
    if kind is None:
        return Event(
            ts=float(fields.get("ts", 0.0)),
            ts_mono=float(fields.get("ts_mono", 0.0)),
        )
    return kind(**fields)


class EventBus:
    """Thread-safe fan-out of events to subscriber callbacks.

    A subscriber that raises is dropped after a one-line warning — a broken
    sink must never take the pipeline down with it.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._subscribers: list[Callable[[Event], None]] = []
        self.published = 0

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        with self._lock:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[Event], None]) -> None:
        with self._lock:
            if callback in self._subscribers:
                self._subscribers.remove(callback)

    def publish(self, event: Event) -> None:
        with self._lock:
            subscribers = list(self._subscribers)
            self.published += 1
        dead: list[Callable[[Event], None]] = []
        for callback in subscribers:
            try:
                callback(event)
            except Exception as exc:
                warnings.warn(
                    f"event subscriber {callback!r} raised {exc!r}; "
                    "unsubscribing it",
                    RuntimeWarning,
                    stacklevel=2,
                )
                dead.append(callback)
        if dead:
            with self._lock:
                for callback in dead:
                    if callback in self._subscribers:
                        self._subscribers.remove(callback)


class ListSink:
    """Collect every published event in order (in-memory)."""

    def __init__(self, bus: EventBus | None = None):
        self.events: list[Event] = []
        if bus is not None:
            bus.subscribe(self)

    def __call__(self, event: Event) -> None:
        self.events.append(event)


class JsonlEventSink:
    """Append each event to ``path`` as one JSON line, flushed immediately.

    Flushing per event keeps the file tailable while the run is alive; the
    volume is low (events are per stage / chunk / batch).  Close the sink to
    release the handle; a closed sink silently discards.
    """

    def __init__(self, path: str, bus: EventBus | None = None):
        self.path = path
        self._handle: TextIO | None = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self.written = 0
        if bus is not None:
            bus.subscribe(self)

    def __call__(self, event: Event) -> None:
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(
                json.dumps(event.to_record(), sort_keys=True, default=repr)
                + "\n"
            )
            self._handle.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


def _fmt_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


class ProgressRenderer:
    """Terminal renderer for the live event stream (``--progress``).

    On a TTY, progress lines redraw in place (carriage return); otherwise
    each update prints on its own line, throttled to at most one line per
    ``min_interval`` seconds per stage so CI logs stay readable.  Stage
    starts/ends, retries and checkpoint actions always get their own line.

    The ETA extrapolates the stage's observed completion rate: remaining
    units over units completed per second since the stage's first event.
    """

    def __init__(
        self,
        stream: TextIO | None = None,
        min_interval: float = 0.5,
    ):
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._first_seen: dict[str, float] = {}
        self._last_printed: dict[str, float] = {}
        self._line_open = False
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self._tty = False

    # -- formatting ---------------------------------------------------------
    def _eta(self, event: ProgressEvent) -> float | None:
        if event.total is None or event.completed <= 0:
            return None
        remaining = max(0.0, event.total - event.completed)
        if not remaining:
            return 0.0
        first = self._first_seen.setdefault(event.stage, event.ts_mono)
        elapsed = event.ts_mono - first
        if elapsed <= 0:
            return None
        rate = event.completed / elapsed
        return remaining / rate if rate > 0 else None

    def _progress_line(self, event: ProgressEvent) -> str:
        parts = [f"[{event.stage}]"]
        if event.total is not None:
            parts.append(
                f"{event.completed:g}/{event.total:g} {event.unit}".rstrip()
            )
        else:
            parts.append(f"{event.completed:g} {event.unit}".rstrip())
        remaining = event.data.get("faults_remaining")
        if remaining is not None:
            parts.append(f"{remaining} faults left")
        rate = event.data.get("detection_rate")
        if rate is not None:
            parts.append(f"{100.0 * float(rate):.1f}% detected")
        eta = self._eta(event)
        if eta is not None and eta > 0:
            parts.append(f"eta {_fmt_eta(eta)}")
        return " | ".join(parts)

    # -- output -------------------------------------------------------------
    def _write_line(self, text: str, transient: bool) -> None:
        if self._tty:
            # Clear any in-place progress line before a permanent line.
            prefix = "\r\x1b[2K" if self._line_open else ""
            end = "" if transient else "\n"
            self.stream.write(f"{prefix}{text}{end}")
            self._line_open = transient
        else:
            self.stream.write(text + "\n")
        self.stream.flush()

    def __call__(self, event: Event) -> None:
        if isinstance(event, ProgressEvent):
            now = event.ts_mono
            finished = (
                event.total is not None and event.completed >= event.total
            )
            last = self._last_printed.get(event.stage)
            if (
                not self._tty
                and not finished
                and last is not None
                and now - last < self.min_interval
            ):
                return
            self._last_printed[event.stage] = now
            self._write_line(self._progress_line(event), transient=self._tty)
        elif isinstance(event, StageEvent):
            if event.status == "start":
                self._write_line(f"[{event.stage}] started", transient=False)
            else:
                duration = (
                    f" in {event.wall_s:.2f}s" if event.wall_s is not None else ""
                )
                detail = ""
                if event.data:
                    detail = "  (" + ", ".join(
                        f"{k}={v}" for k, v in sorted(event.data.items())
                    ) + ")"
                self._write_line(
                    f"[{event.stage}] done{duration}{detail}", transient=False
                )
        elif isinstance(event, RetryEvent):
            self._write_line(
                f"[retry] {event.point} key={event.key} "
                f"attempt={event.attempt} after {event.delay_s:.2f}s: "
                f"{event.reason}",
                transient=False,
            )
        elif isinstance(event, CheckpointEvent):
            self._write_line(
                f"[checkpoint] {event.action} {event.stage}", transient=False
            )

    def close(self) -> None:
        """Terminate a dangling in-place progress line."""
        if self._tty and self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False
