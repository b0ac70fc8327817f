"""Chrome/Perfetto trace-event export of collected spans.

Converts a :class:`~repro.obs.trace.TraceCollector`'s span forest into the
Chrome trace-event JSON format (the ``{"traceEvents": [...]}`` object form),
loadable in ``chrome://tracing`` and https://ui.perfetto.dev.

Layout:

* one **process lane**: the pipeline runs in one process.  Spans nest by
  time, which the viewers render correctly;
* spans become complete events (``"ph": "X"``) with microsecond timestamps.

Timestamps are rebased to the earliest span so traces start at t=0.
Campaign traces (:func:`campaign_chrome_trace`) are built from the journal
instead, one process group per job.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence

from repro.obs.trace import Span, TraceCollector

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "campaign_chrome_trace",
    "write_campaign_trace",
]


def _jsonable_args(attributes: dict[str, object]) -> dict[str, object]:
    return {
        k: v if isinstance(v, (bool, int, float, str, type(None))) else repr(v)
        for k, v in attributes.items()
    }


def _collect_complete_events(
    span: Span,
    lane_pid: int,
    base: float,
    out: list[dict],
) -> None:
    if span.end_wall is not None:
        out.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": round(1e6 * (span.start_wall - base), 3),
                "dur": round(1e6 * span.wall_time, 3),
                "pid": lane_pid,
                "tid": lane_pid,
                "args": _jsonable_args(span.attributes),
            }
        )
    for child in span.children:
        _collect_complete_events(child, lane_pid, base, out)


def _earliest_start(spans: Iterable[Span]) -> float | None:
    starts = [
        s.start_wall
        for root in spans
        for s in root.iter_tree()
        if s.end_wall is not None
    ]
    return min(starts) if starts else None


def chrome_trace(
    collector: TraceCollector,
    main_pid: int | None = None,
) -> dict:
    """Build the Chrome trace-event object for a collector's span forest.

    ``main_pid`` labels the parent lane (default: this process).
    """
    pid = main_pid if main_pid is not None else os.getpid()
    roots = list(collector.roots)
    base = _earliest_start(roots)
    if base is None:
        base = 0.0
    trace_events: list[dict] = []
    for root in roots:
        _collect_complete_events(root, pid, base, trace_events)

    trace_events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": pid,
            "args": {"name": "pipeline (main)"},
        }
    )
    trace_events.append(
        {
            "name": "process_sort_index",
            "ph": "M",
            "pid": pid,
            "tid": pid,
            "args": {"sort_index": 0},
        }
    )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, collector: TraceCollector) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    trace = chrome_trace(collector)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True)
        handle.write("\n")
    return len(trace["traceEvents"])


# ---------------------------------------------------------------------------
# Campaign-scoped traces: one process group per job, built from the journal
# ---------------------------------------------------------------------------
#: Synthetic pid of the supervisor lane (job lanes count up from 1).
SUPERVISOR_LANE = 0

#: Journal record types that terminate an open lease interval.
_TERMINAL_TYPES = frozenset({"done", "fail", "reclaim", "quarantine"})


def _record_ts(record: dict) -> float | None:
    ts = record.get("ts")
    if isinstance(ts, (int, float)) and not isinstance(ts, bool):
        return float(ts)
    return None


def campaign_chrome_trace(records: Sequence[dict]) -> dict:
    """Build one Chrome/Perfetto trace for a whole campaign.

    ``records`` are replayed journal records (plain dicts) — the trace is
    reconstructable from the journal alone, post-mortem.  Layout:

    * **one process group per job** (synthetic pids counting from 1, the
      supervisor on pid 0), named by the job's config hash;
    * **one lane per worker** inside a job's group: each lease interval
      becomes a complete event on the tid of the worker pid that finished it
      (attempt number when the worker never reported, e.g. a reclaim);
    * **instant markers** for lease reclaims, transient-failure retries,
      cache hits and stop records.

    The timebase is rebased to the earliest journal wall clock (the ``ts``
    the supervisor stamps on every record).  Raises :class:`ValueError`
    when no record carries one: there is no timeline to draw.
    """
    records = list(records)
    # Synthetic pid per job, in first-seen order (campaign record first).
    job_pids: dict[str, int] = {}

    def lane(job_id: str) -> int:
        if job_id not in job_pids:
            job_pids[job_id] = len(job_pids) + 1
        return job_pids[job_id]

    for record in records:
        if record.get("type") == "campaign":
            for entry in record.get("jobs", ()):
                if isinstance(entry, dict) and "job_id" in entry:
                    lane(str(entry["job_id"]))

    stamps = [t for r in records if (t := _record_ts(r)) is not None]
    if not stamps:
        raise ValueError(
            "the journal holds no record with a wall-clock 'ts' stamp"
        )
    base = min(stamps)
    last = base
    times = []
    for record in records:
        ts = _record_ts(record)
        last = ts if ts is not None else last
        times.append(last)

    def us(ts: float) -> float:
        return round(1e6 * (ts - base), 3)

    trace_events: list[dict] = []
    open_leases: dict[str, tuple[float, int]] = {}  # job -> (t0, attempt)

    def close_lease(job_id: str, t1: float, record: dict) -> None:
        started = open_leases.pop(job_id, None)
        if started is None:
            return
        t0, attempt = started
        kind = str(record.get("type"))
        pid_value = record.get("worker_pid")
        tid = pid_value if isinstance(pid_value, int) else attempt
        trace_events.append(
            {
                "name": f"attempt {attempt} [{kind}]",
                "ph": "X",
                "ts": us(t0),
                "dur": round(1e6 * max(0.0, t1 - t0), 3),
                "pid": lane(job_id),
                "tid": tid,
                "args": _jsonable_args(
                    {
                        k: v
                        for k, v in record.items()
                        if k not in ("type", "job", "ts")
                    }
                    | {"outcome": kind}
                ),
            }
        )

    def marker(
        name: str, ts: float, pid: int, args: dict | None = None
    ) -> None:
        trace_events.append(
            {
                "name": name,
                "ph": "i",
                "s": "g",
                "ts": us(ts),
                "pid": pid,
                "tid": pid if pid == SUPERVISOR_LANE else 0,
                "args": _jsonable_args(args or {}),
            }
        )

    for record, now in zip(records, times):
        kind = record.get("type")
        job_id = str(record.get("job", "-"))
        if kind == "campaign":
            marker(
                f"campaign {record.get('name', '?')} registered "
                f"({len(record.get('jobs', ()))} job(s))",
                now,
                SUPERVISOR_LANE,
            )
        elif kind == "lease":
            open_leases[job_id] = (now, int(record.get("attempt", 0)))
        elif kind in _TERMINAL_TYPES:
            cached = kind == "done" and bool(record.get("cached"))
            if cached:
                marker(
                    "cache hit",
                    now,
                    lane(job_id),
                    {"result_sha": record.get("result_sha")},
                )
            close_lease(job_id, now, record)
            if kind == "reclaim":
                marker(
                    "lease reclaimed",
                    now,
                    lane(job_id),
                    {"reason": record.get("reason")},
                )
            elif kind == "fail":
                marker(
                    "retry (transient failure)",
                    now,
                    lane(job_id),
                    {
                        "reason": record.get("reason"),
                        "kind": record.get("kind"),
                    },
                )
            elif kind == "quarantine":
                marker(
                    "quarantined",
                    now,
                    lane(job_id),
                    {"reason": record.get("reason")},
                )
        elif kind == "stop":
            marker(
                f"stop ({record.get('reason', '?')})",
                now,
                SUPERVISOR_LANE,
            )
        elif kind == "end":
            marker("campaign complete", now, SUPERVISOR_LANE)
    # Leases still open at the end of the journal: the supervisor died (or
    # is still running).  Draw them to the last known instant so the killed
    # attempt is visible next to its later reclaim.
    t_end = times[-1]
    for job_id in list(open_leases):
        close_lease(
            job_id, t_end, {"type": "open", "note": "no terminal record"}
        )

    # Process metadata: the supervisor lane first, one group per job after.
    used = {e["pid"] for e in trace_events}
    for pid in sorted(used | {SUPERVISOR_LANE}):
        label = "campaign supervisor"
        for job_id, job_pid in job_pids.items():
            if job_pid == pid:
                label = f"job {job_id[:16]}"
                break
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        trace_events.append(
            {
                "name": "process_sort_index",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"sort_index": pid},
            }
        )

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "source": "repro campaign journal",
            "timebase": "journal wall clock, rebased to the earliest record",
            "jobs": len(job_pids),
        },
    }


def write_campaign_trace(path: str, records: Sequence[dict]) -> int:
    """Write a campaign trace JSON to ``path``; returns the event count."""
    trace = campaign_chrome_trace(records)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, sort_keys=True)
        handle.write("\n")
    return len(trace["traceEvents"])
