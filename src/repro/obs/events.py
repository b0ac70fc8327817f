"""The ``--events`` JSON-lines writer and the span record it streams.

Both ``--events`` flags stream records of the channel that already
records the work: ``python -m repro`` writes one :func:`span_record` per
finished span (fed by :class:`~repro.obs.trace.TraceCollector`'s
``on_end``), and ``campaign run/resume`` writes the journalled records
(fed by :class:`~repro.campaign.supervisor.CampaignSupervisor`'s
``on_record``).
"""

from __future__ import annotations

import json
import threading
import warnings
from contextlib import suppress
from typing import TextIO

from repro.obs.trace import Span

__all__ = ["JsonlWriter", "span_record"]


def span_record(span: Span, depth: int) -> dict:
    """One finished span as a stream record: no ``children``, plus ``depth``."""
    record = span.to_record(children=False)
    record["depth"] = depth
    return record


class JsonlWriter:
    """Append each record to ``path`` as one JSON line, flushed immediately.

    Flushing per record keeps the file tailable while the run is alive.
    Close the writer to release the handle; a closed writer discards.  A
    failed write closes the writer with a warning, so a full disk stops the
    stream, not the run that feeds it.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle: TextIO | None = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self.written = 0

    def __call__(self, record: dict) -> None:
        with self._lock:
            if self._handle is None:
                return
            try:
                self._handle.write(
                    json.dumps(record, sort_keys=True, default=repr) + "\n"
                )
                self._handle.flush()
            except OSError as exc:
                warnings.warn(
                    f"cannot write {self.path} ({exc}); the stream stops here",
                    RuntimeWarning,
                    stacklevel=2,
                )
                with suppress(OSError):
                    self._handle.close()
                self._handle = None
                return
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
