"""Crash-safe campaign journal: an append-only, sha256-framed JSONL WAL.

Campaign state is never stored directly — it is **reconstructed** by
replaying the journal, so the journal is the single source of truth and the
only file the supervisor must get right under crashes.  The discipline:

* **Append-only frames.**  Each record is one JSON line
  ``{"record": {...}, "seq": N, "sha256": "<hex>"}`` where the digest covers
  ``"<seq>:<canonical record JSON>"``.  A line is written with one
  ``write`` call, flushed and fsynced before :meth:`Journal.append`
  returns — when a record is acknowledged, it is on disk.
* **Torn tail tolerated.**  A crash mid-append leaves a final line that is
  truncated (unparsable, or parsable with a failing digest).  Replay treats
  exactly that — a damaged *last* line — as "the append never happened",
  warns, and returns the state of every acknowledged record before it.
* **Corruption never trusted.**  A damaged line *before* the tail cannot be
  a torn append (appends are sequential), so it is real corruption: replay
  raises :class:`JournalCorruptError` rather than rebuilding wrong state.
  Out-of-order or duplicated ``seq`` values are rejected the same way.
* **No compaction.**  The journal is never folded into a snapshot: every
  reader (supervisor, ``status``, ``trace``, ``gc``) replays it from the
  first record.  A directory that still holds a ``snapshot.json`` from the
  retired ``campaign compact`` is refused, because its journal holds only
  the records after the snapshot.

The ``campaign.journal`` chaos point lets tests mangle the very bytes of an
append (``truncate`` / ``corrupt``) to exercise both replay policies.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import IO

from repro import obs
from repro.campaign import chaos

__all__ = [
    "Journal",
    "JournalError",
    "JournalCorruptError",
    "JOURNAL_NAME",
]

JOURNAL_NAME = "journal.jsonl"
#: What the retired ``campaign compact`` left beside a truncated journal.
_RETIRED_SNAPSHOT = "snapshot.json"


class JournalError(Exception):
    """The journal could not be read or written."""


class JournalCorruptError(JournalError):
    """A non-tail journal record failed verification."""


def _frame_digest(seq: int, record_json: str) -> str:
    return hashlib.sha256(f"{seq}:{record_json}".encode()).hexdigest()


class Journal:
    """The write-ahead journal of one campaign directory."""

    def __init__(self, directory: str | Path, readonly: bool = False):
        """Open the journal of ``directory``.

        ``readonly=True`` opens for replay only: no tail repair, no appends,
        no directory creation side effects beyond the home itself.  This is
        what observers (``campaign status``, ``trace``, ``gc``) use while a
        live supervisor — the single writer — may still be appending: a
        read-only open must never touch the file.
        """
        self.dir = Path(directory)
        self.readonly = readonly
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise JournalError(
                f"cannot create campaign directory {self.dir}: {exc}"
            ) from exc
        self.path = self.dir / JOURNAL_NAME
        snapshot = self.dir / _RETIRED_SNAPSHOT
        if snapshot.exists():
            raise JournalError(
                f"{snapshot} is a snapshot from the retired 'campaign "
                f"compact'; {self.path} holds only the records after it, "
                "so the campaign cannot be rebuilt from the journal"
            )
        self._handle: IO[str] | None = None
        self._next_seq = -1 if readonly else self._recover_next_seq()

    # -- write path ----------------------------------------------------
    def _open(self) -> IO[str]:
        if self._handle is None:
            try:
                self._handle = open(self.path, "a", encoding="utf-8")
            except OSError as exc:
                raise JournalError(
                    f"cannot open journal {self.path}: {exc}"
                ) from exc
        return self._handle

    def append(self, record: dict) -> int:
        """Durably append one record; returns its sequence number.

        The line is flushed and fsynced before returning: an acknowledged
        record survives ``kill -9`` of the supervisor.  The cooperative
        ``campaign.journal`` chaos point (key: the record's ``type``) can
        mangle the write to simulate a torn (``truncate``) or bit-flipped
        (``corrupt``) line.
        """
        if self.readonly:
            raise JournalError(
                f"journal {self.path} was opened read-only"
            )
        record_json = json.dumps(record, sort_keys=True)
        seq = self._next_seq
        line = (
            json.dumps(
                {
                    "record": record,
                    "seq": seq,
                    "sha256": _frame_digest(seq, record_json),
                },
                sort_keys=True,
            )
            + "\n"
        )
        mangle = chaos.planned_kind(
            "campaign.journal", key=str(record.get("type"))
        )
        if mangle == "truncate":
            line = line[: max(1, len(line) // 2)]
        elif mangle == "corrupt":
            flip = len(line) // 2
            line = line[:flip] + ("#" if line[flip] != "#" else "@") + line[flip + 1 :]
        handle = self._open()
        try:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())
        except OSError as exc:
            raise JournalError(
                f"cannot append to journal {self.path}: {exc}"
            ) from exc
        self._next_seq = seq + 1
        obs.inc("campaign.journal_appends")
        return seq

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- read path -----------------------------------------------------
    def _recover_next_seq(self) -> int:
        records, last_seq, valid_bytes, ends_clean = self._scan()
        del records
        # Repair the tail before this instance can append: damaged bytes
        # (or a verified final line missing only its newline) would turn a
        # tolerated tear into unrecoverable mid-file corruption once a new
        # record lands after them.
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = valid_bytes
        try:
            if size > valid_bytes:
                os.truncate(self.path, valid_bytes)
            if valid_bytes and not ends_clean:
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write("\n")
                    handle.flush()
                    os.fsync(handle.fileno())
        except OSError as exc:
            raise JournalError(
                f"cannot repair torn journal tail {self.path}: {exc}"
            ) from exc
        return last_seq + 1

    def replay(self) -> tuple[list[dict], int]:
        """Every verified journal record, in order.

        Returns ``(records, last_seq)``: ``last_seq`` is the highest
        acknowledged sequence number, or -1 for a fresh journal.
        """
        records, last_seq, _valid_bytes, _ends_clean = self._scan()
        return records, last_seq

    def _scan(self) -> tuple[list[dict], int, int, bool]:
        """Replay core; also reports the clean byte extent for tail repair.

        Returns ``(records, last_seq, valid_bytes, ends_clean)`` where
        ``valid_bytes`` is how many leading bytes hold verified records and
        ``ends_clean`` is False when the last verified record is missing its
        trailing newline (a crash can lose the newline but not the frame).
        """
        records: list[dict] = []
        last_seq = -1
        valid_bytes = 0
        ends_clean = True
        try:
            with open(self.path, encoding="utf-8") as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return records, last_seq, valid_bytes, ends_clean
        except OSError as exc:
            raise JournalError(
                f"cannot read journal {self.path}: {exc}"
            ) from exc
        for index, line in enumerate(lines):
            is_tail = index == len(lines) - 1
            try:
                seq, record = self._verify_line(line)
            except JournalCorruptError as exc:
                if is_tail:
                    # A damaged final line is the torn tail of a crashed
                    # append: the record was never acknowledged, so dropping
                    # it is exact — warn and stop.
                    warnings.warn(
                        f"{self.path}: discarding torn tail record ({exc})",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    obs.inc("campaign.journal_torn_tails")
                    break
                raise
            valid_bytes += len(line.encode("utf-8"))
            ends_clean = line.endswith("\n")
            if seq != last_seq + 1:
                raise JournalCorruptError(
                    f"{self.path}: line {index + 1} has seq {seq}, "
                    f"expected {last_seq + 1}"
                )
            records.append(record)
            last_seq = seq
        return records, last_seq, valid_bytes, ends_clean

    def _verify_line(self, line: str) -> tuple[int, dict]:
        stripped = line.strip()
        if not stripped:
            raise JournalCorruptError("empty line")
        try:
            frame = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise JournalCorruptError(f"unparsable frame: {exc}") from exc
        if not isinstance(frame, dict):
            raise JournalCorruptError(
                f"frame is {type(frame).__name__}, expected object"
            )
        missing = {"record", "seq", "sha256"} - set(frame)
        if missing:
            raise JournalCorruptError(
                f"frame missing key(s): {', '.join(sorted(missing))}"
            )
        seq = frame["seq"]
        record = frame["record"]
        if not isinstance(seq, int) or not isinstance(record, dict):
            raise JournalCorruptError("frame seq/record have wrong types")
        record_json = json.dumps(record, sort_keys=True)
        if frame["sha256"] != _frame_digest(seq, record_json):
            raise JournalCorruptError(f"digest mismatch on seq {seq}")
        return seq, record
