"""Crash-safety tests of the campaign write-ahead journal.

The core property — proved exhaustively for small journals and by
hypothesis for arbitrary crash prefixes — is *exact replay*: truncating the
journal at **any** byte boundary (what ``kill -9`` mid-append leaves
behind) yields replayed state equal to applying exactly the records whose
full lines survive, with at most a warning for the torn tail.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import Journal, JournalCorruptError
from repro.campaign import chaos
from repro.campaign.chaos import ChaosPlan, ChaosRule


def _note(i: int) -> dict:
    return {"type": "note", "i": i, "payload": f"record-{i}"}


def _write_journal(directory, n: int) -> list[dict]:
    records = [_note(i) for i in range(n)]
    with Journal(directory) as journal:
        for record in records:
            journal.append(record)
    return records


# ---------------------------------------------------------------------------
# append / replay basics
# ---------------------------------------------------------------------------
def test_append_and_replay_round_trip(tmp_path):
    records = _write_journal(tmp_path, 5)
    replayed, last_seq = Journal(tmp_path).replay()
    assert replayed == records
    assert last_seq == 4


def test_fresh_journal_replays_empty(tmp_path):
    replayed, last_seq = Journal(tmp_path).replay()
    assert replayed == []
    assert last_seq == -1


def test_reopened_journal_continues_sequence(tmp_path):
    _write_journal(tmp_path, 3)
    with Journal(tmp_path) as journal:
        seq = journal.append(_note(99))
    assert seq == 3
    replayed, last_seq = Journal(tmp_path).replay()
    assert last_seq == 3
    assert replayed[-1]["i"] == 99


# ---------------------------------------------------------------------------
# torn tail: truncate at every byte boundary of the last record
# ---------------------------------------------------------------------------
def test_torn_tail_tolerated_at_every_byte_of_last_record(tmp_path):
    records = _write_journal(tmp_path, 3)
    data = (tmp_path / "journal.jsonl").read_bytes()
    last_line_start = data.rstrip(b"\n").rfind(b"\n") + 1
    for cut in range(last_line_start + 1, len(data)):
        scenario = tmp_path / f"cut{cut}"
        scenario.mkdir()
        (scenario / "journal.jsonl").write_bytes(data[:cut])
        if cut == len(data) - 1:
            # Only the trailing newline is missing: the frame still
            # verifies, so the record is salvaged without a warning.
            replayed, last_seq = Journal(scenario).replay()
            assert replayed == records
            assert last_seq == 2
        else:
            with pytest.warns(RuntimeWarning, match="torn tail"):
                replayed, last_seq = Journal(scenario).replay()
            assert replayed == records[:2]
            assert last_seq == 1


def test_append_after_torn_tail_repairs_and_reuses_sequence(tmp_path):
    """Opening for append truncates the torn bytes, so the journal heals."""
    records = _write_journal(tmp_path, 2)
    path = tmp_path / "journal.jsonl"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 3])  # tear the last line
    with pytest.warns(RuntimeWarning, match="torn tail"):
        journal = Journal(tmp_path)
    assert journal.append(_note(7)) == 1  # seq of the torn record, reused
    journal.close()
    # The torn bytes were truncated before the append, so the healed
    # journal replays cleanly: first record intact, torn one replaced.
    replayed, last_seq = Journal(tmp_path).replay()
    assert replayed == [records[0], _note(7)]
    assert last_seq == 1


def test_mid_journal_corruption_raises(tmp_path):
    _write_journal(tmp_path, 4)
    path = tmp_path / "journal.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1][:10] + "#" + lines[1][11:]
    path.write_text("".join(lines))
    with pytest.raises(JournalCorruptError):
        Journal(tmp_path).replay()


def test_out_of_order_sequence_raises(tmp_path):
    _write_journal(tmp_path, 2)
    path = tmp_path / "journal.jsonl"
    lines = path.read_text().splitlines()
    path.write_text(lines[0] + "\n" + lines[0] + "\n" + lines[1] + "\n")
    with pytest.raises(JournalCorruptError, match="seq"):
        Journal(tmp_path).replay()


# ---------------------------------------------------------------------------
# hypothesis: replay is exact under arbitrary crash prefixes
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=8))
def test_replay_exact_under_arbitrary_crash_prefix(tmp_path_factory, data, n):
    tmp = tmp_path_factory.mktemp("wal")
    records = _write_journal(tmp, n)
    blob = (tmp / "journal.jsonl").read_bytes()
    cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
    scenario = tmp_path_factory.mktemp("cut")
    prefix = blob[:cut]
    (scenario / "journal.jsonl").write_bytes(prefix)
    # Records whose full line survives the crash; a final line missing
    # only its newline still verifies and is salvaged.
    complete = prefix.count(b"\n")
    partial = b"" if prefix.endswith(b"\n") or not prefix else (
        prefix.split(b"\n")[-1]
    )
    lines = blob.split(b"\n")
    salvaged = 1 if partial and partial == lines[complete] else 0
    survivors = complete + salvaged
    torn = bool(partial) and not salvaged
    if torn:
        with pytest.warns(RuntimeWarning, match="torn tail"):
            replayed, last_seq = Journal(scenario).replay()
    else:
        replayed, last_seq = Journal(scenario).replay()
    assert replayed == records[:survivors]
    assert last_seq == survivors - 1


# ---------------------------------------------------------------------------
# chaos-point mangling
# ---------------------------------------------------------------------------
def test_chaos_truncate_makes_torn_tail(tmp_path):
    plan = ChaosPlan(
        rules=(
            ChaosRule(point="campaign.journal", kind="truncate", keys={"stop"}),
        )
    )
    with Journal(tmp_path) as journal:
        journal.append(_note(0))
        with chaos.active(plan):
            journal.append({"type": "stop", "reason": "chaos"})
    with pytest.warns(RuntimeWarning, match="torn tail"):
        replayed, last_seq = Journal(tmp_path).replay()
    assert replayed == [_note(0)]
    assert last_seq == 0


def test_chaos_corrupt_makes_torn_tail(tmp_path):
    plan = ChaosPlan(
        rules=(
            ChaosRule(point="campaign.journal", kind="corrupt", keys={"note"}),
        )
    )
    with Journal(tmp_path) as journal:
        with chaos.active(plan):
            journal.append(_note(0))
    with pytest.warns(RuntimeWarning, match="torn tail"):
        replayed, _ = Journal(tmp_path).replay()
    assert replayed == []


# ---------------------------------------------------------------------------
# a directory compacted before compaction was retired
# ---------------------------------------------------------------------------
def test_journal_refuses_a_compacted_directory(tmp_path, capsys):
    """A snapshot beside a truncated journal is refused, never misread."""
    import hashlib

    from repro.__main__ import main
    from repro.campaign import JournalError

    # What the retired compaction left: the folded state of records 0..3
    # in snapshot.json and only the records after it (none) in the journal.
    state = {"name": "campaign", "jobs": {}, "job_order": [],
             "stopped": False, "stop_reason": None, "finished": False}
    blob = json.dumps(state, sort_keys=True)
    (tmp_path / "snapshot.json").write_text(
        json.dumps(
            {
                "magic": "repro-campaign-snapshot/1",
                "last_seq": 3,
                "state": state,
                "state_sha256": hashlib.sha256(blob.encode()).hexdigest(),
            },
            sort_keys=True,
        )
    )
    journal = tmp_path / "journal.jsonl"
    journal.write_text("")
    for readonly in (False, True):
        with pytest.raises(JournalError, match="snapshot.json"):
            Journal(tmp_path, readonly=readonly)
    for command in ("status", "resume", "trace"):
        assert main(["campaign", command, "--dir", str(tmp_path)]) == 2
        assert "snapshot.json" in capsys.readouterr().err
    assert journal.read_text() == ""  # refused without touching anything
    assert not (tmp_path / "trace.json").exists()


# ---------------------------------------------------------------------------
# readonly mode (status / trace / gc open the journal this way)
# ---------------------------------------------------------------------------
def test_readonly_replay_leaves_torn_tail_untouched(tmp_path):
    _write_journal(tmp_path, 2)
    path = tmp_path / "journal.jsonl"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 3])  # tear the last line
    with pytest.warns(RuntimeWarning, match="torn tail"):
        replayed, last_seq = Journal(tmp_path, readonly=True).replay()
    assert last_seq == 0
    assert len(replayed) == 1
    # The observer must not heal the journal out from under the owner.
    assert path.read_bytes() == data[: len(data) - 3]


def test_readonly_journal_refuses_to_write(tmp_path):
    from repro.campaign import JournalError

    _write_journal(tmp_path, 1)
    journal = Journal(tmp_path, readonly=True)
    with pytest.raises(JournalError, match="read-only"):
        journal.append(_note(9))
