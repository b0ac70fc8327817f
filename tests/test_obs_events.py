"""The span stream behind ``--events``/``--progress`` and its JSONL writer."""

import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs.events import JsonlWriter, span_record
from repro.obs.manifest import read_manifests
from repro.obs.trace import TraceCollector


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    yield
    obs.disable()


def _post_order(record: dict, depth: int = 0):
    """A manifest span record's tree as stream records, in post-order."""
    for child in record["children"]:
        yield from _post_order(child, depth + 1)
    yield {
        **{k: v for k, v in record.items() if k != "children"},
        "depth": depth,
    }


# ---------------------------------------------------------------------------
# the collector callback
# ---------------------------------------------------------------------------
def test_on_end_sees_every_span_in_post_order_with_depth():
    seen = []
    collector = TraceCollector(on_end=lambda s, d: seen.append(span_record(s, d)))
    with collector.start("root", {"k": 1}):
        with collector.start("a", {}):
            with collector.start("a.inner", {}):
                pass
        with collector.start("b", {}):
            pass
    with collector.start("second_root", {}):
        pass
    expected = [
        record
        for root in collector.roots
        for record in _post_order(root.to_record())
    ]
    assert seen == expected
    assert [(r["name"], r["depth"]) for r in seen] == [
        ("a.inner", 2),
        ("a", 1),
        ("b", 1),
        ("root", 0),
        ("second_root", 0),
    ]


def test_span_record_drops_only_children():
    collector = TraceCollector()
    with collector.start("root", {"n": 3}):
        with collector.start("child", {}):
            pass
    (root,) = collector.roots
    record = span_record(root, 0)
    full = root.to_record()
    del full["children"]
    assert record == {**full, "depth": 0}


# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------
def test_jsonl_sink_writes_parseable_flushed_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    writer = JsonlWriter(str(path))
    writer({"type": "lease", "job": "j"})
    # Flushed per record: readable before close.
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    writer({"type": "done", "job": "j"})
    writer.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["type"] for r in records] == ["lease", "done"]
    assert writer.written == 2
    # A closed writer discards silently instead of raising.
    writer({"type": "late"})
    assert writer.written == 2


def test_failed_write_stops_the_stream_with_a_warning(tmp_path):
    class FullDisk:
        def write(self, _text):
            raise OSError(28, "No space left on device")

        def close(self):
            raise OSError(28, "No space left on device")

    writer = JsonlWriter(str(tmp_path / "events.jsonl"))
    writer._handle.close()
    writer._handle = FullDisk()
    with pytest.warns(RuntimeWarning, match="the stream stops here"):
        writer({"type": "lease"})
    writer({"type": "done"})  # discarded, no second warning
    assert writer.written == 0
    writer.close()


# ---------------------------------------------------------------------------
# the CLI stream against the manifest (oracle)
# ---------------------------------------------------------------------------
def test_events_stream_is_the_manifest_span_tree_in_post_order(
    capsys, tmp_path
):
    events = tmp_path / "events.jsonl"
    trace = tmp_path / "run.jsonl"
    code = main(
        [
            "c17", "--seed", "8086",
            "--events", str(events), "--trace", str(trace),
        ]
    )
    assert code == 0
    capsys.readouterr()
    streamed = [json.loads(line) for line in events.read_text().splitlines()]
    (manifest,) = read_manifests(str(trace))
    (run,) = [s for s in manifest.spans if s["name"] == "pipeline.run"]
    expected = json.loads(json.dumps(list(_post_order(run)), default=repr))
    assert streamed == expected
    assert streamed[-1]["name"] == "pipeline.run"
