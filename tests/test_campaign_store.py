"""Unit tests: content-addressed result store and its prune path."""

import json

import pytest

from repro.campaign import ResultStore, record_sha256, result_record
from repro.experiments import ExperimentConfig, run_experiment


def _record(i: int = 0) -> dict:
    return {"benchmark": "c17", "seed": i, "series": [[1, 0.5, 0.4, 0.1, 0.01]]}


# ---------------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------------
def test_save_load_round_trip(tmp_path):
    store = ResultStore(tmp_path)
    sha = store.save("job0", _record())
    assert sha == record_sha256(_record())
    assert store.has("job0")
    assert store.load("job0") == _record()
    assert store.job_ids() == ["job0"]


def test_load_missing_returns_none(tmp_path):
    assert ResultStore(tmp_path).load("nope") is None


def test_corrupt_result_tolerant_mode_warns_and_recomputes(tmp_path):
    store = ResultStore(tmp_path)
    store.save("job0", _record())
    path = store.path_for("job0")
    text = path.read_text()
    path.write_text(text.replace('"seed": 0', '"seed": 1'))
    with pytest.warns(RuntimeWarning, match="corrupt result"):
        assert store.load("job0") is None


def test_corrupt_result_strict_mode_raises(tmp_path):
    store = ResultStore(tmp_path)
    store.save("job0", _record())
    store.path_for("job0").write_text("{not json")
    with pytest.warns(RuntimeWarning, match="unparsable envelope"):
        assert store.load("job0") is None


def test_truncated_result_detected(tmp_path):
    store = ResultStore(tmp_path)
    store.save("job0", _record())
    path = store.path_for("job0")
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.warns(RuntimeWarning, match="unparsable envelope"):
        assert store.load("job0") is None


def test_wrong_job_id_detected(tmp_path):
    store = ResultStore(tmp_path)
    store.save("job0", _record())
    envelope = json.loads(store.path_for("job0").read_text())
    target = tmp_path / "job1"
    target.mkdir()
    (target / "result.json").write_text(json.dumps(envelope))
    with pytest.warns(RuntimeWarning, match="names job"):
        assert store.load("job1") is None


# ---------------------------------------------------------------------------
# determinism of result_record
# ---------------------------------------------------------------------------
def test_result_record_is_deterministic_and_json_safe():
    config = ExperimentConfig(benchmark="c17", max_random_patterns=16)
    result = run_experiment(config)
    a = result_record(result)
    b = result_record(run_experiment(config))
    assert a == b
    assert record_sha256(a) == record_sha256(b)
    json.dumps(a)  # must be JSON-able as-is
    assert "wall" not in json.dumps(a)  # no wall-clock facts


# ---------------------------------------------------------------------------
# prune
# ---------------------------------------------------------------------------
def test_result_store_prune_removes_only_unkept(tmp_path):
    store = ResultStore(tmp_path)
    for i in range(3):
        store.save(f"job{i}", _record(i))
    (tmp_path / "unrelated").mkdir()  # no result.json: untouchable
    removed, reclaimed = store.prune(keep_hashes={"job1"})
    assert removed == 2
    assert reclaimed > 0
    assert store.job_ids() == ["job1"]
    assert (tmp_path / "unrelated").exists()
