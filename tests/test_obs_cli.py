"""The ``python -m repro obs`` run-history subcommands."""

import json
import subprocess

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs.manifest import RunManifest, read_manifests


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture()
def history(tmp_path):
    """A trace file with two recorded runs (different seeds)."""
    path = tmp_path / "runs.jsonl"
    assert main(["c17", "--seed", "101", "--trace", str(path)]) == 0
    assert main(["c17", "--seed", "202", "--trace", str(path)]) == 0
    return path


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------
def test_obs_list_tabulates_runs(history, capsys):
    code = main(["obs", "list", str(history)])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 recorded run(s)" in out
    assert out.count("c17") >= 2
    assert "theta_max" in out
    assert "wall s" in out


def test_obs_list_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code = main(["obs", "list", str(empty)])
    assert code == 0
    assert "no runs recorded" in capsys.readouterr().out


def test_obs_list_missing_file_exits_2(tmp_path, capsys):
    code = main(["obs", "list", str(tmp_path / "nope.jsonl")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# list --json / --limit, on synthetic histories
# ---------------------------------------------------------------------------
def _manifest(seed=1, **overrides):
    """A synthetic but schema-complete manifest."""
    base = dict(
        benchmark="c17",
        config={"benchmark": "c17", "seed": seed},
        config_hash=f"hash{seed:04d}aaaaaaaa",
        seed=seed,
        git="abc1234",
        cache="miss",
        engine={"kind": "numpy", "word_width": 1024},
        stage_timings={"pipeline.run": 0.5, "pipeline.atpg": 0.2},
        spans=[
            {
                "name": "pipeline.run",
                "attributes": {},
                "wall_s": 0.5,
                "cpu_s": 0.4,
                "t0": 10.0,
                "t1": 10.5,
                "children": [
                    {
                        "name": "pipeline.atpg",
                        "attributes": {},
                        "wall_s": 0.2,
                        "cpu_s": 0.2,
                        "t0": 10.0,
                        "t1": 10.2,
                        "children": [],
                    },
                    {
                        "name": "fault_sim.run",
                        "attributes": {"engine": "numpy"},
                        "wall_s": 0.1,
                        "cpu_s": 0.1,
                        "t0": 10.2,
                        "t1": 10.3,
                        "children": [],
                    },
                ],
            }
        ],
        metrics={"counters": {"fault_sim.faults_simulated": 22}},
        results={
            "final_T": 0.95,
            "final_DL": 0.006,
            "n_patterns": 40,
            "theta_max_fit": 0.97,
        },
    )
    base.update(overrides)
    return RunManifest(**base)


def _write_history(tmp_path, manifests):
    path = tmp_path / "runs.jsonl"
    for manifest in manifests:
        manifest.write(str(path))
    return path


def test_obs_list_json_emits_typed_rows(tmp_path, capsys):
    path = _write_history(tmp_path, [_manifest(1), _manifest(2)])
    code = main(["obs", "list", str(path), "--json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert rows[0]["benchmark"] == "c17"
    assert rows[0]["theta_max"] == pytest.approx(0.97)
    assert rows[0]["final_DL_ppm"] == pytest.approx(6000.0)
    assert rows[0]["wall_s"] == pytest.approx(0.5)
    assert rows[1]["seed"] == 2


def test_obs_list_limit_keeps_most_recent(tmp_path, capsys):
    path = _write_history(tmp_path, [_manifest(s) for s in range(4)])
    code = main(["obs", "list", str(path), "--json", "--limit", "2"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["seed"] for r in rows] == [2, 3]


def test_obs_list_limit_rejects_nonpositive(tmp_path, capsys):
    path = _write_history(tmp_path, [_manifest(1)])
    assert main(["obs", "list", str(path), "--limit", "-1"]) == 2
    assert "--limit" in capsys.readouterr().err


def test_synthetic_manifest_roundtrips(tmp_path):
    # The fixture stays honest: what we synthesise is what the real
    # serialisation layer produces and re-reads.
    path = _write_history(tmp_path, [_manifest(1)])
    (back,) = read_manifests(str(path))
    assert back.spans[0]["children"][0]["name"] == "pipeline.atpg"
    assert back.engine == {"kind": "numpy", "word_width": 1024}


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------
def test_obs_diff_defaults_to_last_two_runs(history, capsys):
    code = main(["obs", "diff", str(history)])
    out = capsys.readouterr().out
    assert code == 0
    # The seed differs between the two runs -> config section present.
    assert "config" in out
    assert "seed" in out
    assert "101" in out and "202" in out


def test_obs_diff_explicit_indices(history, capsys):
    code = main(["obs", "diff", str(history), "0", "1"])
    assert code == 0
    assert "A: run 0" in capsys.readouterr().out


def test_obs_diff_identical_runs(history, capsys):
    code = main(["obs", "diff", str(history), "0", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "identical" in out


def test_obs_diff_needs_two_runs(tmp_path, capsys):
    path = tmp_path / "one.jsonl"
    assert main(["c17", "--trace", str(path)]) == 0
    code = main(["obs", "diff", str(path)])
    assert code == 2
    assert "needs two" in capsys.readouterr().err


def test_obs_diff_rejects_one_index(history, capsys):
    code = main(["obs", "diff", str(history), "0"])
    assert code == 2
    assert "zero or two" in capsys.readouterr().err


def test_obs_diff_index_out_of_range(history, capsys):
    code = main(["obs", "diff", str(history), "0", "9"])
    assert code == 2
    assert "out of range" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check-bench
# ---------------------------------------------------------------------------
def _bench(path, seconds):
    record = {
        "benchmark": "c432",
        "mode": "full",
        "serial": {"seconds": seconds, "coverage": 0.99},
        "parallel_seconds": seconds / 2,
    }
    path.write_text(json.dumps(record))
    return path


def test_check_bench_passes_within_tolerance(tmp_path, capsys):
    fresh = _bench(tmp_path / "fresh.json", 1.2)
    base = _bench(tmp_path / "base.json", 1.0)
    code = main(
        ["obs", "check-bench", str(fresh), "--baseline", str(base)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "OK: 2 timing key(s)" in out


def test_check_bench_fails_on_inflated_timing(tmp_path, capsys):
    fresh = _bench(tmp_path / "fresh.json", 10.0)
    base = _bench(tmp_path / "base.json", 1.0)
    code = main(
        ["obs", "check-bench", str(fresh), "--baseline", str(base)]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "REGRESSION" in captured.out
    assert "FAIL" in captured.err


def test_check_bench_tolerance_is_configurable(tmp_path):
    fresh = _bench(tmp_path / "fresh.json", 10.0)
    base = _bench(tmp_path / "base.json", 1.0)
    code = main(
        [
            "obs",
            "check-bench",
            str(fresh),
            "--baseline",
            str(base),
            "--tolerance",
            "20",
        ]
    )
    assert code == 0


def test_check_bench_only_compares_seconds_keys(tmp_path, capsys):
    # Non-timing drift (coverage) must not trip the gate.
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps({"seconds": 1.0, "coverage": 0.5}))
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"seconds": 1.0, "coverage": 0.99}))
    code = main(
        ["obs", "check-bench", str(fresh), "--baseline", str(base)]
    )
    assert code == 0
    assert "OK: 1 timing key(s)" in capsys.readouterr().out


def test_check_bench_no_shared_keys_exits_2(tmp_path, capsys):
    fresh = tmp_path / "fresh.json"
    fresh.write_text(json.dumps({"a_seconds": 1.0}))
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"b_seconds": 1.0}))
    code = main(
        ["obs", "check-bench", str(fresh), "--baseline", str(base)]
    )
    assert code == 2
    assert "no shared timing keys" in capsys.readouterr().err


def test_check_bench_missing_fresh_file_exits_2(tmp_path, capsys):
    code = main(["obs", "check-bench", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_bench_default_baseline_is_git_head(capsys):
    # The committed benchmark record gates against itself: always a pass.
    code = main(["obs", "check-bench", "BENCH_fault_sim.json"])
    out = capsys.readouterr().out
    assert code == 0
    assert "git:HEAD" in out
    assert "OK" in out


def test_check_bench_git_baseline_takes_an_absolute_path(
    tmp_path, monkeypatch, capsys
):
    # ``git show REV:./path`` resolves against the working directory, so an
    # absolute bench path must reach git relative to it.
    monkeypatch.chdir(tmp_path)
    bench = tmp_path / "sub" / "BENCH_x.json"
    bench.parent.mkdir()
    _bench(bench, 1.0)
    specs = []

    def fake_run(cmd, **kwargs):
        specs.append(cmd[-1])
        return subprocess.CompletedProcess(
            cmd, 0, stdout=bench.read_text(), stderr=""
        )

    monkeypatch.setattr(subprocess, "run", fake_run)
    assert main(["obs", "check-bench", str(bench.resolve())]) == 0
    assert specs == ["HEAD:./sub/BENCH_x.json"]
    assert "OK" in capsys.readouterr().out


def test_obs_diff_old_schema_manifest_missing_optional_fields(
    tmp_path, capsys
):
    # Manifests written before engine/resilience/curves/attribution existed
    # carry only the original keys; diff must handle them without raising.
    old = {
        "type": "manifest",
        "schema": 1,
        "benchmark": "c17",
        "config": {"benchmark": "c17", "seed": 1},
        "config_hash": "aaaa",
        "seed": 1,
        "git": None,
        "cache": None,
        "stage_timings": {"pipeline.run": 0.4},
        "results": {"final_T": 0.9},
    }
    new = {
        **old,
        "config": {"benchmark": "c17", "seed": 2},
        "config_hash": "bbbb",
        "seed": 2,
        "engine": {"engine": "serial", "workers": 1},
        "resilience": {"chunk_retries": 0},
        "curves": {"k": [1], "T": [0.9]},
        "attribution": {"stage_wall_s": {"atpg": 0.1}},
        "results": {"final_T": 0.95},
    }
    path = tmp_path / "mixed.jsonl"
    with open(path, "w") as handle:
        for record in (old, new):
            handle.write(json.dumps(record) + "\n")
    code = main(["obs", "diff", str(path), "0", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed" in out
    assert "final_T" in out
    # The pool-era engine dict has no ``kind``: the listing shows "?".
    assert main(["obs", "list", str(path)]) == 0
    listing = capsys.readouterr().out
    assert "serial" not in listing
    assert "x1" not in listing


def test_obs_list_and_diff_read_history_with_dashboard_curves(
    tmp_path, capsys
):
    # A schema-1 manifest beside one written while the manifest still
    # carried the retired dashboard's ``curves`` section: list and diff
    # read both and ignore the section.
    old = {
        "type": "manifest",
        "schema": 1,
        "benchmark": "c17",
        "config": {"benchmark": "c17", "seed": 1},
        "config_hash": "aaaa",
        "seed": 1,
        "git": None,
        "cache": None,
        "stage_timings": {"pipeline.run": 0.4},
        "results": {"final_T": 0.9},
    }
    with_curves = {
        **old,
        "config": {"benchmark": "c17", "seed": 2},
        "config_hash": "bbbb",
        "seed": 2,
        "engine": {"kind": "numpy", "word_width": 1024},
        "resilience": {},
        "curves": {
            "k": [1, 10],
            "T": [0.3, 0.95],
            "n_detection": {"depth_cap": 16, "counts": [2, 5]},
        },
        "results": {"final_T": 0.95, "final_DL": 0.006, "theta_max_fit": 0.97},
    }
    path = tmp_path / "old.jsonl"
    with open(path, "w") as handle:
        for record in (old, with_curves):
            handle.write(json.dumps(record) + "\n")
    (_, back) = read_manifests(str(path))
    assert not hasattr(back, "curves")
    assert not hasattr(back, "resilience")
    assert main(["obs", "list", str(path), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["seed"] for row in rows] == [1, 2]
    assert rows[1]["final_DL_ppm"] == pytest.approx(6000.0)
    assert main(["obs", "diff", str(path)]) == 0
    out = capsys.readouterr().out
    assert "final_T" in out
    assert "curves" not in out


@pytest.mark.parametrize(
    "argv",
    [["obs", "html"], ["campaign", "report"], ["campaign", "compact"]],
    ids="-".join,
)
def test_cli_rejects_the_retired_subcommand(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# list --campaign: discover per-job manifests from a campaign directory
# ---------------------------------------------------------------------------
def _run_campaign_dir(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "name": "obs-sweep",
                "base": {"benchmark": "c17", "max_random_patterns": 16},
                "grid": {"seed": [1, 2]},
            }
        )
    )
    camp = str(tmp_path / "camp")
    assert (
        main(["campaign", "run", str(spec), "--dir", camp, "--workers", "0"])
        == 0
    )
    return camp


def test_obs_list_campaign_discovers_job_manifests(tmp_path, capsys):
    camp = _run_campaign_dir(tmp_path)
    capsys.readouterr()
    assert main(["obs", "list", "--campaign", camp]) == 0
    out = capsys.readouterr().out
    assert "2 recorded run(s)" in out
    assert "job" in out  # the extra job-id column
    # Job ids are config hashes; both 12-char prefixes must appear.
    from repro.campaign import CampaignSpec
    from repro.experiments import ExperimentConfig

    spec = CampaignSpec(
        name="obs-sweep",
        base=ExperimentConfig(benchmark="c17", max_random_patterns=16),
        grid={"seed": (1, 2)},
    )
    for job in spec.expand():
        assert job.job_id[:12] in out


def test_obs_list_campaign_json_carries_job_and_campaign(tmp_path, capsys):
    camp = _run_campaign_dir(tmp_path)
    capsys.readouterr()
    assert main(["obs", "list", "--campaign", camp, "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert all(row["campaign"] == "obs-sweep" for row in rows)
    assert all(row["job_id"] for row in rows)


def test_obs_list_campaign_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "not-a-campaign"
    empty.mkdir()
    assert main(["obs", "list", "--campaign", str(empty)]) == 2
    assert "no manifest histories" in capsys.readouterr().err


def test_obs_list_without_files_or_campaign_exits_2(capsys):
    assert main(["obs", "list"]) == 2
    assert "no trace files" in capsys.readouterr().err
