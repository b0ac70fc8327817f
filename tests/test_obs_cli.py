"""The ``python -m repro obs`` run-history subcommands."""

import json

import pytest

from repro import obs
from repro.__main__ import main


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
    # The listing labels the pool-era engine dict by its serial/parallel
    # mode and ignores its worker count.
    assert main(["obs", "list", str(path)]) == 0
    listing = capsys.readouterr().out
    assert "serial" in listing
    assert "x1" not in listing


def test_obs_html_renders_old_schema_history(tmp_path, capsys):
    # Same mixed-vintage file through the dashboard: panels degrade to
    # notes instead of raising on the missing optional sections.
    record = {
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
    path = tmp_path / "old.jsonl"
    path.write_text(json.dumps(record) + "\n")
    out = tmp_path / "dash.html"
    code = main(["obs", "html", "--manifests", str(path), "--out", str(out)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    assert "no per-run curves" in out.read_text()


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
