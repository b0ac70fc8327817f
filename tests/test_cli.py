"""Unit tests for the command-line entry point."""

import pytest

from repro import obs
from repro.__main__ import main


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    obs.disable_events()
    yield
    obs.disable()
    obs.disable_events()


def test_cli_runs_small_benchmark(capsys, tmp_path):
    svg = tmp_path / "layout.svg"
    code = main(["c17", "--svg", str(svg)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fit of eq. 11" in out
    assert "theta(k)" in out
    assert "pipeline cache:" in out
    assert svg.exists()


def test_cli_rejects_unknown_benchmark():
    with pytest.raises(SystemExit):
        main(["not-a-circuit"])


def test_cli_technique_option(capsys):
    code = main(["c17", "--technique", "either"])
    assert code == 0
    assert "Coverage growth" in capsys.readouterr().out


def test_cli_seed_and_max_random_patterns_flags(capsys):
    # A custom seed/cap combination forces a fresh (cache-miss) run.
    code = main(["c17", "--seed", "777", "--max-random-patterns", "96"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pipeline cache: miss" in out
    # Re-running the identical configuration is memoised and says so.
    code = main(["c17", "--seed", "777", "--max-random-patterns", "96"])
    assert code == 0
    assert "pipeline cache: hit" in capsys.readouterr().out


def test_cli_profile_prints_span_tree_and_metrics(capsys):
    code = main(["c17", "--seed", "31337", "--profile"])
    assert code == 0
    out = capsys.readouterr().out
    assert "stage timings" in out
    for span_name in (
        "pipeline.run",
        "atpg.random",
        "pipeline.stuck_fault_sim",
        "defects.extract",
        "switch_sim.run",
    ):
        assert span_name in out
    assert "metrics:" in out
    assert "fault_sim.patterns_applied" in out
    # --profile leaves the global state disabled afterwards.
    assert not obs.is_enabled()


def test_cli_profile_includes_engine_block(capsys):
    code = main(["c17", "--seed", "271828", "--profile"])
    assert code == 0
    out = capsys.readouterr().out
    assert "engine:" in out
    assert "kind: numpy" in out
    assert "word_width:" in out
    assert "workers:" not in out


def test_cli_events_stream_ends_with_terminal_stage_events(capsys, tmp_path):
    import json

    events_file = tmp_path / "events.jsonl"
    code = main(["c17", "--seed", "555", "--events", str(events_file)])
    assert code == 0
    assert "events streamed to" in capsys.readouterr().out
    records = [
        json.loads(line) for line in events_file.read_text().splitlines()
    ]
    assert records, "event stream is empty"
    # Every record parses and carries the discriminator + both clocks.
    for record in records:
        assert record["type"] in (
            "ProgressEvent",
            "StageEvent",
            "RetryEvent",
            "CheckpointEvent",
        )
        assert record["ts"] > 0 and record["ts_mono"] > 0
    # Each pipeline stage ends with a terminal StageEvent, and the stream
    # itself terminates on the whole-pipeline one.
    ends = {
        r["stage"]
        for r in records
        if r["type"] == "StageEvent" and r["status"] == "end"
    }
    for stage in ("atpg", "stuck_sim", "extraction", "switch_sim", "pipeline"):
        assert stage in ends
    assert records[-1]["type"] == "StageEvent"
    assert records[-1]["stage"] == "pipeline"
    assert records[-1]["status"] == "end"
    assert not obs.events_enabled()


def test_cli_progress_renders_to_stderr(capsys):
    code = main(["c17", "--seed", "666", "--progress"])
    assert code == 0
    err = capsys.readouterr().err
    assert "[pipeline] started" in err
    assert "[atpg] done" in err
    assert "% detected" in err


def test_cli_trace_format_chrome_writes_valid_trace(capsys, tmp_path):
    import json

    trace_file = tmp_path / "trace.json"
    code = main(
        [
            "c17",
            "--seed",
            "777",
            "--trace",
            str(trace_file),
            "--trace-format",
            "chrome",
        ]
    )
    assert code == 0
    assert "chrome trace" in capsys.readouterr().out
    parsed = json.loads(trace_file.read_text())
    events = parsed["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    assert {e["name"] for e in complete} >= {"pipeline.run"}
    assert any(e["name"] == "process_name" for e in events)
    # Chrome format replaces the manifest: the file is one JSON object.
    assert trace_file.read_text().count("pipeline.run") >= 1


def test_cli_trace_format_chrome_requires_trace(capsys):
    code = main(["c17", "--trace-format", "chrome"])
    assert code == 2
    assert "requires --trace" in capsys.readouterr().err


def test_cli_analyze_clean_circuit(capsys):
    code = main(["analyze", "c17"])
    assert code == 0
    out = capsys.readouterr().out
    assert "c17" in out
    assert "scoap: hardest nets" in out
    assert "untestable: 0 of" in out


def test_cli_analyze_quick_skips_implications(capsys):
    code = main(["analyze", "c17", "--quick"])
    assert code == 0
    out = capsys.readouterr().out
    assert "scoap: hardest nets" in out
    assert "untestable" not in out


def test_cli_analyze_finds_redundancy(capsys):
    # c432_like carries real dangling/unreachable logic plus untestable faults.
    code = main(["analyze", "c432_like"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dangling-output" in out
    assert "untestable: 48 of" in out
    assert "[observation-conflict]" in out or "[activation]" in out


def test_cli_analyze_json_report(capsys, tmp_path):
    import json

    report = tmp_path / "analysis.json"
    code = main(["analyze", "c17", "alu4", "--json", str(report)])
    assert code == 0
    assert "report written to" in capsys.readouterr().out
    payload = json.loads(report.read_text())
    assert [c["circuit"] for c in payload["circuits"]] == ["c17", "alu4"]
    for entry in payload["circuits"]:
        assert isinstance(entry["lint"]["findings"], list)
        assert "scoap" in entry and "untestable" in entry


def test_cli_analyze_rejects_unknown_circuit(capsys):
    code = main(["analyze", "no-such-circuit"])
    assert code == 2
    assert "unknown circuit" in capsys.readouterr().err


def test_cli_analyze_fail_on_error_passes_clean(capsys):
    code = main(["analyze", "c17", "--fail-on-error"])
    assert code == 0


def test_cli_analyze_defaults_to_all_benchmarks(capsys):
    from repro.circuit.iscas import BENCHMARKS

    code = main(["analyze", "--quick"])
    assert code == 0
    out = capsys.readouterr().out
    for name in BENCHMARKS:
        assert name in out


def test_cli_checkpoint_then_resume(capsys, tmp_path):
    ckpt = tmp_path / "ckpt"
    code = main(["c17", "--seed", "424", "--checkpoint-dir", str(ckpt)])
    assert code == 0
    first = capsys.readouterr().out
    assert "recomputed atpg, stuck_sim, extraction, switch_sim" in first

    code = main(
        ["c17", "--seed", "424", "--checkpoint-dir", str(ckpt), "--resume"]
    )
    assert code == 0
    second = capsys.readouterr().out
    assert "restored atpg, stuck_sim, extraction, switch_sim" in second

    # The resumed run reports the exact same fitted parameters.
    fit_line = next(line for line in first.splitlines() if "fit of eq. 11" in line)
    assert fit_line in second


def test_cli_resume_requires_checkpoint_dir(capsys):
    code = main(["c17", "--resume"])
    assert code == 2
    assert "--resume requires --checkpoint-dir" in capsys.readouterr().err


def test_cli_unwritable_checkpoint_dir_fails_cleanly(capsys, tmp_path):
    blocker = tmp_path / "occupied"
    blocker.write_text("not a directory")
    code = main(["c17", "--checkpoint-dir", str(blocker / "sub")])
    assert code == 2
    err = capsys.readouterr().err
    assert "checkpoint failure" in err
    assert "Traceback" not in err


def test_cli_corrupt_checkpoint_exits_nonzero(capsys, tmp_path):
    from repro.experiments import ExperimentConfig
    from repro.resilience import CheckpointStore

    ckpt = tmp_path / "ckpt"
    assert main(["c17", "--seed", "425", "--checkpoint-dir", str(ckpt)]) == 0
    capsys.readouterr()
    store = CheckpointStore(ckpt, ExperimentConfig(benchmark="c17", seed=425))
    path = store.path_for("atpg")
    path.write_bytes(path.read_bytes()[:40])

    code = main(
        ["c17", "--seed", "425", "--checkpoint-dir", str(ckpt), "--resume"]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "checkpoint failure" in err
    assert "Traceback" not in err


def test_cli_invalid_config_value_exits_nonzero(capsys):
    code = main(["c17", "--yield", "1.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert "target_yield" in err


def test_cli_trace_writes_manifest(capsys, tmp_path):
    from repro.obs.manifest import read_manifests

    trace = tmp_path / "run.jsonl"
    code = main(["c17", "--seed", "90210", "--trace", str(trace)])
    assert code == 0
    assert "manifest" in capsys.readouterr().out
    (manifest,) = read_manifests(str(trace))
    assert manifest.benchmark == "c17"
    assert manifest.seed == 90210
    assert manifest.config["seed"] == 90210
    assert manifest.config_hash
    assert manifest.cache == "miss"
    assert "R" in manifest.results and "theta_max_fit" in manifest.results
    assert "pipeline.run" in manifest.stage_timings
    # >= 5 distinct spans through the pipeline stages.
    assert len(manifest.stage_timings) >= 5

    # A second identical run appends a cache-hit manifest to the same file.
    code = main(["c17", "--seed", "90210", "--trace", str(trace)])
    assert code == 0
    capsys.readouterr()
    manifests = read_manifests(str(trace))
    assert len(manifests) == 2
    assert manifests[1].cache == "hit"


def test_cli_analyze_prove_prints_prover_summary(capsys):
    code = main(["analyze", "alu4", "--prove"])
    assert code == 0
    out = capsys.readouterr().out
    assert "prover: 4 of 440 faults proved untestable (fire=4)" in out
    assert "4 certificates checked, 0 failed" in out


def test_cli_analyze_certificates_file(capsys, tmp_path):
    import json

    from repro.analysis.check import check_certificates
    from repro.circuit.iscas import load_benchmark

    certs_file = tmp_path / "certs.json"
    code = main(
        ["analyze", "alu4", "--prove", "--certificates", str(certs_file)]
    )
    assert code == 0
    assert "4 certificates written to" in capsys.readouterr().out
    payload = json.loads(certs_file.read_text())
    assert payload["schema_version"] == 4
    certs = payload["certificates"]["alu4"]
    assert len(certs) == 4
    # The written certificates stand on their own: an independent checker
    # bound to a freshly-built circuit validates every one.
    n_ok, errors = check_certificates(load_benchmark("alu4"), certs)
    assert n_ok == 4 and not errors


def test_cli_analyze_json_schema_version_and_engine_preflight(tmp_path):
    import json

    report = tmp_path / "analysis.json"
    code = main(["analyze", "c17", "--quick", "--json", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    # Version 4 dropped the engine preflight along with the engine registry.
    assert payload["schema_version"] == 4
    assert "engine_preflight" not in payload
    assert [c["circuit"] for c in payload["circuits"]] == ["c17"]


def test_cli_analyze_json_includes_prover_block(tmp_path):
    import json

    report = tmp_path / "analysis.json"
    code = main(["analyze", "alu4", "--prove", "--json", str(report)])
    assert code == 0
    (entry,) = json.loads(report.read_text())["circuits"]
    prover = entry["prover"]
    assert prover["n_proved"] == 4
    assert prover["certs_failed"] == 0
    assert "depth" not in prover
    assert prover["netlist_sha256"]
    # The prover's fire phase stands in for the screen in the report.
    assert entry["untestable"]["n_untestable"] == prover["by_method"]["fire"]


def test_cli_analyze_rejects_the_retired_depth_flag(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "c17", "--prove", "--depth", "2"])
    assert "--depth" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--engine", "numpy"), ("--fault-sim-retries", "3"), ("--chunk-timeout", "30")],
)
def test_cli_rejects_the_retired_flag(capsys, flag, value):
    # The stuck-at stage has one engine and no process pool to tune.
    with pytest.raises(SystemExit):
        main(["c17", flag, value])
    assert flag in capsys.readouterr().err


def test_cli_analyze_certificates_requires_prove(capsys, tmp_path):
    code = main(
        ["analyze", "c17", "--certificates", str(tmp_path / "c.json")]
    )
    assert code == 2
    assert "--certificates requires --prove" in capsys.readouterr().err
    assert not (tmp_path / "c.json").exists()


def test_cli_keyboard_interrupt_exits_130_with_resume_hint(
    capsys, tmp_path, monkeypatch
):
    import repro.__main__ as main_mod

    def _interrupt(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(main_mod, "run_experiment", _interrupt)
    code = main(
        ["c17", "--seed", "5150", "--checkpoint-dir", str(tmp_path / "ck")]
    )
    assert code == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert "--resume" in err


def test_cli_keyboard_interrupt_writes_interrupted_manifest(
    capsys, tmp_path, monkeypatch
):
    import repro.__main__ as main_mod
    from repro.obs.manifest import read_manifests

    def _interrupt(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(main_mod, "run_experiment", _interrupt)
    trace = tmp_path / "runs.jsonl"
    code = main(["c17", "--seed", "5150", "--trace", str(trace)])
    assert code == 130
    err = capsys.readouterr().err
    assert "interrupted-run manifest appended" in err
    assert "--checkpoint-dir DIR" in err  # resumability hint without one
    (manifest,) = read_manifests(str(trace))
    assert manifest.results == {"interrupted": True}
