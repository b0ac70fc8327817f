"""Unit tests for the command-line entry point."""

import pytest

from repro import obs
from repro.__main__ import main


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    yield
    obs.disable()


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
    assert "span records streamed to" in capsys.readouterr().out
    records = [
        json.loads(line) for line in events_file.read_text().splitlines()
    ]
    assert records, "event stream is empty"
    # Every record is a finished span without children, plus its depth.
    for record in records:
        assert set(record) == {
            "name", "attributes", "wall_s", "cpu_s", "t0", "t1", "depth"
        }
    # Each pipeline stage is a direct child of pipeline.run, and the stream
    # terminates on pipeline.run itself.
    stages = {r["name"] for r in records if r["depth"] == 1}
    for stage in (
        "atpg.random",
        "pipeline.stuck_fault_sim",
        "defects.extract",
        "switch_sim.run",
    ):
        assert stage in stages
    assert records[-1]["name"] == "pipeline.run"
    assert records[-1]["depth"] == 0
    assert not obs.is_enabled()


def test_cli_progress_renders_to_stderr(capsys):
    code = main(["c17", "--seed", "666", "--progress"])
    assert code == 0
    err = capsys.readouterr().err
    lines = err.splitlines()
    assert "[pipeline.load_benchmark] done in" in lines[0]
    assert any(line.startswith("[atpg.random] done in ") for line in lines)
    assert "[pipeline.build_coverage] done in" in lines[-1]
    # Only direct children of pipeline.run get a line.
    assert "[pipeline.run]" not in err
    assert "[fault_sim.run]" not in err
    assert not obs.is_enabled()


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
    assert "prover: 0 of" in out
    assert "fire phase" not in out


def test_cli_analyze_quick_skips_implications(capsys):
    code = main(["analyze", "c17", "--quick"])
    assert code == 0
    out = capsys.readouterr().out
    assert "scoap: hardest nets" in out
    assert "untestable" not in out
    assert "prover" not in out


def test_cli_analyze_finds_redundancy(capsys):
    # c432_like carries real dangling/unreachable logic plus untestable faults.
    code = main(["analyze", "c432_like"])
    assert code == 0
    out = capsys.readouterr().out
    assert "dangling-output" in out
    # One proved count; the fire phase's reasons follow as its share.
    assert "prover: 49 of 820 faults proved untestable" in out
    assert "fire phase: 48 of those proofs, by reason:" in out
    assert "untestable:" not in out
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


def test_cli_invalid_config_value_exits_nonzero(capsys):
    code = main(["c17", "--yield", "1.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err
    assert "target_yield" in err


def _record_writers(monkeypatch) -> list:
    """Capture every --events writer main() opens."""
    opened = []
    real = obs.JsonlWriter

    def recording(path):
        writer = real(path)
        opened.append(writer)
        return writer

    monkeypatch.setattr(obs, "JsonlWriter", recording)
    return opened


def test_cli_invalid_config_leaves_nothing_enabled_or_open(
    capsys, tmp_path, monkeypatch
):
    opened = _record_writers(monkeypatch)
    events = tmp_path / "events.jsonl"
    code = main(
        [
            "c17", "--profile", "--progress", "--yield", "2",
            "--events", str(events),
        ]
    )
    assert code == 2
    assert "invalid configuration" in capsys.readouterr().err
    assert not obs.is_enabled()
    assert opened == []
    assert not events.exists()


def test_cli_interrupted_run_leaves_nothing_enabled_or_open(
    capsys, tmp_path, monkeypatch
):
    # Ctrl-C mid-run still goes through main's cleanup: obs disabled and
    # the --events writer closed.
    import repro.__main__ as main_mod

    def _interrupt(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(main_mod, "run_experiment", _interrupt)
    opened = _record_writers(monkeypatch)
    code = main(
        [
            "c17", "--progress", "--events", str(tmp_path / "events.jsonl"),
        ]
    )
    assert code == 130
    assert "interrupted" in capsys.readouterr().err
    assert not obs.is_enabled()
    assert len(opened) == 1
    assert opened[0]._handle is None


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
    code = main(["analyze", "alu4"])
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
        ["analyze", "alu4", "--certificates", str(certs_file)]
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
    code = main(["analyze", "alu4", "--json", str(report)])
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
        main(["analyze", "c17", "--depth", "2"])
    assert "--depth" in capsys.readouterr().err


def test_cli_analyze_rejects_the_retired_prove_flag(capsys):
    # The certified prover always runs; only --quick turns it off.
    with pytest.raises(SystemExit):
        main(["analyze", "c17", "--prove"])
    assert "--prove" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--engine", "numpy"), ("--fault-sim-retries", "3"), ("--chunk-timeout", "30")],
)
def test_cli_rejects_the_retired_flag(capsys, flag, value):
    # The stuck-at stage has one engine and no process pool to tune.
    with pytest.raises(SystemExit):
        main(["c17", flag, value])
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["c17", "--checkpoint-dir", "ck"], "--checkpoint-dir"),
        (["c17", "--resume"], "--resume"),
        (
            ["campaign", "gc", "--dir", "camp", "--checkpoint-dir", "ck"],
            "--checkpoint-dir",
        ),
    ],
    ids=["checkpoint-dir", "resume", "campaign-gc-checkpoint-dir"],
)
def test_cli_rejects_the_retired_checkpoint_flags(capsys, tmp_path, argv, flag):
    # Recovery is per campaign job: argparse refuses the per-stage
    # checkpoint flags rather than ignoring them.
    argv = [str(tmp_path / a) if a in ("ck", "camp") else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_analyze_certificates_rejected_with_quick(capsys, tmp_path):
    # --quick stops before the prover, so there would be no certificates.
    code = main(
        ["analyze", "c17", "--quick", "--certificates", str(tmp_path / "c.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "--certificates" in err and "--quick" in err
    assert not (tmp_path / "c.json").exists()


def test_cli_keyboard_interrupt_exits_130_with_resume_hint(capsys, monkeypatch):
    import repro.__main__ as main_mod

    def _interrupt(*_args, **_kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(main_mod, "run_experiment", _interrupt)
    code = main(["c17", "--seed", "5150"])
    assert code == 130
    err = capsys.readouterr().err
    assert "interrupted" in err
    assert "hint: rerun, or use 'python -m repro campaign run'" in err


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
    assert "for resumable sweeps" in err
    (manifest,) = read_manifests(str(trace))
    assert manifest.results == {"interrupted": True}
