"""The self-contained HTML dashboard (``python -m repro obs html``).

Panel rendering is tested on synthetic manifests (fast, no pipeline run);
one end-to-end test drives the real CLI over a real traced run.  The
self-containment property — no scripts, no external URLs — is asserted on
every build because it is the whole point of the artifact.
"""

import json
import re
import xml.etree.ElementTree as ET

import pytest

from repro import obs
from repro.__main__ import main
from repro.obs.html import PANEL_IDS, build_report, write_report
from repro.obs.manifest import RunManifest, read_manifests


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    yield
    obs.disable()


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
        resilience={"stages_restored": ["atpg"], "stages_recomputed": []},
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
        curves={
            "k": [1, 10, 40],
            "T": [0.3, 0.8, 0.95],
            "theta": [0.35, 0.85, 0.96],
            "DL": [0.2, 0.05, 0.006],
            "fit_T": [0.3, 0.6, 1.0],
            "fit_DL": [0.2, 0.08, 0.0],
            "n_detection": {
                "depth_cap": 16,
                "counts": [2, 5, 8, 7],
                "coverage_ge": [0.9, 0.7, 0.4],
            },
        },
    )
    base.update(overrides)
    return RunManifest(**base)


def _assert_self_contained(html):
    assert "<script" not in html
    assert not re.search(r"https?://", html)
    assert "<link" not in html
    # Every inline SVG must be parseable markup.
    for svg in re.findall(r"<svg.*?</svg>", html, re.S):
        ET.fromstring(svg)


# ---------------------------------------------------------------------------
# build_report
# ---------------------------------------------------------------------------
def test_full_report_has_every_panel_and_no_external_refs():
    html = build_report([_manifest(1), _manifest(2)])
    for panel_id in PANEL_IDS:
        assert f'id="{panel_id}"' in html
    _assert_self_contained(html)
    assert html.count("<svg") >= 5
    assert "<!DOCTYPE html>" in html
    # Data made it into the marks: the waterfall and the resilience tiles.
    assert "fault_sim.run" in html
    assert "pipeline.atpg" in html
    assert "stages restored" in html
    assert "chunk retries" not in html


def test_report_renders_manifests_from_the_process_pool_era():
    # Manifests recorded while the stuck-at stage had a process pool carry
    # its engine keys, chunk counters and worker-tagged spans; the
    # dashboard still renders them, ignoring what it no longer shows.
    spans = _manifest(8).spans
    spans[0]["children"][1]["attributes"] = {"worker_pid": 4242, "chunk_id": 0}
    pool_era = _manifest(
        8,
        engine={"engine": "parallel", "kind": "numpy", "workers": 2},
        resilience={
            "chunk_retries": 1,
            "chunks_salvaged": 1,
            "engine_degraded": True,
            "degraded_reason": "ChaosInjectedError: boom",
            "stages_restored": ["atpg"],
            "stages_recomputed": [],
        },
        spans=spans,
    )
    html = build_report([pool_era])
    for panel_id in PANEL_IDS:
        assert f'id="{panel_id}"' in html
    _assert_self_contained(html)
    assert "stages restored" in html
    assert "fault_sim.run" in html


def test_report_on_old_schema_manifest_degrades_gracefully():
    # A manifest written before curves existed (and without spans or
    # resilience records) renders notes, not exceptions.
    old = _manifest(
        3,
        curves={},
        spans=[],
        resilience={},
        stage_timings={},
    )
    html = build_report([old])
    for panel_id in PANEL_IDS:
        assert f'id="{panel_id}"' in html
    _assert_self_contained(html)
    assert "no per-run curves" in html
    assert "no resilience records" in html
    assert "no spans" in html


def test_report_labels_runs_by_engine_kind():
    new_style = _manifest(
        5, engine={"engine": "serial", "kind": "numpy", "workers": 1}
    )
    mixed = [
        _manifest(4, engine={"engine": "serial", "kind": "python", "workers": 1}),
        new_style,
    ]
    html = build_report(mixed)
    _assert_self_contained(html)
    # Trend panel summarises the engine mix of the history.
    assert "engines: numpy ×1, python ×1" in html


def test_report_on_pre_engine_kind_manifests_degrades_gracefully():
    # Histories recorded before the engine registry carry no "kind": the
    # panels render unlabelled rather than guessing (or crashing).
    old = [
        _manifest(6, engine={"engine": "serial", "workers": 1}),
        _manifest(7, engine={}),
    ]
    html = build_report(old)
    for panel_id in PANEL_IDS:
        assert f'id="{panel_id}"' in html
    _assert_self_contained(html)
    assert "engines:" not in html
    assert "pre-engine-schema" not in html
    assert "pipeline.atpg" in html


def test_report_with_no_manifests_renders_placeholders():
    html = build_report([])
    for panel_id in PANEL_IDS:
        assert f'id="{panel_id}"' in html
    _assert_self_contained(html)
    assert "no runs recorded" in html


def test_last_trims_history():
    manifests = [_manifest(seed) for seed in range(5)]
    html = build_report(manifests, last=2)
    assert "2 run(s)" in html


def test_html_escapes_untrusted_fields():
    evil = _manifest(4, benchmark='<script>alert("x")</script>')
    html = build_report([evil])
    assert "<script" not in html
    assert "&lt;script&gt;" in html


def test_write_report_returns_bytes(tmp_path):
    out = tmp_path / "report.html"
    n = write_report(str(out), [_manifest(1)])
    assert out.stat().st_size == n
    assert n > 1000


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _write_history(tmp_path, manifests):
    path = tmp_path / "runs.jsonl"
    for manifest in manifests:
        manifest.write(str(path))
    return path


def test_obs_html_cli_on_synthetic_history(tmp_path, capsys):
    path = _write_history(tmp_path, [_manifest(1), _manifest(2)])
    out = tmp_path / "dash.html"
    code = main(
        ["obs", "html", "--manifests", str(path), "--out", str(out)]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    html = out.read_text()
    for panel_id in PANEL_IDS:
        assert f'id="{panel_id}"' in html
    _assert_self_contained(html)


def test_obs_html_cli_last_flag(tmp_path, capsys):
    path = _write_history(tmp_path, [_manifest(s) for s in range(4)])
    out = tmp_path / "dash.html"
    assert (
        main(
            [
                "obs",
                "html",
                "--manifests",
                str(path),
                "--out",
                str(out),
                "--last",
                "2",
            ]
        )
        == 0
    )
    assert "2 of 4 recorded run(s)" in capsys.readouterr().out
    assert "2 run(s)" in out.read_text()


def test_obs_html_cli_missing_file_exits_2(tmp_path, capsys):
    code = main(
        [
            "obs",
            "html",
            "--manifests",
            str(tmp_path / "nope.jsonl"),
            "--out",
            str(tmp_path / "dash.html"),
        ]
    )
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_obs_html_cli_rejects_nonpositive_last(tmp_path, capsys):
    path = _write_history(tmp_path, [_manifest(1)])
    code = main(
        [
            "obs",
            "html",
            "--manifests",
            str(path),
            "--out",
            str(tmp_path / "dash.html"),
            "--last",
            "0",
        ]
    )
    assert code == 2
    assert "--last" in capsys.readouterr().err


def test_obs_html_end_to_end_real_run(tmp_path, capsys):
    """The real pipeline -> manifest -> dashboard path."""
    trace = tmp_path / "runs.jsonl"
    assert (
        main(["c17", "--seed", "77", "--trace", str(trace)])
        == 0
    )
    capsys.readouterr()
    out = tmp_path / "report.html"
    assert (
        main(["obs", "html", "--manifests", str(trace), "--out", str(out)])
        == 0
    )
    html = out.read_text()
    _assert_self_contained(html)
    for panel_id in PANEL_IDS:
        assert f'id="{panel_id}"' in html
    # The real run recorded curves and spans, so the data panels carry
    # marks rather than placeholder notes.
    assert "no per-run curves" not in html
    assert "no spans in this history" not in html
    assert "pipeline.static_analysis" in html


# ---------------------------------------------------------------------------
# list --json / --limit (satellite)
# ---------------------------------------------------------------------------
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
    assert back.curves["n_detection"]["depth_cap"] == 16
    assert back.spans[0]["children"][0]["name"] == "pipeline.atpg"
    assert back.resilience["stages_restored"] == ["atpg"]


# ---------------------------------------------------------------------------
# Redundancy-prover panel
# ---------------------------------------------------------------------------
def test_analysis_panel_renders_prover_tiles():
    # This record is shaped like one written before recursive learning
    # left the prover: its "depth" key must not stop the panel rendering.
    manifest = _manifest(41)
    manifest.results["prover"] = {
        "n_proved": 49,
        "n_screened": 820,
        "depth": 2,
        "by_method": {"fire": 48, "static_learning": 1},
        "n_learned": 132,
        "certs_failed": 0,
        "podem": {
            "backtracks": 15443,
            "learned_prunes": 159,
            "learned_conflicts": 646,
        },
    }
    html = build_report([manifest])
    _assert_self_contained(html)
    assert 'id="panel-analysis"' in html
    assert "faults proved untestable" in html
    assert "proofs by method — fire: 48, static_learning: 1" in html
    assert "PODEM backtracks" in html
    assert "15443" in html
    # Zero failed certificates renders as a good (not crit) tile.
    assert 'class="tile-value good">0<' in html
    assert "no prover records" not in html
    assert "recursion depth" not in html


def test_analysis_panel_flags_failed_certificates():
    manifest = _manifest(42)
    manifest.results["prover"] = {
        "n_proved": 7,
        "n_screened": 100,
        "by_method": {"fire": 7},
        "n_learned": 3,
        "certs_failed": 2,
        "podem": {},
    }
    html = build_report([manifest])
    assert 'class="tile-value crit">2<' in html


def test_analysis_panel_degrades_on_pre_prover_manifests():
    # Histories recorded before the prover existed carry no
    # results["prover"]; runs from when it could be switched off recorded
    # None.  Both degrade to a note.
    old = _manifest(43)
    ablated = _manifest(44)
    ablated.results["prover"] = None
    html = build_report([old, ablated])
    assert 'id="panel-analysis"' in html
    assert "no prover records in this history" in html
    _assert_self_contained(html)
