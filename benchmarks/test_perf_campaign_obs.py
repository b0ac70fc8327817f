"""Guard: campaign telemetry is cheap when on, free when off.

The campaign observatory's contract: running a sweep with full telemetry —
an ``on_record`` callback that mirrors every journalled record to a
``--events`` JSONL writer and to the ``--progress`` totals line, with a
fresh metrics registry per job for the ``counters`` records — must cost
under **2%** wall-clock overhead against the identical sweep with
telemetry off.

The measurement interleaves pairs with alternating order to cancel
first-mover bias, and the bound is ``ceiling + noise`` where ``noise`` is
the baseline's own relative spread, so a noisy shared runner degrades the
guard instead of flaking it.  Every
run starts from a fresh campaign directory with the pipeline memo cleared,
so each sweep recomputes all six jobs for real.

Results are written to ``BENCH_campaign_obs.json`` at the repo root.

Quick mode — ``CAMPAIGN_OBS_BENCH_QUICK=1`` — runs fewer pairs and skips
the wall-clock assertion (the artifact is still written).
"""

from __future__ import annotations

import io
import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from repro import obs
from repro.campaign import CampaignSpec, CampaignSupervisor, Journal
from repro.campaign.cli import _progress_line
from repro.experiments import ExperimentConfig
from repro.experiments.pipeline import _run_cached
from repro.obs.events import JsonlWriter

QUICK = bool(os.environ.get("CAMPAIGN_OBS_BENCH_QUICK"))
BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_campaign_obs.json"
)

SEEDS = (1, 2, 3, 4, 5, 6)
N_PATTERNS = 32
PAIRS = 2 if QUICK else 6
WALL_CEILING = 0.02


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="obs-bench",
        base=ExperimentConfig(
            benchmark="c17", max_random_patterns=N_PATTERNS
        ),
        grid={"seed": SEEDS},
    )


def _timed_sweep(root: Path, telemetry: bool) -> float:
    """One full six-job sweep in a fresh directory; returns wall seconds."""
    directory = root / ("on" if telemetry else "off")
    shutil.rmtree(directory, ignore_errors=True)
    _run_cached.cache_clear()  # every job recomputes: real work, not memo
    writer = JsonlWriter(str(root / "events.jsonl")) if telemetry else None
    progress = io.StringIO()
    counters: dict[str, dict] = {}

    def on_record(record: dict) -> None:
        assert writer is not None
        writer(record)
        if record["type"] == "counters":
            counters[record["job"]] = record["counters"]
        else:
            print(_progress_line(record, supervisor.state), file=progress)

    try:
        supervisor = CampaignSupervisor(
            directory,
            max_workers=0,
            on_record=on_record if telemetry else None,
        )
        supervisor.submit(_spec())
        t0 = time.perf_counter()
        report = supervisor.run()
        seconds = time.perf_counter() - t0
        assert report.jobs_computed == len(SEEDS), report
    finally:
        if writer is not None:
            writer.close()
    if telemetry:
        assert len(counters) == len(SEEDS) and all(counters.values())
    return seconds


def test_campaign_telemetry_overhead_under_ceiling():
    obs.disable()
    with tempfile.TemporaryDirectory(prefix="campaign-obs-bench-") as tmp:
        root = Path(tmp)
        # Warm both paths outside the timed region (imports, circuit
        # parses, fresh-directory filesystem costs).
        _timed_sweep(root, telemetry=False)
        _timed_sweep(root, telemetry=True)

        base_times: list[float] = []
        on_times: list[float] = []
        for i in range(PAIRS):
            order = (False, True) if i % 2 == 0 else (True, False)
            for telemetry in order:
                seconds = _timed_sweep(root, telemetry)
                (on_times if telemetry else base_times).append(seconds)

        events_bytes = (root / "events.jsonl").stat().st_size

    baseline = min(base_times)
    telemetry_s = min(on_times)
    overhead = telemetry_s / baseline - 1.0
    noise = max(base_times) / baseline - 1.0

    record = {
        "benchmark": "c17",
        "mode": "quick" if QUICK else "full",
        "jobs": len(SEEDS),
        "n_patterns": N_PATTERNS,
        "pairs": PAIRS,
        "baseline_seconds": round(baseline, 6),
        "telemetry_seconds": round(telemetry_s, 6),
        "overhead_fraction": round(overhead, 6),
        "baseline_noise_fraction": round(noise, 6),
        "wall_ceiling": WALL_CEILING,
        "events_jsonl_bytes": events_bytes,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    assert events_bytes > 0, "telemetry run produced no event stream"
    if not QUICK:
        allowed = WALL_CEILING + noise
        assert overhead < allowed, (
            f"campaign telemetry overhead {100 * overhead:.2f}% exceeds "
            f"{100 * WALL_CEILING:.0f}% ceiling + {100 * noise:.2f}% "
            f"measured machine noise (baseline {baseline:.4f}s, "
            f"telemetry {telemetry_s:.4f}s over {len(SEEDS)} jobs)"
        )


def test_telemetry_off_publishes_nothing():
    obs.disable()
    with tempfile.TemporaryDirectory(prefix="campaign-obs-off-") as tmp:
        _run_cached.cache_clear()
        supervisor = CampaignSupervisor(Path(tmp) / "camp", max_workers=0)
        supervisor.submit(
            CampaignSpec(
                name="off",
                base=ExperimentConfig(
                    benchmark="c17", max_random_patterns=N_PATTERNS
                ),
                grid={"seed": (1,)},
            )
        )
        supervisor.run()
        records = Journal(Path(tmp) / "camp", readonly=True).replay()[0]
    assert supervisor.on_record is None
    assert all(r["type"] != "counters" for r in records)
    assert not obs.is_enabled()
