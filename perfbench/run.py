"""Benchmark of the DL(T) reproduction: cold pipeline runs and a campaign sweep.

Run from the repository root::

    python3 perfbench/run.py --workload c432_paper --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  Every metric is printed by name with its
unit, then the output checks and the result digest; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads and what each metric means.

Each timed operation runs in a fresh interpreter (``child.py``) and each
sweep in a fresh directory under ``.perfbench_work/``, which is removed at
the end.  The program under test is the ``repro`` package in ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"

#: Wall-clock budget for one invocation, children included.  Workloads in
#: BENCHMARK.json must end within 180 s; c880 is run by hand and needs more.
DEADLINE_S = 175.0
#: Set-up-only processes per run, on top of one per measured operation.
SETUP_SAMPLES = 8
#: Resubmissions of the sweep spec per sweep repetition, each checked and
#: timed (``campaign.cached_run_s``).
RESUBMITS = 5
#: Interval at which pool workers' peak memory is sampled from /proc.
SAMPLE_S = 0.5
#: Most of a traced pipeline wall that may go unattributed to a layer.
MAX_SELF_SHARE = 0.10

WORKLOADS = {
    "c432_paper": {"kind": "pipeline", "benchmark": "c432"},
    "c880_pipeline": {"kind": "pipeline", "benchmark": "c880", "deadline_s": 600.0},
    "sweep_shared": {"kind": "sweep"},
}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

PER_LAYER = {
    **layers.PIPELINE_METRICS,
    "campaign.jobs_computed": "count",
    "campaign.jobs_cached": "count",
    "campaign.cached_run_s": "s",
    "campaign.job_wall_sum_s": "s",
    "campaign.job_wall_p50_s": "s",
    "campaign.worker_busy_frac": "frac",
    "campaign.shared_upstream_frac": "frac",
    "campaign.journal_records": "count",
    "campaign.store_bytes": "bytes",
    "obs.trace_overhead_frac": "frac",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


#: ATPG seeds in 1..300 whose c432 random prefix is 704 vectors long, like
#: the default seed 1234's (printed by ``pick_seeds.py``).  Pipeline inputs
#: differ in their vectors but not in how many there are.
PIPELINE_SEEDS = (
    2, 10, 39, 43, 53, 55, 57, 65, 67, 72, 74, 82, 85, 89, 94, 95, 96, 100,
    118, 121, 128, 164, 168, 170, 174, 182, 184, 190, 200, 205, 208, 209,
    216, 232, 236, 255, 256,
)


def derive_seeds(seed: int | None) -> tuple[int, list[int]]:
    """The pipeline's ExperimentConfig seed and the sweep's two seeds.

    Without ``--seed`` these are the program's defaults (1234; 1 and 2).
    """
    if seed is None:
        return 1234, [1, 2]
    rng = random.Random(seed)
    return (
        PIPELINE_SEEDS[seed % len(PIPELINE_SEEDS)],
        sorted(rng.sample(range(1, 2**31), 2)),
    )


def _descendants(root: int) -> list[int]:
    parent_of = {}
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        parent_of[int(entry.name)] = int(fields[1])
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        kids = [p for p, ppid in parent_of.items() if ppid == pid]
        found += kids
        frontier += kids
    return found


def _status(pid: int) -> dict[str, str]:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            pairs = (line.rstrip("\n").split(":\t", 1) for line in fh)
            return {pair[0]: pair[1] for pair in pairs if len(pair) == 2}
    except OSError:
        return {}


class Runner:
    """Starts children, enforces the deadline, samples worker memory."""

    def __init__(self, deadline_s: float) -> None:
        self.t0 = time.monotonic()
        self.deadline_s = deadline_s
        self.n = 0

    def child(self, spec: dict, workdir: str) -> dict:
        """Run ``child.py`` on ``spec`` in a fresh ``WORK/workdir``.

        Returns the child's result, with ``peak_rss_mb`` completed here.

        ``peak_rss_mb`` is the child's own peak plus, for each Python
        process it started (campaign pool workers), the last peak sampled
        from /proc while it ran: a sum of per-process peaks.  Processes seen
        in fewer than two samples are left out: a helper such as ``git`` is
        still a copy of its parent between fork and exec.
        """
        self.n += 1
        out_path = WORK / f"child-{self.n}.out"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        work = WORK / workdir
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        spec = dict(spec, workdir=str(work), spawned=time.monotonic())
        with open(out_path, "w", encoding="utf-8") as out:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), json.dumps(spec)],
                cwd=ROOT,
                env=env,
                stdout=out,
                start_new_session=True,
            )
        worker_peaks: dict[int, float] = {}
        samples: dict[int, int] = {}
        name = _status(proc.pid).get("Name")
        try:
            while True:
                remaining = self.deadline_s - (time.monotonic() - self.t0)
                if remaining <= 0:
                    raise BenchError(f"deadline of {self.deadline_s:.0f} s passed")
                try:
                    proc.wait(timeout=min(SAMPLE_S, remaining))
                    break
                except subprocess.TimeoutExpired:
                    pass
                for pid in _descendants(proc.pid):
                    status = _status(pid)
                    if status.get("Name") == name and "VmHWM" in status:
                        peak = int(status["VmHWM"].split()[0]) / 1024.0
                        worker_peaks[pid] = max(peak, worker_peaks.get(pid, 0.0))
                        samples[pid] = samples.get(pid, 0) + 1
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            shutil.rmtree(work, ignore_errors=True)
        text = out_path.read_text(encoding="utf-8").strip()
        if proc.returncode != 0 or not text:
            raise BenchError(
                f"{spec['mode']} child exited with code {proc.returncode}"
            )
        result = json.loads(text.splitlines()[-1])
        if "peak_rss_mb" in result:
            result["peak_rss_mb"] += sum(
                peak for pid, peak in worker_peaks.items() if samples[pid] >= 2
            )
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.t0


def _operation(workload: str, seed: int | None) -> tuple[dict, dict]:
    """The child spec of one measured operation, and the seeds it uses."""
    info = WORKLOADS[workload]
    config_seed, sweep_seeds = derive_seeds(seed)
    if info["kind"] == "pipeline":
        spec = {"workload": "pipeline", "benchmark": info["benchmark"]}
        return dict(spec, seed=config_seed), {"config": config_seed}
    spec = {"workload": "sweep", "seeds": sweep_seeds, "resubmits": RESUBMITS}
    return spec, {"sweep": sweep_seeds}


def _report(runs: list[dict], metrics: dict, units: dict, seeds: dict) -> dict:
    """Fold the children's counts, checks and digests into one report."""
    problems = [p for r in runs for p in r["problems"]]
    digests = sorted({r["digest"] for r in runs})
    if len(digests) > 1:
        problems.append(f"runs of one input disagree: {len(digests)} digests")
    return {
        "metrics": metrics,
        "units": units,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "problems": problems,
        "digests": digests,
        "seeds": seeds,
        "notes": [],
    }


def measure(runner: Runner, workload: str, seed: int | None, seconds: float) -> dict:
    """Untraced run: repetitions for ``seconds`` plus set-up samples."""
    op, seeds = _operation(workload, seed)
    setups = []
    for i in range(SETUP_SAMPLES):
        setups.append(runner.child(dict(op, mode="setup"), f"setup-{i}")["setup_s"])
    reps = []
    start = time.monotonic()
    while not reps or time.monotonic() - start < seconds:
        spec = dict(op, mode="measure", trace="off")
        reps.append(runner.child(spec, f"rep-{len(reps)}"))
    setups += [r["setup_s"] for r in reps]
    attempted = sum(r["attempted"] for r in reps)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "ok_frac": (attempted - sum(r["failed"] for r in reps)) / attempted,
    }
    report = _report(reps, metrics, END_TO_END, seeds)
    report["notes"].append(f"{len(reps)} repetition(s), {len(setups)} set-up samples")
    return report


def measure_traced(runner: Runner, workload: str, seed: int | None) -> dict:
    """Traced run: per-layer metrics, and the overhead against an untraced twin."""
    op, seeds = _operation(workload, seed)
    runs = {}
    for trace in ("off", "layers"):
        runs[trace] = runner.child(dict(op, mode="measure", trace=trace), trace)
    untraced, traced = runs["off"], runs["layers"]
    metrics = {name: 0 for name in PER_LAYER}
    metrics.update(traced["layers"])
    metrics["obs.trace_overhead_frac"] = traced["run_s"] / untraced["run_s"] - 1.0
    report = _report(list(runs.values()), metrics, PER_LAYER, seeds)

    pipeline_wall = metrics[layers.PIPELINE_SPAN]
    if WORKLOADS[workload]["kind"] == "pipeline" and metrics["experiments.self_s"] > (
        MAX_SELF_SHARE * pipeline_wall
    ):
        report["problems"].append(
            f"layers account for only "
            f"{1 - metrics['experiments.self_s'] / pipeline_wall:.1%} of the "
            "traced pipeline wall"
        )
    report["notes"].append(
        f"untraced run_s {untraced['run_s']!r} s, traced {traced['run_s']!r} s"
    )
    if traced["missing_hooks"]:
        report["notes"].append("hooks not found: " + ", ".join(traced["missing_hooks"]))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    runner = Runner(WORKLOADS[args.workload].get("deadline_s", DEADLINE_S))
    try:
        if args.trace:
            report = measure_traced(runner, args.workload, args.seed)
        else:
            report = measure(runner, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  derived {report['seeds']}")
    for note in report["notes"]:
        print(f"  {note}")
    for name, value in report["metrics"].items():
        print(f"  {name:34s} {value!r} {report['units'][name]}")
    for sha in report["digests"]:
        print(f"  digest {sha}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  checks {'ok' if not report['problems'] else 'FAILED'}")
    print(f"  wall {runner.elapsed():.1f} s")
    correct = not report["problems"] and report["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": value, "unit": report["units"][name]}
                    for name, value in report["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
