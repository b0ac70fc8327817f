"""One measured operation, run in a fresh interpreter by ``run.py``.

Usage (the runner builds the JSON spec): ``python3 perfbench/child.py SPEC``.
The last line of standard output is one JSON object with the results.

Modes:

* ``setup`` — imports and circuit load (pipeline) or supervisor
  construction and submit (sweep), then exit: one set-up sample.
* ``measure`` of a pipeline — set up, then one cold ``run_experiment``.
* ``measure`` of a sweep — set up, run the fresh 16-job campaign, then
  resubmit the same spec to new campaigns sharing its result store.

``trace`` is ``off`` or ``layers`` (the wrappers from ``layers.py``; in a
sweep every pool worker times its own jobs).  Every result counts the
operations ``attempted`` and ``failed``.

Every timed pipeline runs here, in a process that has run nothing before:
the in-process memo, the prover's static-learning cache and the compiled
cones would otherwise make it cheap.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

import digest
import layers

SWEEP_BENCHMARKS = ("c17", "mux8", "dec4", "par16")
SWEEP_DETECTIONS = ("voltage", "iddq")
SWEEP_WORKERS = 2


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _campaign_spec(seeds: list[int]):
    from repro.campaign.spec import CampaignSpec

    return CampaignSpec(
        name="sweep_shared",
        grid={
            "benchmark": SWEEP_BENCHMARKS,
            "detection": SWEEP_DETECTIONS,
            "seed": tuple(seeds),
        },
    )


def setup(spec: dict) -> dict:
    if spec["workload"] == "pipeline":
        from repro.circuit.iscas import load_benchmark
        from repro.experiments.pipeline import run_experiment  # noqa: F401

        load_benchmark(spec["benchmark"])
    else:
        from repro.campaign.supervisor import CampaignSupervisor

        work = Path(spec["workdir"])
        supervisor = CampaignSupervisor(
            work / "fresh", max_workers=SWEEP_WORKERS, results_dir=work / "store"
        )
        supervisor.submit(_campaign_spec(spec["seeds"]))
        supervisor.journal.close()
    return {"setup_s": time.monotonic() - spec["spawned"]}


def pipeline(spec: dict) -> dict:
    from repro import obs
    from repro.circuit.iscas import load_benchmark
    from repro.experiments.pipeline import ExperimentConfig, cache_info, run_experiment

    config = ExperimentConfig(benchmark=spec["benchmark"], seed=spec["seed"])
    load_benchmark(config.benchmark)
    trace = None
    run = run_experiment
    missing: list[str] = []
    if spec["trace"] == "layers":
        trace = layers.LayerTrace()
        missing = layers.install(trace)
        run = layers.traced_run_experiment(trace)
    setup_s = time.monotonic() - spec["spawned"]

    before = cache_info()
    t0 = time.perf_counter()
    result = run(config)
    run_s = time.perf_counter() - t0
    after = cache_info()

    problems = []
    if (after.misses, after.hits) != (before.misses + 1, before.hits):
        problems.append("timed run was not a pipeline memo miss")
    if obs.is_enabled():
        problems.append("repro.obs was enabled during a timed run")
    out: dict = {"setup_s": setup_s, "run_s": run_s, "missing_hooks": missing}
    if trace is not None:
        out["layers"] = trace.metrics(result)
    problems += digest.pipeline_problems(result)
    out["digest"] = digest.pipeline_digest(result)
    out["problems"] = problems
    out["attempted"], out["failed"] = 1, int(bool(problems))
    out["peak_rss_mb"] = _peak_rss_mb()
    return out


def _journal_records(directory: Path) -> list[dict]:
    from repro.campaign.journal import Journal

    return Journal(directory, readonly=True).replay()[0]


def _install_job_spool(spool: Path) -> list[str]:
    """Time every campaign job's layers; each job writes ``spool/<job>.json``.

    Wraps the ``run_experiment`` the supervisor's workers call.  Workers are
    forked from this process after the wrappers are in place, so they inherit
    them.
    """
    from repro.campaign import supervisor
    from repro.obs.manifest import config_hash

    trace = layers.LayerTrace()
    missing = layers.install(trace)
    traced = layers.traced_run_experiment(trace)

    def run_job(config):
        trace.reset()
        result = traced(config)
        record = {"job": config_hash(config), "layers": trace.metrics(result)}
        (spool / f"{record['job']}.json").write_text(json.dumps(record))
        return result

    supervisor.run_experiment = run_job
    return missing


def sweep(spec: dict) -> dict:
    from repro.campaign.store import ResultStore, dir_size_bytes
    from repro.campaign.supervisor import CampaignSupervisor

    work = Path(spec["workdir"])
    spool = work / "spool"
    missing: list[str] = []
    if spec["trace"] == "layers":
        spool.mkdir(parents=True)
        missing = _install_job_spool(spool)
    campaign = _campaign_spec(spec["seeds"])
    supervisor = CampaignSupervisor(
        work / "fresh", max_workers=SWEEP_WORKERS, results_dir=work / "store"
    )
    job_ids = supervisor.submit(campaign)
    setup_s = time.monotonic() - spec["spawned"]

    t0 = time.perf_counter()
    report = supervisor.run()
    run_s = time.perf_counter() - t0

    problems = []
    n_jobs = len(job_ids)
    if (report.n_done, report.jobs_computed, report.jobs_quarantined) != (
        n_jobs,
        n_jobs,
        0,
    ) or not report.finished:
        problems.append(
            f"fresh sweep: {report.n_done} done, {report.jobs_computed} "
            f"computed, {report.jobs_quarantined} quarantined of {n_jobs}"
        )
    store = ResultStore(work / "store")
    records = {job: store.load(job) for job in job_ids}
    failed_jobs = set()
    for job, record in records.items():
        job_problems = ["no stored result"] if record is None else (
            digest.record_problems(record)
        )
        if job_problems:
            failed_jobs.add(job)
            problems += [f"job {job}: {p}" for p in job_problems]
    fresh_digest = digest.sweep_digest(
        {job: r for job, r in records.items() if r is not None}
    )
    fresh_shas = {
        r["job"]: r["result_sha"]
        for r in _journal_records(work / "fresh")
        if r.get("type") == "done"
    }

    cached_walls = []
    failed_resubmits = 0
    for i in range(spec["resubmits"]):
        again = CampaignSupervisor(
            work / f"resubmit-{i}",
            max_workers=SWEEP_WORKERS,
            results_dir=work / "store",
        )
        again.submit(campaign)
        t0 = time.perf_counter()
        cached = again.run()
        cached_walls.append(time.perf_counter() - t0)
        if (cached.n_done, cached.jobs_cached, cached.jobs_computed) != (
            n_jobs,
            n_jobs,
            0,
        ):
            problems.append(
                f"resubmit {i}: {cached.n_done} done, {cached.jobs_cached} "
                f"cached, {cached.jobs_computed} computed of {n_jobs}"
            )
        served = {
            r["job"]: r["result_sha"]
            for r in _journal_records(work / f"resubmit-{i}")
            if r.get("type") == "done"
        }
        wrong = sum(1 for job, sha in fresh_shas.items() if served.get(job) != sha)
        if wrong:
            failed_resubmits += wrong
            problems.append(f"resubmit {i} served {wrong} differing records")

    out: dict = {
        "setup_s": setup_s,
        "run_s": run_s,
        "attempted": n_jobs * (1 + spec["resubmits"]),
        "failed": len(failed_jobs) + failed_resubmits,
        "digest": fresh_digest,
        "problems": problems,
        "missing_hooks": missing,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if spec["trace"] == "layers":
        journal = _journal_records(work / "fresh")
        walls = [r["wall_s"] for r in journal if r.get("type") == "done"]
        per_job = [
            json.loads(path.read_text()) for path in sorted(spool.glob("*.json"))
        ]
        campaign_metrics = {
            "campaign.jobs_computed": report.jobs_computed,
            "campaign.jobs_cached": cached.jobs_cached if cached_walls else 0,
            "campaign.cached_run_s": (
                statistics.median(cached_walls) if cached_walls else 0
            ),
            "campaign.job_wall_sum_s": sum(walls),
            "campaign.job_wall_p50_s": statistics.median(walls) if walls else 0,
            "campaign.worker_busy_frac": sum(walls) / (run_s * SWEEP_WORKERS),
            "campaign.shared_upstream_frac": _shared_upstream_frac(
                campaign, per_job, sum(walls)
            ),
            "campaign.journal_records": len(journal),
            "campaign.store_bytes": dir_size_bytes(work / "store"),
        }
        out["layers"] = {
            **layers.aggregate([job["layers"] for job in per_job]),
            **campaign_metrics,
        }
    return out


def _shared_upstream_frac(campaign, per_job: list[dict], wall_sum: float) -> float:
    """Share of the sweep's job wall spent recomputing another job's upstream.

    Jobs that differ only in ``detection`` run identical stages up to
    ``build_coverage``.  Of each such group's upstream wall (pipeline minus
    coverage assembly), all but one job's share is repeated work that
    cross-job reuse could skip.
    """
    from repro.obs.manifest import config_to_dict

    group_of = {}
    for job in campaign.expand():
        upstream = config_to_dict(job.config)
        upstream.pop("detection")
        group_of[job.job_id] = json.dumps(upstream, sort_keys=True)
    groups: dict[str, list[float]] = {}
    for job in per_job:
        m = job["layers"]
        groups.setdefault(group_of[job["job"]], []).append(
            m[layers.PIPELINE_SPAN] - m["switchsim.coverage_s"]
        )
    repeated = sum(sum(w) * (len(w) - 1) / len(w) for w in groups.values())
    return repeated / wall_sum if wall_sum else 0.0


def main() -> None:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "setup":
        result = setup(spec)
    elif spec["workload"] == "pipeline":
        result = pipeline(spec)
    else:
        result = sweep(spec)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
