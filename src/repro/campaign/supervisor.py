"""The campaign supervisor: leased fan-out of experiments over a process pool.

One :class:`CampaignSupervisor` owns a campaign directory::

    <dir>/journal.jsonl     the write-ahead journal (single writer: this)
    <dir>/results/          content-addressed result store (config-hash keyed)
    <dir>/manifests.jsonl   one run manifest per completed job (obs toolchain)
    <dir>/leases/           worker heartbeat files, one per active lease

Scheduling discipline (the DAVOS ``Multicore`` shape — ``maxproc``,
``retry_attempts`` — rebuilt on this repo's journal/result-store
substrate):

* Every transition is journalled **before** it is acted on (lease before
  submit, done after the result is safely in the store), so ``kill -9`` at
  any instant loses at most the in-flight leases — never a completed result.
* A job whose id is already in the result store is **served from cache**:
  the supervisor journals a cached completion, bumps ``pipeline.cache_hit``,
  and never touches a worker — re-submitted or overlapping sweeps cost
  seconds, not simulations.
* Each submitted job holds a **lease**: the worker heartbeats a counter file
  while it runs, and a lease with no progress for ``lease_timeout`` seconds
  is reclaimed — the hung pool is abandoned, a fresh one is built, and the
  job returns to the queue (its attempt spent).
* Failures classify as transient or fatal (:func:`classify_failure`):
  transient failures retry after a fixed exponential backoff
  (:func:`backoff_s`) until the job's ``max_attempts`` budget is spent;
  fatal failures (and spent budgets) quarantine the job immediately.
  Nothing is silent — counters, warnings, and a journal record per
  transition, which an ``on_record`` callback sees as it is written.
* A broken pool degrades the worker count (never below one) rather than
  failing the campaign; SIGINT/SIGTERM journal a clean ``stop`` record so a
  later ``campaign resume`` continues exactly where the run stopped.

There is one job path.  ``max_workers=0`` swaps the process pool for a
pool of width one that runs each job at once in the supervisor process;
the job still holds a lease with a heartbeat file and is harvested by the
same lease checks as a pool job.

The ``campaign.job`` chaos point fires where the job runs, before the
experiment (kinds ``exception``/``fatal``/``crash``/``sleep``); the
cooperative ``campaign.lease`` point (kind ``expire``) forces a lease to be
treated as expired, exercising the reclaim path deterministically.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.campaign import chaos
from repro.campaign.journal import Journal
from repro.campaign.spec import CampaignSpec, config_from_dict
from repro.campaign.state import DONE, CampaignState, campaign_record
from repro.campaign.store import ResultStore, result_record
from repro.experiments import run_experiment
from repro.obs.manifest import RunManifest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = ["CampaignSupervisor", "CampaignReport"]

#: Default no-progress window before a lease is reclaimed.
DEFAULT_LEASE_TIMEOUT = 120.0
#: How long the run loop waits on in-flight jobs before checking leases.
POLL_INTERVAL_S = 0.05


def backoff_s(retry_index: int) -> float:
    """Delay before a job's retry number ``retry_index`` (0-based).

    0.05 s, doubling per retry, capped at 2 s.  Jitter-free: the workers
    are local processes, not a shared service, and tests assert exact
    retry counts.
    """
    return min(0.05 * 2.0**retry_index, 2.0)


def classify_failure(exc: BaseException) -> str:
    """``"transient"`` if a clean retry may cure ``exc``, else ``"fatal"``.

    Transient: the worker or pool died (``BrokenExecutor``), a timeout, or
    the OS refused a resource.  Anything else is a deterministic bug that a
    retry would reproduce.
    """
    from concurrent.futures import BrokenExecutor
    from concurrent.futures import TimeoutError as FuturesTimeoutError

    transient = (
        chaos.ChaosInjectedError,
        BrokenExecutor,
        FuturesTimeoutError,
        OSError,  # includes ConnectionError and the builtin TimeoutError
        EOFError,
        MemoryError,
    )
    return "transient" if isinstance(exc, transient) else "fatal"


# ----------------------------------------------------------------------
# Worker side
def _init_campaign_worker(plan: chaos.ChaosPlan | None) -> None:
    """Pool initializer: arm the chaos plan inside each worker."""
    chaos.install(plan)


def _heartbeat_loop(
    path_str: str, interval: float, stop: threading.Event
) -> None:
    count = 0
    path = Path(path_str)
    while not stop.wait(interval):
        count += 1
        try:
            path.write_text(str(count), encoding="utf-8")
        except OSError:
            return


def _run_campaign_job(
    job_id: str,
    config_dict: dict[str, object],
    attempt: int,
    hb_path: str,
    hb_interval: float,
    telemetry: bool,
) -> dict[str, object]:
    """Execute one job in a worker: run the experiment, return its record.

    The ``campaign.job`` chaos point fires *before* the heartbeat thread
    starts, so an injected ``sleep`` models the worst hang — a worker that
    never reports liveness at all.

    ``telemetry`` runs the job under a fresh metrics registry and returns
    its counter snapshot in the payload (``"counters"``).  The module-level
    obs state is restored afterwards, so the inline mode (``max_workers=0``,
    sharing the supervisor's process) never clobbers the parent's
    collectors.
    """
    chaos.maybe_inject("campaign.job", key=job_id, attempt=attempt)
    stop = threading.Event()
    try:
        Path(hb_path).write_text("0", encoding="utf-8")
    except OSError:
        pass
    thread = threading.Thread(
        target=_heartbeat_loop, args=(hb_path, hb_interval, stop), daemon=True
    )
    thread.start()
    prev_collector, prev_registry = obs.collector(), obs.registry()
    fresh_registry = obs.enable()[1] if telemetry else None
    try:
        config = config_from_dict(dict(config_dict))
        t0 = time.perf_counter()
        result = run_experiment(config)
        payload: dict[str, object] = {
            "record": result_record(result),
            "wall_s": time.perf_counter() - t0,
            "worker_pid": os.getpid(),
            "engine": dict(result.engine),
        }
        if fresh_registry is not None:
            payload["counters"] = fresh_registry.snapshot()["counters"]
        return payload
    finally:
        stop.set()
        thread.join(timeout=1.0)
        if fresh_registry is not None:
            if prev_collector is not None and prev_registry is not None:
                obs.enable(prev_collector, prev_registry)
            else:
                obs.disable()


class _InlinePool:
    """A pool of width one whose ``submit`` runs the job at once, here.

    ``max_workers=0`` uses it in place of the process pool: the returned
    future is already done, so the run loop harvests it through the same
    lease checks as a pool job.
    """

    def submit(self, fn: Callable[..., object], *args: object) -> "Future":
        from concurrent.futures import Future

        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Nothing to stop: every submitted job has already run."""


# ----------------------------------------------------------------------
# Parent side
@dataclass
class _Lease:
    """Supervisor-side view of one granted lease."""

    job_id: str
    lease_id: str
    attempt: int
    granted_mono: float
    hb_path: Path
    last_hb: str = ""
    last_progress_mono: float = 0.0

    def __post_init__(self) -> None:
        if not self.last_progress_mono:
            self.last_progress_mono = self.granted_mono


@dataclass
class CampaignReport:
    """What one :meth:`CampaignSupervisor.run` call accomplished."""

    name: str
    counts: dict[str, int] = field(default_factory=dict)
    jobs_cached: int = 0
    jobs_computed: int = 0
    jobs_retried: int = 0
    leases_reclaimed: int = 0
    jobs_quarantined: int = 0
    stopped: bool = False
    stop_reason: str | None = None
    finished: bool = False
    wall_s: float = 0.0

    @property
    def n_done(self) -> int:
        return self.counts.get(DONE, 0)


class CampaignSupervisor:
    """Durable scheduler for one campaign directory (single writer).

    Parameters
    ----------
    directory:
        Campaign home; created if missing.  Holds the journal, result
        store, manifests and lease heartbeats.
    max_workers:
        Process-pool width.  ``0`` runs each job in the supervisor process,
        one at a time, under the same leases — the deterministic mode tests
        and tiny sweeps use.  None = machine CPU count.
    lease_timeout:
        Seconds a lease may show no heartbeat progress before it is
        reclaimed.
    results_dir:
        Result-store root; defaults to ``<directory>/results``.  Point
        several campaigns at one store to share their cache.
    on_record:
        Called with each record right after it is journalled.  While one
        is attached, each job also runs under a fresh metrics registry and
        every computed job adds one ``{"type": "counters", "job",
        "counters"}`` record, which is passed on but not journalled.
    """

    def __init__(
        self,
        directory: str | Path,
        max_workers: int | None = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        results_dir: str | Path | None = None,
        on_record: Callable[[dict], None] | None = None,
    ) -> None:
        self.dir = Path(directory)
        self.journal = Journal(self.dir)
        self.state = CampaignState.load(self.journal)
        self.store = ResultStore(
            results_dir if results_dir is not None else self.dir / "results"
        )
        self.manifest_path = self.dir / "manifests.jsonl"
        cpu = os.cpu_count() or 1
        self.max_workers = cpu if max_workers is None else max_workers
        if self.max_workers < 0:
            raise ValueError(
                f"max_workers must be >= 0, got {self.max_workers}"
            )
        self.lease_timeout = lease_timeout
        self.on_record = on_record
        self._pool: "ProcessPoolExecutor | _InlinePool | None" = None
        self._pool_workers = max(1, self.max_workers)
        self._stop_signal: str | None = None
        self._report = CampaignReport(name=self.state.name)

    # -- submission ----------------------------------------------------
    def submit(self, spec: CampaignSpec) -> list[str]:
        """Register ``spec``'s expanded jobs; returns the new job ids.

        Overlap-safe: jobs already registered keep their progress (a
        re-submission can only raise priority / retry budget), jobs already
        in the result store will be served from cache when :meth:`run`
        reaches them.
        """
        jobs = spec.expand()
        known = set(self.state.jobs)
        record = campaign_record(spec, jobs)
        self._append(record)
        obs.inc("campaign.jobs_submitted", len(jobs))
        return [j.job_id for j in jobs if j.job_id not in known]

    def _append(self, record: dict) -> None:
        # Stamp a wall clock into every journalled transition: replay
        # ignores unknown keys (state stays a pure fold), but the campaign
        # trace/gantt can then be rebuilt from the journal alone.
        record.setdefault("ts", round(time.time(), 6))
        seq = self.journal.append(record)
        self.state.apply(record)
        self.state.last_seq = seq
        if self.on_record is not None:
            self.on_record(record)

    # -- the run loop --------------------------------------------------
    def run(self) -> CampaignReport:
        """Drive the campaign until complete, stopped, or out of work."""
        from concurrent.futures import FIRST_COMPLETED, Future, wait

        t0 = time.perf_counter()
        self._report = CampaignReport(name=self.state.name)
        released = self.state.release_dead_leases()
        for job_id, lease_id in released.items():
            # The dead holder's heartbeat file outlives it; drop it too.
            (self.dir / "leases" / f"{lease_id}.hb").unlink(missing_ok=True)
            # The journal must reflect the release (replay would otherwise
            # still see the dead lease): reclaim with a restart reason.
            self._append(
                {
                    "type": "reclaim",
                    "job": job_id,
                    "reason": "supervisor restart: lease holder is gone",
                }
            )

        backoff_until: dict[str, float] = {}
        in_flight: dict["Future", _Lease] = {}
        previous_handlers: dict[int, object] = {}
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous_handlers[signum] = signal.signal(
                    signum, self._handle_signal
                )
        try:
            while True:
                if self._stop_signal is not None:
                    self._record_stop(self._stop_signal)
                    break
                now = time.monotonic()
                ready = [
                    job.job_id
                    for job in self.state.pending_jobs()
                    if backoff_until.get(job.job_id, 0.0) <= now
                ]
                # Cache first: served jobs never cost a lease or a worker.
                progressed = False
                for job_id in ready:
                    if self._serve_cached(job_id):
                        progressed = True
                if progressed:
                    continue
                slots = max(0, self._pool_workers - len(in_flight))
                for job_id in ready[:slots]:
                    self._submit_job(job_id, in_flight, backoff_until)
                if not in_flight:
                    # Every pending job is backing off, or none is left.
                    if not self._wait_for_backoff(backoff_until):
                        break
                    continue
                done, _ = wait(
                    set(in_flight),
                    timeout=POLL_INTERVAL_S,
                    return_when=FIRST_COMPLETED,
                )
                # Expiry first, harvest second: a chaos-forced ``expire``
                # must win even when the worker already finished, or the
                # reclaim path would depend on worker speed.
                self._check_leases(in_flight, backoff_until)
                for future in done:
                    lease = in_flight.pop(future, None)
                    if lease is None:  # reclaimed just above
                        continue
                    self._finish_lease(future, lease, backoff_until)
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)  # type: ignore[arg-type]
            self._shutdown_pool(abandon=self._stop_signal is not None)
        if self.state.complete and not self.state.finished:
            self._append({"type": "end", "name": self.state.name})
        self.journal.close()
        report = self._report
        report.counts = self.state.counts()
        report.stopped = self._stop_signal is not None
        report.stop_reason = self._stop_signal
        report.finished = self.state.finished
        report.wall_s = time.perf_counter() - t0
        return report

    def request_stop(self, reason: str = "requested") -> None:
        """Ask the run loop to stop at the next clean point (thread-safe)."""
        self._stop_signal = reason

    # -- cache serving --------------------------------------------------
    def _serve_cached(self, job_id: str) -> bool:
        record = self.store.load(job_id) if self.store.has(job_id) else None
        if record is None:
            return False
        from repro.campaign.store import record_sha256

        sha = record_sha256(record)
        self._append(
            {
                "type": "done",
                "job": job_id,
                "cached": True,
                "result_sha": sha,
            }
        )
        self._write_manifest(job_id, record, cache="hit")
        obs.inc("pipeline.cache_hit")
        obs.inc("campaign.jobs_cached")
        self._report.jobs_cached += 1
        return True

    # -- job execution --------------------------------------------------
    def _submit_job(
        self,
        job_id: str,
        in_flight: dict["Future", _Lease],
        backoff_until: dict[str, float],
    ) -> None:
        job = self.state.jobs[job_id]
        attempt = job.attempts  # 0-based lease index
        lease_id = f"{job_id}.a{attempt}"
        hb_dir = self.dir / "leases"
        hb_dir.mkdir(parents=True, exist_ok=True)
        hb_path = hb_dir / f"{lease_id}.hb"
        hb_path.unlink(missing_ok=True)
        self._append(
            {
                "type": "lease",
                "job": job_id,
                "lease_id": lease_id,
                "attempt": attempt,
            }
        )
        obs.inc("pipeline.cache_miss")
        interval = max(0.02, min(1.0, self.lease_timeout / 4.0))
        pool = self._ensure_pool()
        try:
            future = pool.submit(
                _run_campaign_job,
                job_id,
                dict(job.config),
                attempt,
                str(hb_path),
                interval,
                self.on_record is not None,
            )
        except Exception as exc:  # pool broke at submission
            self._handle_failure(job_id, attempt, exc, backoff_until)
            self._degrade_pool(f"submit failed: {exc}")
            return
        in_flight[future] = _Lease(
            job_id=job_id,
            lease_id=lease_id,
            attempt=attempt,
            granted_mono=time.monotonic(),
            hb_path=hb_path,
        )

    def _finish_lease(
        self,
        future: "Future",
        lease: _Lease,
        backoff_until: dict[str, float],
    ) -> None:
        from concurrent.futures import BrokenExecutor

        try:
            payload = future.result()
        except Exception as exc:
            self._handle_failure(
                lease.job_id, lease.attempt, exc, backoff_until
            )
            if isinstance(exc, BrokenExecutor):
                self._degrade_pool(f"pool broke: {exc}")
            return
        finally:
            lease.hb_path.unlink(missing_ok=True)
        self._complete_job(lease.job_id, payload)

    def _complete_job(self, job_id: str, payload: dict[str, object]) -> None:
        record = payload["record"]
        assert isinstance(record, dict)
        sha = self.store.save(job_id, record)
        wall_s = round(float(payload.get("wall_s", 0.0)), 6)
        self._append(
            {
                "type": "done",
                "job": job_id,
                "cached": False,
                "result_sha": sha,
                "wall_s": wall_s,
                "worker_pid": payload.get("worker_pid"),
            }
        )
        self._write_manifest(job_id, record, cache="miss")
        obs.inc("campaign.jobs_done")
        self._report.jobs_computed += 1
        counters = payload.get("counters")
        if self.on_record is not None and isinstance(counters, dict) and counters:
            # The job's own counter snapshot, from the fresh per-job
            # registry: deterministic for a deterministic config, so a
            # resumed campaign's stream carries counters bit-identical to
            # an uninterrupted run's.
            self.on_record(
                {"type": "counters", "job": job_id, "counters": counters}
            )

    # -- failure handling -----------------------------------------------
    def _handle_failure(
        self,
        job_id: str,
        attempt: int,
        exc: BaseException,
        backoff_until: dict[str, float],
    ) -> None:
        kind = classify_failure(exc)
        reason = f"{type(exc).__name__}: {exc}"
        job = self.state.jobs[job_id]
        self._append(
            {
                "type": "fail",
                "job": job_id,
                "attempt": attempt,
                "kind": kind,
                "reason": reason,
            }
        )
        obs.inc("campaign.job_failures")
        obs.inc(f"campaign.job_failure.{type(exc).__name__}")
        if kind == "fatal" or job.attempts >= job.max_attempts:
            why = (
                "deterministic failure"
                if kind == "fatal"
                else f"retry budget spent ({job.attempts}/{job.max_attempts})"
            )
            self._quarantine(job_id, f"{why}: {reason}")
            return
        delay = backoff_s(job.attempts - 1)
        backoff_until[job_id] = time.monotonic() + delay
        obs.inc("campaign.jobs_retried")
        self._report.jobs_retried += 1
        warnings.warn(
            f"campaign job {job_id} failed transiently "
            f"({reason}); retrying in {delay:.2f}s "
            f"(attempt {job.attempts}/{job.max_attempts})",
            RuntimeWarning,
            stacklevel=2,
        )

    def _quarantine(self, job_id: str, reason: str) -> None:
        self._append(
            {"type": "quarantine", "job": job_id, "reason": reason}
        )
        obs.inc("campaign.jobs_quarantined")
        self._report.jobs_quarantined += 1
        warnings.warn(
            f"campaign job {job_id} quarantined: {reason}",
            RuntimeWarning,
            stacklevel=2,
        )

    # -- leases ----------------------------------------------------------
    def _check_leases(
        self,
        in_flight: dict["Future", _Lease],
        backoff_until: dict[str, float],
    ) -> None:
        if not in_flight:
            return
        now = time.monotonic()
        expired: list["Future"] = []
        for future, lease in in_flight.items():
            try:
                beat = lease.hb_path.read_text(encoding="utf-8")
            except OSError:
                beat = lease.last_hb
            if beat != lease.last_hb:
                lease.last_hb = beat
                lease.last_progress_mono = now
            forced = (
                chaos.planned_kind(
                    "campaign.lease", key=lease.job_id, attempt=lease.attempt
                )
                == "expire"
            )
            # A completed future can only be reclaimed by a *forced*
            # expiry — the timeout path never punishes a finished worker.
            timed_out = (
                not future.done()
                and now - lease.last_progress_mono > self.lease_timeout
            )
            if forced or timed_out:
                expired.append(future)
        if not expired:
            return
        # One hung worker poisons the whole pool (we cannot kill a single
        # future): reclaim every in-flight lease, abandon the pool, and let
        # the survivors retry on a fresh one.
        hung = {in_flight[f].job_id for f in expired}
        for future, lease in list(in_flight.items()):
            reason = (
                f"lease {lease.lease_id} expired after "
                f"{self.lease_timeout}s without heartbeat progress"
                if future in expired
                else (
                    f"pool abandoned while reclaiming hung job(s) "
                    f"{', '.join(sorted(hung))}"
                )
            )
            self._append(
                {
                    "type": "reclaim",
                    "job": lease.job_id,
                    "lease_id": lease.lease_id,
                    "reason": reason,
                }
            )
            obs.inc("campaign.leases_reclaimed")
            self._report.leases_reclaimed += 1
            lease.hb_path.unlink(missing_ok=True)
            job = self.state.jobs[lease.job_id]
            if job.attempts >= job.max_attempts:
                self._quarantine(
                    lease.job_id, f"retry budget spent after reclaim: {reason}"
                )
            else:
                delay = backoff_s(job.attempts - 1)
                backoff_until[lease.job_id] = time.monotonic() + delay
                obs.inc("campaign.jobs_retried")
                self._report.jobs_retried += 1
            del in_flight[future]
        warnings.warn(
            f"reclaimed {len(hung)} hung lease(s) "
            f"({', '.join(sorted(hung))}); pool abandoned and rebuilt",
            RuntimeWarning,
            stacklevel=3,
        )
        self._shutdown_pool(abandon=True)

    # -- pool management --------------------------------------------------
    def _ensure_pool(self) -> "ProcessPoolExecutor | _InlinePool":
        from concurrent.futures import ProcessPoolExecutor

        if self._pool is None:
            self._pool = (
                _InlinePool()
                if self.max_workers == 0
                else ProcessPoolExecutor(
                    max_workers=self._pool_workers,
                    initializer=_init_campaign_worker,
                    initargs=(chaos.current_plan(),),
                )
            )
        return self._pool

    def _degrade_pool(self, reason: str) -> None:
        """Rebuild the pool one worker narrower — degraded, never silent."""
        self._shutdown_pool(abandon=True)
        if self._pool_workers > 1:
            self._pool_workers -= 1
            obs.inc("campaign.workers_degraded")
            warnings.warn(
                f"campaign pool degraded to {self._pool_workers} worker(s): "
                f"{reason}",
                RuntimeWarning,
                stacklevel=3,
            )

    def _shutdown_pool(self, abandon: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=not abandon, cancel_futures=abandon)
            self._pool = None

    # -- stop / signals ---------------------------------------------------
    def _handle_signal(self, signum: int, _frame: object) -> None:
        try:
            name = signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        self._stop_signal = name

    def _record_stop(self, reason: str) -> None:
        self._append({"type": "stop", "reason": reason})
        obs.inc("campaign.stops")

    # -- backoff waiting --------------------------------------------------
    def _wait_for_backoff(self, backoff_until: dict[str, float]) -> bool:
        """Sleep until the earliest backed-off job is ready; False = no work."""
        pending = {j.job_id for j in self.state.pending_jobs()}
        deadlines = [
            t for j, t in backoff_until.items() if j in pending
        ]
        if not deadlines:
            return False
        delay = max(0.0, min(deadlines) - time.monotonic())
        if delay:
            time.sleep(min(delay, 1.0))
        return True

    # -- reporting --------------------------------------------------------
    def _write_manifest(
        self, job_id: str, record: dict, cache: str
    ) -> None:
        """Append one run manifest per completed job (``obs list --campaign``)."""
        job = self.state.jobs[job_id]
        try:
            config = config_from_dict(dict(job.config))
        except Exception:  # journalled config predates a schema change
            return
        results = {
            key: record.get(key)
            for key in (
                "R",
                "theta_max_fit",
                "fit_residual",
                "theta_max_measured",
                "final_T",
                "final_theta",
                "final_DL",
                "n_patterns",
                "n_random",
                "n_redundant",
                "n_untestable_static",
            )
        }
        results["campaign"] = self.state.name
        results["job_id"] = job_id
        manifest = RunManifest.from_run(config, results=results, cache=cache)
        try:
            manifest.write(str(self.manifest_path))
        except OSError as exc:
            warnings.warn(
                f"cannot append campaign manifest {self.manifest_path}: {exc}",
                RuntimeWarning,
                stacklevel=2,
            )
