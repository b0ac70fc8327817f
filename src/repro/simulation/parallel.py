"""Multi-core fault-simulation fan-out with supervised recovery.

:class:`ParallelFaultSimulator` partitions the fault list across a
``concurrent.futures.ProcessPoolExecutor``.  Each worker builds the compiled
engine once and receives the packed pattern groups once, through the pool
initializer; per-task traffic is just a fault sublist out and two small
result maps back.  Per-fault outcomes are independent (dropping one fault
never changes another fault's detections), so any partition of the fault
list reproduces the serial engine bit-exactly — the property tests in
``tests/test_wide_word.py`` and ``tests/test_parallel_resilience.py``
assert it, including under injected failures.

Supervision (see ``docs/RESILIENCE.md``): chunks run as individual futures
with an optional deadline.  A failed or timed-out chunk is classified
through :func:`repro.resilience.classify_failure` — transient failures
(worker crash, timeout, OS resource errors) are retried in a fresh pool
with deterministic backoff, then re-run serially in the parent; fatal
failures (deterministic bugs) skip pool retries and go straight to the
serial phase, where the real exception propagates with full context.
Chunks that completed are *salvaged* — never recomputed, never discarded.
Degradation is never silent: it warns, increments the
``resilience.chunk_retries`` / ``resilience.chunks_salvaged`` /
``resilience.degraded_runs`` counters, and names the reason in
:meth:`ParallelFaultSimulator.engine_info` (and hence the run manifest).

The fan-out also degrades gracefully by *choice*: below a work crossover
(``n_faults x n_patterns``) or with one worker the serial
:class:`~repro.simulation.fault_sim.FaultSimulator` runs in-process instead.

**Worker telemetry** (see ``docs/OBSERVABILITY.md``): when the parent is
collecting (``--profile``/``--trace``), each worker runs its own collector
and ships its span trees and counter *deltas* back inside the chunk result
envelope.  The parent merges an envelope exactly once — at the moment the
chunk is accepted — so fresh-pool retries cannot double-count, and the
merged parallel profile equals a serial run of the same job.  Counters in
:data:`RUN_SCOPED_COUNTERS` are the one exception: every chunk observes the
full pattern sequence, so the parent counts those once itself.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro import obs
from repro.circuit.netlist import Circuit
from repro.obs.events import ProgressEvent, RetryEvent
from repro.obs.trace import Span
from repro.resilience import chaos
from repro.resilience.errors import ChunkFailure, FailureKind, classify_failure
from repro.resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.simulation.engines import (
    create_engine,
    default_crossover,
    default_width,
    resolve_engine,
)
from repro.simulation.fault_sim import FaultSimResult
from repro.simulation.faults import StuckAtFault, full_fault_universe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engines import Engine

__all__ = ["ParallelFaultSimulator", "DEFAULT_CROSSOVER", "RUN_SCOPED_COUNTERS"]

#: Serial/parallel work crossover (``n_faults x n_patterns``) for the python
#: engine; per-engine defaults live in
#: :func:`repro.simulation.engines.default_crossover` (the numpy kernel's
#: serial throughput is much higher, so its crossover sits far later).
DEFAULT_CROSSOVER = default_crossover("python")

#: Counters with *per-run* semantics: every chunk's engine counts the whole
#: applied sequence, so summing them across chunks would overstate the run.
#: The supervising parent owns these and counts them exactly once; everything
#: else in a worker's counter delta is chunk-additive and merges by summation.
RUN_SCOPED_COUNTERS = frozenset({"fault_sim.patterns_applied"})

# Worker-process state, installed once per worker by _init_worker.  The
# simulator is whichever engine the parent resolved (python or numpy) and
# the packed groups are in that engine's native packed form (``Any``:
# each engine's ``pack``/``run_packed`` pair agrees on the shape, but the
# shapes differ between engines).
_WORKER_SIM: "Engine | None" = None
_WORKER_GROUPS: Any = None
_WORKER_N_PATTERNS: int = 0

#: The worker-telemetry envelope riding along with each chunk result:
#: ``{"worker_pid": int, "counters": {name: delta}, "spans": [records]}``.
ChunkTelemetry = dict[str, Any] | None


def _init_worker(
    circuit: Circuit,
    width: int,
    patterns: list[list[int]],
    plan: chaos.ChaosPlan | None = None,
    collect_telemetry: bool = False,
    engine_kind: str = "python",
) -> None:
    """Pool initializer: compile the engine and pack the patterns once.

    The parent ships the *resolved* engine kind (never ``"auto"``), so every
    worker builds exactly the engine the parent's serial path would use.

    When the parent is collecting (``--profile``/``--trace``), the worker
    installs its own collector + registry so each chunk can ship its span
    trees and counter deltas back in the result envelope.
    """
    global _WORKER_SIM, _WORKER_GROUPS, _WORKER_N_PATTERNS
    chaos.install(plan)
    if collect_telemetry:
        obs.enable()
    _WORKER_SIM = create_engine(engine_kind, circuit, width=width)
    _WORKER_GROUPS = _WORKER_SIM.pack(patterns)
    _WORKER_N_PATTERNS = len(patterns)


def _simulate_chunk(
    faults: list[StuckAtFault],
    drop_detected: bool,
    chunk_id: int = 0,
    attempt: int = 0,
) -> tuple[dict[StuckAtFault, int], dict[StuckAtFault, int], ChunkTelemetry]:
    """Simulate one fault chunk against the worker's packed groups.

    Returns the two result maps plus a telemetry envelope (None when the
    worker is not collecting): the worker's counter *deltas* over this chunk
    and the span trees it produced, tagged with the worker's pid.  A chunk
    that fails returns nothing, so the parent only ever merges telemetry for
    work it actually accepted — retries can never double-count.
    """
    assert _WORKER_SIM is not None and _WORKER_GROUPS is not None
    chaos.maybe_inject("parallel.chunk", key=chunk_id, attempt=attempt)
    registry = obs.registry()
    collector = obs.collector()
    counters_before = registry.counter_values() if registry is not None else {}
    roots_before = len(collector.roots) if collector is not None else 0
    result = _WORKER_SIM.run_packed(
        _WORKER_GROUPS, _WORKER_N_PATTERNS, faults, drop_detected
    )
    telemetry: ChunkTelemetry = None
    if registry is not None:
        deltas = {
            name: value - counters_before.get(name, 0)
            for name, value in registry.counter_values().items()
        }
        telemetry = {
            "worker_pid": os.getpid(),
            "counters": {n: d for n, d in deltas.items() if d > 0},
            "spans": [
                span.to_record()
                for span in (
                    collector.roots[roots_before:]
                    if collector is not None
                    else []
                )
            ],
        }
    return result.first_detection, result.detection_counts, telemetry


class ParallelFaultSimulator:
    """Fault simulator that fans the fault list out over worker processes.

    Drop-in compatible with :class:`FaultSimulator.run`; results are
    bit-exact with the serial engine for both drop modes, in every recovery
    path.

    Parameters
    ----------
    circuit:
        The combinational circuit under test.
    width:
        Packed-word width forwarded to every worker's engine; None (default)
        uses the resolved engine's own default
        (:func:`repro.simulation.engines.default_width`).
    max_workers:
        Worker process count; defaults to the machine's CPU count.
    crossover:
        Minimum ``n_faults * n_patterns`` before the pool is worth starting;
        smaller jobs run serially in-process.  None (default) uses the
        resolved engine's calibrated crossover
        (:func:`repro.simulation.engines.default_crossover`).
    retry:
        Bounded-retry policy for transient chunk failures (default:
        :data:`~repro.resilience.retry.DEFAULT_RETRY_POLICY` — one fresh-pool
        retry with deterministic backoff, then serial salvage).
    chunk_timeout:
        Deadline in seconds for a round of chunks; chunks not finished by
        then are treated as transient failures (the hung pool is abandoned).
        None (default) disables the deadline.
    engine:
        Engine registry name — ``"python"`` (default), ``"numpy"`` or
        ``"auto"`` (see :mod:`repro.simulation.engines`).  An explicit
        ``"numpy"`` request raises
        :class:`~repro.simulation.engines.EngineUnavailableError` when the
        platform preflight fails; ``"auto"`` degrades to python and records
        why.
    """

    def __init__(
        self,
        circuit: Circuit,
        width: int | None = None,
        max_workers: int | None = None,
        crossover: int | None = None,
        retry: RetryPolicy | None = None,
        chunk_timeout: float | None = None,
        engine: str = "python",
    ) -> None:
        self.circuit = circuit
        self.requested_engine = engine
        kind, reason = resolve_engine(engine, width)
        self.engine_kind = kind
        self.engine_reason = reason
        self.width = default_width(kind) if width is None else width
        self.max_workers = max_workers or os.cpu_count() or 1
        self.crossover = (
            default_crossover(kind) if crossover is None else crossover
        )
        self.retry = retry or DEFAULT_RETRY_POLICY
        self.chunk_timeout = chunk_timeout
        self.serial = create_engine(kind, circuit, width=self.width)
        #: Backoff sleeper; tests substitute a recorder.
        self._sleep: Callable[[float], None] = time.sleep
        #: Engine used by the last :meth:`run` call: "serial" or "parallel".
        self.last_engine: str = "serial"
        #: Worker count of the last parallel run (1 when serial).
        self.last_workers: int = 1
        #: Why the last run degraded (chunk failures, timeouts, pool loss),
        #: e.g. ``"ChaosInjectedError: ..."``; None for a clean run.
        self.last_degraded_reason: str | None = None
        #: Chunk re-submissions to a pool after a transient failure.
        self.last_chunk_retries: int = 0
        #: Pool-completed chunks kept while other chunks failed.
        self.last_chunks_salvaged: int = 0
        #: Chunks recovered by the in-process serial engine.
        self.last_chunks_serial: int = 0
        #: Classified failures observed during the last run.
        self.last_failures: list[ChunkFailure] = []

    def engine_info(self) -> dict[str, object]:
        """Engine descriptor of the last run, for run manifests.

        ``kind`` is the resolved registry engine (python/numpy),
        ``requested`` the original ``engine=`` request and ``reason`` the
        registry's resolution note — an ``auto`` run always records which
        kernel it picked and why.  ``engine`` stays the serial/parallel
        execution mode for backward manifest compatibility.
        """
        return {
            "engine": self.last_engine,
            "kind": self.engine_kind,
            "requested": self.requested_engine,
            "reason": self.engine_reason,
            "word_width": self.width,
            "workers": self.last_workers,
            "crossover": self.crossover,
            "degraded": self.last_degraded_reason is not None,
            "degraded_reason": self.last_degraded_reason,
            "chunk_retries": self.last_chunk_retries,
            "chunks_salvaged": self.last_chunks_salvaged,
            "chunks_serial": self.last_chunks_serial,
        }

    # ------------------------------------------------------------------
    def run(
        self,
        patterns: Sequence[Sequence[int]],
        faults: list[StuckAtFault] | None = None,
        drop_detected: bool = True,
    ) -> FaultSimResult:
        """Fault-simulate ``patterns``, fanning out when the job is big enough."""
        if faults is None:
            faults = full_fault_universe(self.circuit)
        self.last_degraded_reason = None
        self.last_chunk_retries = 0
        self.last_chunks_salvaged = 0
        self.last_chunks_serial = 0
        self.last_failures = []
        workers = min(self.max_workers, max(1, len(faults)))
        work = len(faults) * len(patterns)
        if workers <= 1 or work < self.crossover:
            self.last_engine, self.last_workers = "serial", 1
            return self.serial.run(patterns, faults, drop_detected)
        return self._run_supervised(patterns, faults, drop_detected, workers)

    # ------------------------------------------------------------------
    def _run_supervised(
        self,
        patterns: Sequence[Sequence[int]],
        faults: list[StuckAtFault],
        drop_detected: bool,
        workers: int,
    ) -> FaultSimResult:
        pattern_rows = [list(p) for p in patterns]
        # Stride the partition: cone sizes correlate with list position, so
        # contiguous chunks would load-balance badly.  Striding interleaves
        # cheap and expensive faults; results are order-independent.
        chunks = {i: faults[i::workers] for i in range(workers)}
        plan = chaos.current_plan()

        first_detection: dict[StuckAtFault, int] = {}
        detection_counts: dict[StuckAtFault, int] = {}
        pending = dict(chunks)
        serial_pending: dict[int, list[StuckAtFault]] = {}
        pool_chunks_done = 0
        salvaged = 0
        previous_failures: dict[int, ChunkFailure] = {}

        with obs.span(
            "fault_sim.parallel",
            n_patterns=len(pattern_rows),
            n_faults=len(faults),
            word_width=self.width,
            workers=workers,
        ):
            for attempt in range(self.retry.max_attempts):
                if not pending:
                    break
                if attempt:
                    delay = self.retry.delay(attempt - 1)
                    if delay:
                        self._sleep(delay)
                    obs.inc("resilience.chunk_retries", len(pending))
                    self.last_chunk_retries += len(pending)
                    if obs.events_enabled():
                        for cid in sorted(pending):
                            failure = previous_failures.get(cid)
                            obs.emit(
                                RetryEvent(
                                    point="parallel.chunk",
                                    key=cid,
                                    attempt=attempt,
                                    reason=failure.reason if failure else "",
                                    delay_s=delay,
                                )
                            )
                done, failures = self._pool_round(
                    pattern_rows,
                    pending,
                    drop_detected,
                    attempt,
                    plan,
                    workers,
                    progress=(pool_chunks_done, len(chunks)),
                )
                for cid, (chunk_first, chunk_counts, telemetry) in done.items():
                    first_detection.update(chunk_first)
                    detection_counts.update(chunk_counts)
                    # A chunk leaves ``pending`` the moment it is accepted, so
                    # a later retry round can never merge its telemetry twice.
                    self._merge_chunk_telemetry(telemetry, cid)
                    del pending[cid]
                pool_chunks_done += len(done)
                if failures:
                    # Chunks completed in a round where others failed are
                    # *salvaged*: kept, never discarded or recomputed.
                    salvaged += len(done)
                self.last_failures.extend(failures.values())
                previous_failures = failures
                # Fatal chunks leave the pool-retry rotation: they re-run
                # serially, where the real exception propagates unmasked.
                for cid, failure in failures.items():
                    if failure.kind is FailureKind.FATAL:
                        serial_pending[cid] = pending.pop(cid)

            serial_pending.update(pending)
            if serial_pending:
                with obs.span(
                    "fault_sim.serial_salvage", n_chunks=len(serial_pending)
                ):
                    # ``Any``: the packed shape is engine-specific but always
                    # consumed by the same engine that produced it.
                    groups: Any = self.serial.pack(pattern_rows)
                    for cid in sorted(serial_pending):
                        chunk = serial_pending[cid]
                        chunk_first, chunk_counts = (
                            self.serial._simulate_groups(
                                groups, len(pattern_rows), chunk, drop_detected
                            )
                        )
                        first_detection.update(chunk_first)
                        detection_counts.update(chunk_counts)
                        # The salvage engine leaves counting to us, exactly
                        # like an accepted worker envelope.
                        obs.inc("fault_sim.faults_simulated", len(chunk))
                        if drop_detected:
                            obs.inc("fault_sim.faults_dropped", len(chunk_first))
                        obs.inc(
                            "fault_sim.detections", sum(chunk_counts.values())
                        )
                self.last_chunks_serial = len(serial_pending)

        if self.last_failures:
            self._record_degradation(salvaged, pool_chunks_done, len(chunks))

        self.last_engine = "parallel" if pool_chunks_done else "serial"
        self.last_workers = workers if pool_chunks_done else 1
        obs.set_gauge("fault_sim.workers", self.last_workers)
        obs.set_gauge("fault_sim.word_width", self.width)
        # Run-scoped: counted once for the whole run, never per chunk, so the
        # merged parallel profile matches a serial run of the same job (see
        # RUN_SCOPED_COUNTERS).  Chunk-additive counters arrive via the
        # worker envelopes and the salvage accounting above.
        obs.inc("fault_sim.patterns_applied", len(pattern_rows))
        return FaultSimResult(
            faults=list(faults),
            first_detection=first_detection,
            n_patterns=len(pattern_rows),
            detection_counts=detection_counts,
        )

    def _merge_chunk_telemetry(
        self, telemetry: ChunkTelemetry, chunk_id: int
    ) -> None:
        """Fold one accepted chunk's worker telemetry into the parent.

        Counter deltas merge additively, except the run-scoped names in
        :data:`RUN_SCOPED_COUNTERS` which the parent counts itself.  Worker
        span trees are rebuilt and attached under the currently-open parent
        span (``fault_sim.parallel``), tagged with the worker pid and chunk
        id so reports and the Chrome exporter can lane them per process.
        """
        if not telemetry:
            return
        registry = obs.registry()
        if registry is not None:
            registry.merge_counter_deltas(
                telemetry.get("counters", {}), skip=RUN_SCOPED_COUNTERS
            )
        collector = obs.collector()
        if collector is not None:
            for record in telemetry.get("spans", []):
                span = Span.from_record(record)
                span.attributes.setdefault(
                    "worker_pid", telemetry.get("worker_pid")
                )
                span.attributes["chunk_id"] = chunk_id
                collector.attach(span)

    def _record_degradation(
        self, salvaged: int, pool_chunks_done: int, n_chunks: int
    ) -> None:
        """Count, name and warn about a degraded (but completed) run."""
        head = self.last_failures[0]
        extra = len(self.last_failures) - 1
        reason = head.reason if not extra else f"{head.reason} (+{extra} more)"
        self.last_degraded_reason = reason
        self.last_chunks_salvaged = salvaged
        obs.inc("resilience.degraded_runs")
        obs.inc("resilience.chunks_salvaged", salvaged)
        message = (
            f"parallel fault simulation degraded ({reason}): "
            f"salvaged {salvaged}/{n_chunks} chunks from the pool, "
            f"re-ran {self.last_chunks_serial} serially, "
            f"{self.last_chunk_retries} chunk retries"
        )
        if not pool_chunks_done:
            message += "; falling back to the serial engine"
        warnings.warn(message, RuntimeWarning, stacklevel=4)

    # ------------------------------------------------------------------
    def _pool_round(
        self,
        pattern_rows: list[list[int]],
        pending: dict[int, list[StuckAtFault]],
        drop_detected: bool,
        attempt: int,
        plan: chaos.ChaosPlan | None,
        workers: int,
        progress: tuple[int, int] = (0, 0),
    ) -> tuple[
        dict[
            int,
            tuple[
                dict[StuckAtFault, int],
                dict[StuckAtFault, int],
                ChunkTelemetry,
            ],
        ],
        dict[int, ChunkFailure],
    ]:
        """Run ``pending`` chunks in one (fresh) pool; classify what failed.

        ``progress`` is ``(chunks_done_before_this_round, total_chunks)``,
        used to publish per-chunk :class:`~repro.obs.events.ProgressEvent`\\ s
        with run-wide completion counts.
        """
        from concurrent.futures import Future, ProcessPoolExecutor, wait

        results: dict[
            int,
            tuple[
                dict[StuckAtFault, int],
                dict[StuckAtFault, int],
                ChunkTelemetry,
            ],
        ] = {}
        failures: dict[int, ChunkFailure] = {}
        chunks_done, total_chunks = progress
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(workers, len(pending)),
                initializer=_init_worker,
                initargs=(
                    self.circuit,
                    self.width,
                    pattern_rows,
                    plan,
                    obs.is_enabled(),
                    self.engine_kind,
                ),
            )
        except Exception as exc:  # pool never started: every chunk fails
            obs.inc("fault_sim.pool_failures")
            obs.inc(f"fault_sim.pool_failure.{type(exc).__name__}")
            for cid in pending:
                failures[cid] = classify_failure(exc, cid)
            return results, failures

        timed_out = False
        try:
            futures: dict[Future, int] = {}
            submitted_at: dict[int, float] = {}
            submit_failure: BaseException | None = None
            for cid, chunk in sorted(pending.items()):
                try:
                    future = pool.submit(
                        _simulate_chunk, chunk, drop_detected, cid, attempt
                    )
                except Exception as exc:  # pool broke while submitting
                    submit_failure = exc
                    failures[cid] = classify_failure(exc, cid)
                    continue
                futures[future] = cid
                submitted_at[cid] = time.perf_counter()
            if submit_failure is not None:
                obs.inc("fault_sim.pool_failures")
                obs.inc(f"fault_sim.pool_failure.{type(submit_failure).__name__}")

            deadline = (
                None
                if self.chunk_timeout is None
                else time.monotonic() + self.chunk_timeout
            )
            not_done = set(futures)
            while not_done:
                remaining: float | None = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        timed_out = True
                        for future in not_done:
                            future.cancel()
                            cid = futures[future]
                            failures[cid] = ChunkFailure(
                                chunk_id=cid,
                                kind=FailureKind.TRANSIENT,
                                reason=(
                                    f"ChunkTimeoutError: chunk {cid} exceeded "
                                    f"{self.chunk_timeout}s deadline"
                                ),
                                exception_type="ChunkTimeoutError",
                            )
                        obs.inc("resilience.chunk_timeouts", len(not_done))
                        break
                done, not_done = wait(not_done, timeout=remaining)
                for future in done:
                    cid = futures[future]
                    try:
                        results[cid] = future.result()
                    except Exception as exc:
                        failures[cid] = classify_failure(exc, cid)
                        obs.inc(
                            f"resilience.chunk_failure.{type(exc).__name__}"
                        )
                        continue
                    chunks_done += 1
                    if obs.events_enabled():
                        telemetry = results[cid][2]
                        obs.emit(
                            ProgressEvent(
                                stage="fault_sim.parallel",
                                completed=chunks_done,
                                total=total_chunks or None,
                                unit="chunks",
                                data={
                                    "chunk_id": cid,
                                    "latency_s": time.perf_counter()
                                    - submitted_at[cid],
                                    "workers": workers,
                                    "worker_pid": (
                                        telemetry.get("worker_pid")
                                        if telemetry
                                        else None
                                    ),
                                },
                            )
                        )
        finally:
            # A hung pool is abandoned (workers keep running until their
            # current task returns); a healthy or broken one joins cleanly.
            pool.shutdown(wait=not timed_out, cancel_futures=timed_out)
        return results, failures
