"""Content-addressed campaign results keyed by experiment-configuration hash.

A :class:`ResultStore` persists one canonical **result record** per job
under ``<root>/<job_id>/result.json`` with an atomic, digest-verified file
discipline: writes publish via temp-file + ``os.replace``, loads verify
payload size and SHA-256 before anything is trusted.  Because the job id *is* the config
hash, any re-submitted or overlapping sweep that expands to a job already in
the store is served from cache — zero fault simulation — and served
**bit-identically**: the record stores only deterministic outputs of
:func:`repro.experiments.run_experiment` (series, fit, detection digests),
never wall-clock facts.

:func:`result_record` defines that canonical record;
:func:`ResultStore.prune` is the unbounded-growth valve used by
``python -m repro campaign gc``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import warnings
from pathlib import Path

from repro import obs
from repro.experiments.pipeline import ExperimentResult

__all__ = [
    "ResultStore",
    "ResultCorruptError",
    "result_record",
    "record_sha256",
    "dir_size_bytes",
]

_RESULT_MAGIC = "repro-campaign-result/1"


class ResultCorruptError(Exception):
    """A stored result failed its integrity check."""


def record_sha256(record: dict) -> str:
    """Digest of a result record's canonical JSON form."""
    blob = json.dumps(record, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def result_record(result: ExperimentResult) -> dict:
    """The canonical, deterministic record of one experiment run.

    Bit-identical across processes and across resume/recompute paths: it
    contains only values derived from the (deterministic) pipeline outputs —
    no wall-clock timings, no pids, no environment.  The per-fault detection
    maps are folded into digests so records stay small while still proving
    two runs detected exactly the same faults at exactly the same vectors.
    """
    fit = result.fit()
    stuck = result.stuck_result
    detection_blob = json.dumps(
        sorted((repr(f), k) for f, k in stuck.first_detection.items())
    )
    counts_blob = json.dumps(
        sorted((repr(f), n) for f, n in stuck.detection_counts.items())
    )
    return {
        "magic": _RESULT_MAGIC,
        "benchmark": result.config.benchmark,
        "seed": result.config.seed,
        "n_patterns": len(result.test_patterns),
        "n_random": result.n_random,
        "n_stuck_faults": len(result.stuck_faults),
        "n_redundant": len(result.redundant_faults),
        "n_untestable_static": len(result.static_untestable),
        "series": [
            [k, t, theta, gamma, dl]
            for k, t, theta, gamma, dl in result.series()
        ],
        "final_T": result.final_T,
        "final_theta": result.theta_at(result.sample_ks[-1]),
        "final_DL": result.dl_at(result.sample_ks[-1]),
        "R": fit.susceptibility_ratio,
        "theta_max_fit": fit.theta_max,
        "fit_residual": fit.residual,
        "theta_max_measured": result.theta_max,
        "first_detection_sha256": hashlib.sha256(
            detection_blob.encode()
        ).hexdigest(),
        "detection_counts_sha256": hashlib.sha256(
            counts_blob.encode()
        ).hexdigest(),
    }


def dir_size_bytes(path: Path) -> int:
    """Total size of every regular file under ``path``."""
    total = 0
    for entry in path.rglob("*"):
        try:
            if entry.is_file():
                total += entry.stat().st_size
        except OSError:
            continue
    return total


class ResultStore:
    """Atomic, digest-verified result files keyed by job (config) hash."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OSError(
                f"cannot create result store {self.root}: {exc}"
            ) from exc

    def path_for(self, job_id: str) -> Path:
        return self.root / job_id / "result.json"

    def has(self, job_id: str) -> bool:
        """True when a result file exists for ``job_id`` (unverified)."""
        return self.path_for(job_id).exists()

    def job_ids(self) -> list[str]:
        """Every job hash with a result file, sorted."""
        return sorted(
            p.parent.name for p in self.root.glob("*/result.json")
        )

    # ------------------------------------------------------------------
    def save(self, job_id: str, record: dict) -> str:
        """Atomically persist ``record``; returns its canonical sha256."""
        sha = record_sha256(record)
        blob = json.dumps(record, sort_keys=True)
        envelope = json.dumps(
            {
                "magic": _RESULT_MAGIC,
                "job_id": job_id,
                "payload_sha256": sha,
                "payload_size": len(blob),
                "record": record,
            },
            sort_keys=True,
        )
        path = self.path_for(job_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(envelope + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise OSError(f"cannot write result {path}: {exc}") from exc
        obs.inc("campaign.results_saved")
        return sha

    def load(self, job_id: str) -> dict | None:
        """The verified result record for ``job_id``, or None when absent.

        A corrupt file is warned about, counted
        (``campaign.results_corrupt``), and treated as missing so the job
        recomputes.
        """
        path = self.path_for(job_id)
        try:
            text = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise OSError(f"cannot read result {path}: {exc}") from exc
        try:
            return self._decode(job_id, text)
        except ResultCorruptError as exc:
            warnings.warn(
                f"discarding corrupt result for job {job_id} ({exc}); "
                "the job will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )
            obs.inc("campaign.results_corrupt")
            return None

    def _decode(self, job_id: str, text: str) -> dict:
        path = self.path_for(job_id)
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ResultCorruptError(f"{path}: unparsable envelope") from exc
        if (
            not isinstance(envelope, dict)
            or envelope.get("magic") != _RESULT_MAGIC
        ):
            raise ResultCorruptError(f"{path}: bad result magic")
        if envelope.get("job_id") != job_id:
            raise ResultCorruptError(
                f"{path}: envelope names job {envelope.get('job_id')!r}, "
                f"expected {job_id!r}"
            )
        record = envelope.get("record")
        if not isinstance(record, dict):
            raise ResultCorruptError(f"{path}: missing record")
        blob = json.dumps(record, sort_keys=True)
        if len(blob) != envelope.get("payload_size"):
            raise ResultCorruptError(
                f"{path}: payload is {len(blob)} bytes, envelope says "
                f"{envelope.get('payload_size')}"
            )
        if record_sha256(record) != envelope.get("payload_sha256"):
            raise ResultCorruptError(f"{path}: payload digest mismatch")
        obs.inc("campaign.results_loaded")
        return record

    # ------------------------------------------------------------------
    def prune(self, keep_hashes: set[str] | frozenset[str]) -> tuple[int, int]:
        """Delete result directories whose hash is not in ``keep_hashes``.

        Returns ``(directories_removed, bytes_reclaimed)``.  Only
        directories that actually hold a ``result.json`` are candidates —
        anything else under the root is left alone.
        """
        removed = 0
        reclaimed = 0
        for path in sorted(self.root.glob("*/result.json")):
            job_dir = path.parent
            if job_dir.name in keep_hashes:
                continue
            reclaimed += dir_size_bytes(job_dir)
            shutil.rmtree(job_dir, ignore_errors=True)
            removed += 1
        return removed, reclaimed
