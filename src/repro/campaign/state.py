"""Campaign state, reconstructed exactly from the journal.

The journal records a campaign's *transitions*; :class:`CampaignState`
replays them into the current truth.  The state machine per job::

    pending --lease--> leased --done-------> done
       ^                  |---fail(transient, budget left)--> pending
       |                  |---fail(fatal) / budget spent----> quarantined
       +-----reclaim------+        (lease expired / supervisor crashed)

Replay is a pure fold over records — no clocks, no filesystem — which is
what makes the crash-prefix property provable: state after replaying a
journal prefix equals state after applying exactly the acknowledged
records in that prefix.  Leases do not survive a supervisor restart: a
``leased`` job with no terminal record is folded back to ``pending`` by
:meth:`CampaignState.release_dead_leases` when a resume begins (the worker
holding it is gone with the crashed process).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.journal import Journal, JournalCorruptError
from repro.campaign.spec import CampaignSpec, JobSpec, config_from_dict

__all__ = [
    "JobState",
    "CampaignState",
    "campaign_record",
    "PENDING",
    "LEASED",
    "DONE",
    "QUARANTINED",
]

PENDING = "pending"
LEASED = "leased"
DONE = "done"
QUARANTINED = "quarantined"


@dataclass
class JobState:
    """Everything the journal knows about one job."""

    job_id: str
    config: dict[str, object]
    priority: int = 0
    max_attempts: int = 2
    status: str = PENDING
    #: Leases granted so far (attempt numbers are 0-based lease indices).
    attempts: int = 0
    #: True when the result was served from the content-addressed store.
    cached: bool = False
    #: sha256 of the canonical result record, once done.
    result_sha: str | None = None
    last_error: str | None = None
    lease_id: str | None = None


@dataclass
class CampaignState:
    """The replayed truth of one campaign."""

    name: str = "campaign"
    jobs: dict[str, JobState] = field(default_factory=dict)
    #: Deterministic scheduling order (highest priority first) fixed by the
    #: campaign record; resume preserves it.
    job_order: list[str] = field(default_factory=list)
    stopped: bool = False
    stop_reason: str | None = None
    finished: bool = False
    last_seq: int = -1

    # -- queries --------------------------------------------------------
    def pending_jobs(self) -> list[JobState]:
        """Jobs still runnable, in scheduling order."""
        return [
            self.jobs[job_id]
            for job_id in self.job_order
            if self.jobs[job_id].status == PENDING
        ]

    def counts(self) -> dict[str, int]:
        totals = {PENDING: 0, LEASED: 0, DONE: 0, QUARANTINED: 0}
        for job in self.jobs.values():
            totals[job.status] += 1
        return totals

    @property
    def complete(self) -> bool:
        """True when no job can make further progress."""
        return all(
            job.status in (DONE, QUARANTINED) for job in self.jobs.values()
        )

    @property
    def stopped_before_start(self) -> bool:
        """True for a journal holding a ``stop`` but no jobs at all.

        A clean SIGINT can land before any campaign record is journalled
        (``campaign run`` interrupted while loading the spec): the journal
        then holds only the stop record, which must read as "stopped before
        start", not as an empty campaign.
        """
        return self.stopped and not self.jobs

    # -- construction ---------------------------------------------------
    @classmethod
    def load(cls, journal: Journal) -> "CampaignState":
        """Reconstruct state by replaying every journal record."""
        return cls.from_records(*journal.replay())

    @classmethod
    def from_records(cls, records: list[dict], last_seq: int) -> "CampaignState":
        """Fold replayed records (:meth:`Journal.replay`'s output) into state."""
        state = cls()
        for record in records:
            state.apply(record)
        state.last_seq = last_seq
        return state

    def release_dead_leases(self) -> dict[str, str | None]:
        """Fold crash-orphaned leases back to pending (resume entry point).

        A lease only exists inside one supervisor process; after a crash the
        journal still says ``leased`` but no worker holds the job.  The
        lease attempt stays counted — a job that keeps crashing its
        supervisor still exhausts its retry budget eventually.  Returns the
        released lease id per job id, in job-id order.
        """
        released = {}
        for job in self.jobs.values():
            if job.status == LEASED:
                released[job.job_id] = job.lease_id
                job.status = PENDING
                job.lease_id = None
        return dict(sorted(released.items()))

    # -- the fold -------------------------------------------------------
    def apply(self, record: dict) -> None:
        """Apply one journal record to the state."""
        kind = record.get("type")
        if kind == "campaign":
            self.name = str(record.get("name", self.name))
            for entry in record.get("jobs", []):
                job_id = str(entry["job_id"])
                if job_id in self.jobs:
                    # Overlapping re-registration (resubmitted spec):
                    # strengthen, never reset progress.
                    job = self.jobs[job_id]
                    job.priority = max(job.priority, int(entry.get("priority", 0)))
                    job.max_attempts = max(
                        job.max_attempts, int(entry.get("max_attempts", 1))
                    )
                else:
                    self.jobs[job_id] = JobState(
                        job_id=job_id,
                        config=dict(entry["config"]),
                        priority=int(entry.get("priority", 0)),
                        max_attempts=int(entry.get("max_attempts", 2)),
                    )
                    self.job_order.append(job_id)
            self.finished = False
        elif kind == "lease":
            job = self._job(record)
            job.status = LEASED
            job.attempts = int(record.get("attempt", job.attempts)) + 1
            job.lease_id = str(record.get("lease_id"))
        elif kind == "done":
            job = self._job(record)
            job.status = DONE
            job.cached = bool(record.get("cached", False))
            job.result_sha = record.get("result_sha")
            job.lease_id = None
        elif kind == "fail":
            job = self._job(record)
            job.status = PENDING
            job.last_error = str(record.get("reason", ""))
            job.lease_id = None
        elif kind == "quarantine":
            job = self._job(record)
            job.status = QUARANTINED
            job.last_error = str(record.get("reason", job.last_error or ""))
            job.lease_id = None
        elif kind == "reclaim":
            job = self._job(record)
            job.status = PENDING
            job.last_error = str(record.get("reason", ""))
            job.lease_id = None
        elif kind == "stop":
            self.stopped = True
            self.stop_reason = str(record.get("reason", ""))
        elif kind == "end":
            self.finished = True
            self.stopped = False
            self.stop_reason = None
        else:
            raise JournalCorruptError(
                f"unknown journal record type {kind!r}"
            )

    def _job(self, record: dict) -> JobState:
        job_id = str(record.get("job"))
        try:
            return self.jobs[job_id]
        except KeyError:
            raise JournalCorruptError(
                f"journal references unknown job {job_id!r}"
            ) from None

    # -- spec glue ------------------------------------------------------
    def job_spec(self, job_id: str) -> JobSpec:
        """Rebuild the runnable :class:`JobSpec` for one journalled job."""
        job = self.jobs[job_id]
        return JobSpec(
            job_id=job.job_id,
            config=config_from_dict(dict(job.config)),
            priority=job.priority,
            max_attempts=job.max_attempts,
        )


def campaign_record(spec: CampaignSpec, jobs: list[JobSpec]) -> dict:
    """The journal record registering a campaign and its expanded jobs."""
    return {
        "type": "campaign",
        "name": spec.name,
        "spec": spec.to_dict(),
        "jobs": [
            {
                "job_id": job.job_id,
                "config": job.config_dict(),
                "priority": job.priority,
                "max_attempts": job.max_attempts,
            }
            for job in jobs
        ],
    }
