"""Crash-safe campaign layer: durable multi-experiment orchestration.

One campaign = one directory = one write-ahead journal.  The package treats
:func:`repro.experiments.run_experiment` as its unit of work and layers on:

* :mod:`repro.campaign.spec` — a config sweep expanded into jobs identified
  by configuration hash (:class:`CampaignSpec`, :class:`JobSpec`);
* :mod:`repro.campaign.journal` — the sha256-framed append-only journal with
  torn-tail-tolerant replay (:class:`Journal`), the campaign's only state;
* :mod:`repro.campaign.state` — exact state reconstruction by replaying the
  whole journal (:class:`CampaignState`);
* :mod:`repro.campaign.store` — the content-addressed result store that
  serves re-submitted sweeps from cache (:class:`ResultStore`);
* :mod:`repro.campaign.supervisor` — the leased, heartbeat-monitored
  process-pool scheduler (:class:`CampaignSupervisor`), which retries
  transient failures and quarantines fatal ones;
* :mod:`repro.campaign.chaos` — deterministic failure injection at the
  campaign's named points, so every recovery path is exercised by tests;
* :mod:`repro.campaign.cli` — ``python -m repro campaign run|resume|status|
  trace|gc``.

See ``docs/CAMPAIGN.md`` for the design rationale and crash matrix.
"""

from repro.campaign.journal import (
    Journal,
    JournalCorruptError,
    JournalError,
)
from repro.campaign.spec import (
    CampaignSpec,
    CampaignSpecError,
    JobSpec,
    config_from_dict,
    load_spec,
)
from repro.campaign.state import CampaignState, JobState, campaign_record
from repro.campaign.store import (
    ResultCorruptError,
    ResultStore,
    record_sha256,
    result_record,
)
from repro.campaign.supervisor import CampaignReport, CampaignSupervisor

__all__ = [
    "CampaignSpec",
    "CampaignSpecError",
    "JobSpec",
    "config_from_dict",
    "load_spec",
    "Journal",
    "JournalError",
    "JournalCorruptError",
    "CampaignState",
    "JobState",
    "campaign_record",
    "ResultStore",
    "ResultCorruptError",
    "result_record",
    "record_sha256",
    "CampaignSupervisor",
    "CampaignReport",
]
