"""The campaign job model: a config sweep expanded into addressable jobs.

A :class:`CampaignSpec` describes *many* experiments as one base
:class:`~repro.experiments.ExperimentConfig` plus deltas — a ``grid`` (the
cartesian product of per-field value lists) and/or an explicit ``jobs`` list
of per-job overrides.  :meth:`CampaignSpec.expand` materialises the sweep
into :class:`JobSpec` units of work, each identified by the **config hash**
(:func:`repro.obs.manifest.config_hash`) of its expanded configuration — the
same key the checkpoint store and run manifests already use.  Content
addressing is what makes the campaign layer idempotent: re-submitting an
overlapping sweep re-derives the same job ids, and any job whose id is
already in the result store is served from cache instead of recomputed.

Specs are plain JSON on disk (see :func:`load_spec`)::

    {
      "name": "seed-sweep",
      "base": {"benchmark": "c17", "max_random_patterns": 64},
      "grid": {"seed": [1, 2, 3], "target_yield": [0.75, 0.9]},
      "jobs": [{"seed": 99, "priority": 5}],
      "priority": 0,
      "max_attempts": 2
    }

Every scalar ``ExperimentConfig`` field is sweepable; ``statistics`` (a
nested object with no JSON form) is not.  Per-job ``priority`` and
``max_attempts`` ride alongside the config delta and are stripped before the
configuration is built, so they never perturb the job id.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field

from repro.experiments import ExperimentConfig
from repro.obs.manifest import RETIRED_FIELDS, config_hash, config_to_dict

__all__ = [
    "CampaignSpecError",
    "JobSpec",
    "CampaignSpec",
    "SWEEPABLE_FIELDS",
    "config_from_dict",
    "load_spec",
]


class CampaignSpecError(ValueError):
    """A campaign spec that cannot be expanded into valid jobs."""


#: ``ExperimentConfig`` fields a spec may set or sweep.  ``statistics`` is a
#: nested dataclass with no JSON representation, so it is excluded: campaign
#: jobs always run with the default defect statistics.
SWEEPABLE_FIELDS: frozenset[str] = frozenset(
    f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "statistics"
)

#: Deleted ``ExperimentConfig`` fields and their historical values.  Every
#: stored config dict still carries them (see ``RETIRED_FIELDS``); a spec may
#: give one only at that value.
_RETIRED = RETIRED_FIELDS["ExperimentConfig"]

#: Keys of a ``jobs`` list entry that configure the *job*, not the
#: experiment; stripped before the config delta is applied.
_JOB_KEYS = frozenset({"priority", "max_attempts"})


def config_from_dict(fields: dict[str, object]) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a flat JSON dictionary.

    The inverse of :func:`repro.obs.manifest.config_to_dict` for campaign
    configurations (``statistics`` restricted to None).  Unknown keys and
    invalid values raise :class:`CampaignSpecError` with the offending name —
    a spec typo fails at submission, never mid-campaign.  Retired fields are
    accepted at their historical value and dropped.
    """
    for name, value in _RETIRED.items():
        if name in fields and fields[name] != value:
            raise CampaignSpecError(
                f"{name} is a retired field; only its historical value "
                f"{value!r} is accepted, got {fields[name]!r}"
            )
    unknown = sorted(
        set(fields) - SWEEPABLE_FIELDS - set(_RETIRED) - {"statistics"}
    )
    if unknown:
        raise CampaignSpecError(
            f"unknown ExperimentConfig field(s): {', '.join(unknown)} "
            f"(sweepable: {', '.join(sorted(SWEEPABLE_FIELDS))})"
        )
    if fields.get("statistics") is not None:
        raise CampaignSpecError(
            "campaign jobs cannot carry custom defect statistics; "
            "omit the 'statistics' field"
        )
    kwargs = {
        k: v for k, v in fields.items() if k != "statistics" and k not in _RETIRED
    }
    try:
        return ExperimentConfig(**kwargs)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise CampaignSpecError(f"invalid experiment configuration: {exc}") from exc


@dataclass(frozen=True)
class JobSpec:
    """One unit of campaign work: a fully-expanded experiment configuration.

    Attributes
    ----------
    job_id:
        The configuration hash — the job's identity in the journal, the
        result store, the checkpoint store and the run manifests.
    config:
        The expanded configuration the job runs.
    priority:
        Scheduling priority; higher runs first (ties break on job id).
    max_attempts:
        Total lease attempts before a transiently-failing job is
        quarantined (fatal failures quarantine immediately).
    """

    job_id: str
    config: ExperimentConfig
    priority: int = 0
    max_attempts: int = 2

    @classmethod
    def for_config(
        cls, config: ExperimentConfig, priority: int = 0, max_attempts: int = 2
    ) -> "JobSpec":
        return cls(
            job_id=config_hash(config),
            config=config,
            priority=priority,
            max_attempts=max_attempts,
        )

    def config_dict(self) -> dict[str, object]:
        """The JSON form of the job's configuration (journal payload)."""
        return config_to_dict(self.config)


@dataclass(frozen=True)
class CampaignSpec:
    """A named config sweep: base config, grid, explicit deltas, defaults."""

    name: str = "campaign"
    base: ExperimentConfig = field(default_factory=ExperimentConfig)
    #: Field name -> values; jobs are the cartesian product over all fields.
    grid: dict[str, tuple] = field(default_factory=dict)
    #: Explicit per-job deltas (may carry ``priority`` / ``max_attempts``).
    jobs: tuple[dict, ...] = field(default_factory=tuple)
    priority: int = 0
    max_attempts: int = 2

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise CampaignSpecError("campaign name must be non-empty")
        if self.max_attempts < 1:
            raise CampaignSpecError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        grid = {k: tuple(v) for k, v in dict(self.grid).items()}
        for name, values in grid.items():
            if name not in SWEEPABLE_FIELDS:
                raise CampaignSpecError(
                    f"grid sweeps unknown field {name!r} "
                    f"(sweepable: {', '.join(sorted(SWEEPABLE_FIELDS))})"
                )
            if not values:
                raise CampaignSpecError(f"grid field {name!r} has no values")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(
            self, "jobs", tuple(dict(j) for j in tuple(self.jobs))
        )
        if not grid and not self.jobs:
            raise CampaignSpecError(
                "spec expands to no jobs: give a grid, a jobs list, or both"
            )

    # ------------------------------------------------------------------
    def expand(self) -> list[JobSpec]:
        """Materialise the sweep into jobs, highest priority first.

        Grid jobs apply each product point to the base config; explicit jobs
        apply their delta (minus the job keys).  Duplicate configurations —
        overlapping grid points and deltas hash identically — collapse to
        one job keeping the highest priority and the largest retry budget
        seen, so an overlapping re-submission can only *strengthen* a job.
        """
        base_dict = config_to_dict(self.base)
        expanded: dict[str, JobSpec] = {}

        def add(delta: dict[str, object], priority: int, max_attempts: int) -> None:
            merged = dict(base_dict)
            merged.pop("statistics", None)
            merged.update(delta)
            job = JobSpec.for_config(
                config_from_dict(merged),
                priority=priority,
                max_attempts=max_attempts,
            )
            previous = expanded.get(job.job_id)
            if previous is not None:
                job = JobSpec(
                    job_id=job.job_id,
                    config=job.config,
                    priority=max(previous.priority, job.priority),
                    max_attempts=max(previous.max_attempts, job.max_attempts),
                )
            expanded[job.job_id] = job

        # Guard the empty grid: product() over zero iterables yields one
        # empty point, which would smuggle the bare base config in as a job.
        if self.grid:
            names = sorted(self.grid)
            for values in itertools.product(*(self.grid[n] for n in names)):
                add(dict(zip(names, values)), self.priority, self.max_attempts)
        for entry in self.jobs:
            extra = {k: v for k, v in entry.items() if k not in _JOB_KEYS}
            priority = int(entry.get("priority", self.priority))
            max_attempts = int(entry.get("max_attempts", self.max_attempts))
            if max_attempts < 1:
                raise CampaignSpecError(
                    f"job max_attempts must be >= 1, got {max_attempts}"
                )
            add(extra, priority, max_attempts)
        return sorted(
            expanded.values(), key=lambda j: (-j.priority, j.job_id)
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """JSON form of the spec (journalled with the campaign record)."""
        return {
            "name": self.name,
            "base": config_to_dict(self.base),
            "grid": {k: list(v) for k, v in sorted(self.grid.items())},
            "jobs": [dict(j) for j in self.jobs],
            "priority": self.priority,
            "max_attempts": self.max_attempts,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "CampaignSpec":
        if not isinstance(payload, dict):
            raise CampaignSpecError(
                f"spec must be a JSON object, got {type(payload).__name__}"
            )
        unknown = sorted(
            set(payload) - {"name", "base", "grid", "jobs", "priority", "max_attempts"}
        )
        if unknown:
            raise CampaignSpecError(f"unknown spec key(s): {', '.join(unknown)}")
        base_fields = payload.get("base", {})
        if not isinstance(base_fields, dict):
            raise CampaignSpecError("spec 'base' must be a JSON object")
        base = config_from_dict(dict(base_fields))
        grid = payload.get("grid", {})
        if not isinstance(grid, dict):
            raise CampaignSpecError("spec 'grid' must be a JSON object")
        jobs = payload.get("jobs", [])
        if not isinstance(jobs, list) or not all(
            isinstance(j, dict) for j in jobs
        ):
            raise CampaignSpecError("spec 'jobs' must be a list of objects")
        return cls(
            name=str(payload.get("name", "campaign")),
            base=base,
            grid={str(k): tuple(v) for k, v in grid.items()},
            jobs=tuple(jobs),
            priority=int(payload.get("priority", 0)),
            max_attempts=int(payload.get("max_attempts", 2)),
        )


def load_spec(path: str) -> CampaignSpec:
    """Parse and validate a campaign spec JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise CampaignSpecError(f"cannot read spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CampaignSpecError(f"spec {path} is not valid JSON: {exc}") from exc
    return CampaignSpec.from_dict(payload)
