"""Run manifests: one diffable JSON-lines record of an experiment run.

A manifest captures everything needed to compare two runs of the pipeline —
which configuration ran (and its hash), on which code (``git describe``),
where the time went (stage timings from the span collector), what the
instruments counted, and what came out (fitted ``(R, theta_max)``, final
``T``/``theta``/``DL``).

Serialisation is JSON-lines: the first line is the ``manifest`` record, then
one ``span`` line per top-level span and one ``metrics`` line with the
instrument snapshot.  Line-oriented records make trace files appendable
(many runs in one file) and mineable with standard tools.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import subprocess
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import TraceCollector

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RETIRED_FIELDS",
    "RunManifest",
    "config_to_dict",
    "config_hash",
    "git_describe",
    "read_manifests",
]

MANIFEST_SCHEMA_VERSION = 1

#: Fields deleted from a configuration dataclass, keyed by the dataclass's
#: name, with the value every configuration carried before the deletion.
#: :func:`config_to_dict` keeps emitting them, so config hashes (campaign
#: job ids, result-store keys) do not move when a field goes.  Append
#: entries; never edit or remove one.
RETIRED_FIELDS: Mapping[str, Mapping[str, object]] = MappingProxyType(
    {
        "ExperimentConfig": MappingProxyType(
            {
                # Recursive learning left the redundancy prover; its depth
                # was 2.
                "prover_depth": 2,
                # The stuck-at stage lost its engine registry and process
                # pool; it always runs the numpy kernel at its default width.
                "engine": "auto",
                "word_width": None,
                "fault_sim_workers": None,
                "fault_sim_retries": None,
                "chunk_timeout": None,
                # The certified redundancy prover is the only static
                # analysis; the screen-only and analysis-off paths are gone.
                "static_analysis": True,
                "prove_redundancy": True,
            }
        ),
    }
)


def _jsonable(value: object) -> object:
    """Best-effort conversion to a JSON-serialisable value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return repr(value)


def config_to_dict(config: object) -> dict[str, object]:
    """Flatten a (dataclass) configuration into JSON-able key/values.

    A dataclass also emits its :data:`RETIRED_FIELDS` at their historical
    values.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        out = {
            f.name: _jsonable(getattr(config, f.name))
            for f in dataclasses.fields(config)
        }
        out.update(RETIRED_FIELDS.get(type(config).__name__, {}))
        return out
    if isinstance(config, dict):
        return {str(k): _jsonable(v) for k, v in config.items()}
    raise TypeError(f"cannot serialise config of type {type(config).__name__}")


def config_hash(config: object) -> str:
    """Stable short hash identifying a configuration (for run diffing)."""
    payload = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@functools.cache
def git_describe(cwd: str | None = None) -> str | None:
    """``git describe --always --dirty`` of the working tree, or None.

    Resolved once per process and directory: the value describes the code
    the process imported, and every manifest (one per campaign job) would
    otherwise start a ``git`` subprocess of its own.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            capture_output=True,
            text=True,
            timeout=5.0,
            cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


@dataclass
class RunManifest:
    """All the facts of one pipeline run, ready to serialise."""

    benchmark: str
    config: dict[str, object] = field(default_factory=dict)
    config_hash: str = ""
    seed: int | None = None
    git: str | None = None
    cache: str | None = None  # "hit" | "miss" | None (not recorded)
    #: Stuck-at fault-simulation engine descriptor: kind and word width.
    #: Empty when not recorded.
    engine: dict[str, object] = field(default_factory=dict)
    #: span name -> cumulative wall seconds.
    stage_timings: dict[str, float] = field(default_factory=dict)
    #: Top-level span trees (nested records).
    spans: list[dict] = field(default_factory=list)
    metrics: dict[str, dict] = field(default_factory=dict)
    #: Fitted and measured outcomes: R, theta_max, final T / theta / DL, ...
    results: dict[str, object] = field(default_factory=dict)
    schema: int = MANIFEST_SCHEMA_VERSION

    # -- construction -------------------------------------------------------
    @classmethod
    def from_run(
        cls,
        config: object,
        collector: "TraceCollector | None" = None,
        registry: "MetricsRegistry | None" = None,
        results: dict[str, object] | None = None,
        cache: str | None = None,
        engine: dict[str, object] | None = None,
    ) -> "RunManifest":
        """Assemble a manifest from a config and the observability state."""
        config_d = config_to_dict(config)
        manifest = cls(
            benchmark=str(config_d.get("benchmark", "?")),
            config=config_d,
            config_hash=config_hash(config),
            seed=config_d.get("seed") if isinstance(config_d.get("seed"), int) else None,
            git=git_describe(),
            cache=cache,
            engine=_jsonable(engine or {}),
            results=_jsonable(results or {}),
        )
        if collector is not None:
            manifest.stage_timings = {
                name: round(seconds, 6)
                for name, seconds in sorted(collector.stage_timings().items())
            }
            manifest.spans = [root.to_record() for root in collector.roots]
        if registry is not None:
            manifest.metrics = registry.snapshot()
        return manifest

    # -- serialisation ------------------------------------------------------
    def to_records(self) -> list[dict]:
        """The JSON-lines records: manifest first, then spans, then metrics."""
        records: list[dict] = [
            {
                "type": "manifest",
                "schema": self.schema,
                "benchmark": self.benchmark,
                "config": self.config,
                "config_hash": self.config_hash,
                "seed": self.seed,
                "git": self.git,
                "cache": self.cache,
                "engine": self.engine,
                "stage_timings": self.stage_timings,
                "results": self.results,
            }
        ]
        records.extend({"type": "span", **span} for span in self.spans)
        if self.metrics:
            records.append({"type": "metrics", **self.metrics})
        return records

    def write(self, path: str, append: bool = True) -> int:
        """Serialise to ``path`` as JSON-lines; returns the record count."""
        records = self.to_records()
        mode = "a" if append else "w"
        with open(path, mode, encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    @classmethod
    def from_records(cls, records: list[dict]) -> "RunManifest":
        """Rebuild a manifest from parsed JSON-lines records.

        Sections older writers recorded and this schema dropped (the
        dashboard's ``curves``, ``attribution``, the retired per-stage
        ``resilience`` record) are ignored.
        """
        head = next(r for r in records if r.get("type") == "manifest")
        manifest = cls(
            benchmark=head.get("benchmark", "?"),
            config=head.get("config", {}),
            config_hash=head.get("config_hash", ""),
            seed=head.get("seed"),
            git=head.get("git"),
            cache=head.get("cache"),
            engine=head.get("engine", {}),
            stage_timings=head.get("stage_timings", {}),
            results=head.get("results", {}),
            schema=head.get("schema", MANIFEST_SCHEMA_VERSION),
        )
        manifest.spans = [
            {k: v for k, v in r.items() if k != "type"}
            for r in records
            if r.get("type") == "span"
        ]
        metrics = [r for r in records if r.get("type") == "metrics"]
        if metrics:
            manifest.metrics = {
                k: v for k, v in metrics[-1].items() if k != "type"
            }
        return manifest


def read_manifests(path: str) -> list[RunManifest]:
    """Parse every manifest in a JSON-lines trace file (appended runs ok).

    Corrupt or truncated lines — the torn final record of a run killed
    mid-write is the common case — are skipped with a :class:`RuntimeWarning`
    naming the line number, so one bad record never makes a whole history
    file unreadable.
    """
    groups: list[list[dict]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                warnings.warn(
                    f"{path}:{lineno}: skipping corrupt/truncated manifest "
                    f"record ({exc})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if not isinstance(record, dict):
                warnings.warn(
                    f"{path}:{lineno}: skipping non-record JSON line "
                    f"({type(record).__name__})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            if record.get("type") == "manifest" or not groups:
                groups.append([])
            groups[-1].append(record)
    return [
        RunManifest.from_records(group)
        for group in groups
        if any(r.get("type") == "manifest" for r in group)
    ]
