"""Per-stage pipeline checkpoints keyed by experiment-configuration hash.

A :class:`CheckpointStore` persists each completed pipeline stage's artifact
under ``<root>/<config_hash>/<stage>.ckpt``, so a run killed at stage *n*
resumes from stage *n* instead of zero.  The config hash
(:func:`repro.obs.manifest.config_hash`) keys the directory: a resumed run
can only ever restore artifacts produced by the *identical* configuration,
which is what makes restore-vs-recompute bit-exact by construction.

File format — built for crash-consistency, not compactness::

    repro-checkpoint/1\\n                 magic + format version
    {"stage": ..., "config_hash": ...,
     "payload_sha256": ..., "payload_size": ...}\\n    JSON header
    <pickle payload>                                  exactly payload_size bytes

Writes go to a temp file in the same directory and are published with
``os.replace``, so a crash mid-write never leaves a half-written file under
the final name.  Loads verify size and SHA-256 before unpickling; a
truncated or corrupt file is **never** silently trusted — in tolerant mode
(the pipeline default) it is reported (``warnings.warn`` + the
``resilience.checkpoints_corrupt`` counter) and treated as missing, in
strict mode (the CLI's ``--resume``) it raises
:class:`~repro.resilience.errors.CheckpointCorruptError`.

The ``checkpoint.save`` chaos point lets tests and the CI chaos-smoke job
deliberately publish truncated/corrupt files to exercise both paths.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import warnings
from pathlib import Path

from repro import obs
from repro.obs.manifest import config_hash, config_to_dict
from repro.resilience import chaos
from repro.resilience.errors import CheckpointCorruptError, CheckpointError

__all__ = ["CheckpointStore", "CHECKPOINT_MAGIC"]

CHECKPOINT_MAGIC = b"repro-checkpoint/1\n"


class CheckpointStore:
    """Stage-artifact store for one experiment configuration.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per configuration hash.
    config:
        The (dataclass) configuration keying this store.
    strict:
        When True, a corrupt/truncated checkpoint raises
        :class:`CheckpointCorruptError`; when False (default) it is warned
        about, counted, and treated as missing so the stage recomputes.
    """

    def __init__(self, root: str | Path, config: object, strict: bool = False):
        self.root = Path(root)
        self.config_hash = config_hash(config)
        self.dir = self.root / self.config_hash
        self.strict = strict
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise CheckpointError(
                f"cannot create checkpoint directory {self.dir}: {exc}"
            ) from exc
        config_file = self.dir / "config.json"
        if not config_file.exists():
            try:
                config_file.write_text(
                    json.dumps(config_to_dict(config), indent=2, sort_keys=True)
                    + "\n",
                    encoding="utf-8",
                )
            except OSError as exc:
                raise CheckpointError(
                    f"checkpoint directory {self.dir} is not writable: {exc}"
                ) from exc

    # ------------------------------------------------------------------
    def path_for(self, stage: str) -> Path:
        return self.dir / f"{stage}.ckpt"

    def has(self, stage: str) -> bool:
        """True when a checkpoint file exists for ``stage`` (unverified)."""
        return self.path_for(stage).exists()

    def stages(self) -> list[str]:
        """Names of every stage with a checkpoint file, sorted."""
        return sorted(p.stem for p in self.dir.glob("*.ckpt"))

    def clear(self) -> None:
        """Delete every checkpoint of this configuration."""
        for path in self.dir.glob("*.ckpt"):
            path.unlink(missing_ok=True)

    @staticmethod
    def prune(
        root: str | Path, keep_hashes: set[str] | frozenset[str]
    ) -> tuple[int, int]:
        """Delete per-config directories under ``root`` not in ``keep_hashes``.

        Returns ``(directories_removed, bytes_reclaimed)``.  Only directories
        that look like checkpoint stores — holding a ``config.json`` or at
        least one ``*.ckpt`` file — are candidates; anything else under the
        root is left alone.  ``python -m repro campaign gc`` uses this to
        reclaim checkpoints whose configuration no longer appears in any
        journal or manifest history.
        """
        import shutil

        root = Path(root)
        removed = 0
        reclaimed = 0
        if not root.is_dir():
            return removed, reclaimed
        for entry in sorted(root.iterdir()):
            if not entry.is_dir() or entry.name in keep_hashes:
                continue
            if not (entry / "config.json").exists() and not any(
                entry.glob("*.ckpt")
            ):
                continue
            for path in entry.rglob("*"):
                try:
                    if path.is_file():
                        reclaimed += path.stat().st_size
                except OSError:
                    continue
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1
        return removed, reclaimed

    # ------------------------------------------------------------------
    def save(self, stage: str, payload: object) -> Path:
        """Atomically persist ``payload`` as the checkpoint of ``stage``."""
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise CheckpointError(
                f"stage {stage!r} payload is not picklable: {exc}"
            ) from exc
        header = json.dumps(
            {
                "stage": stage,
                "config_hash": self.config_hash,
                "payload_sha256": hashlib.sha256(blob).hexdigest(),
                "payload_size": len(blob),
            },
            sort_keys=True,
        ).encode("utf-8")
        data = CHECKPOINT_MAGIC + header + b"\n" + blob

        mangle = chaos.planned_kind("checkpoint.save", key=stage)
        if mangle == "truncate":
            data = data[: max(len(CHECKPOINT_MAGIC), len(data) // 2)]
        elif mangle == "corrupt":
            flip = len(data) - max(1, len(blob) // 2)
            data = data[:flip] + bytes([data[flip] ^ 0xFF]) + data[flip + 1 :]

        path = self.path_for(stage)
        tmp = path.with_suffix(".ckpt.tmp")
        try:
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise CheckpointError(
                f"cannot write checkpoint {path}: {exc}"
            ) from exc
        obs.inc("resilience.checkpoints_saved")
        return path

    def load(self, stage: str) -> object | None:
        """The verified payload of ``stage``, or None when absent.

        Corrupt/truncated files follow the store's strictness (see class
        docstring); an unreadable directory raises :class:`CheckpointError`
        either way.
        """
        path = self.path_for(stage)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        try:
            return self._decode(stage, data)
        except CheckpointCorruptError as exc:
            if self.strict:
                raise
            warnings.warn(
                f"discarding corrupt checkpoint for stage {stage!r} ({exc}); "
                "the stage will be recomputed",
                RuntimeWarning,
                stacklevel=2,
            )
            obs.inc("resilience.checkpoints_corrupt")
            return None

    def _decode(self, stage: str, data: bytes) -> object:
        path = self.path_for(stage)
        if not data.startswith(CHECKPOINT_MAGIC):
            raise CheckpointCorruptError(f"{path}: bad magic or truncated header")
        rest = data[len(CHECKPOINT_MAGIC) :]
        newline = rest.find(b"\n")
        if newline < 0:
            raise CheckpointCorruptError(f"{path}: truncated header")
        try:
            header = json.loads(rest[:newline].decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointCorruptError(f"{path}: unparsable header") from exc
        blob = rest[newline + 1 :]
        if header.get("stage") != stage or header.get("config_hash") != self.config_hash:
            raise CheckpointCorruptError(
                f"{path}: header names stage {header.get('stage')!r} / config "
                f"{header.get('config_hash')!r}, expected {stage!r} / "
                f"{self.config_hash!r}"
            )
        if len(blob) != header.get("payload_size"):
            raise CheckpointCorruptError(
                f"{path}: payload is {len(blob)} bytes, header says "
                f"{header.get('payload_size')}"
            )
        if hashlib.sha256(blob).hexdigest() != header.get("payload_sha256"):
            raise CheckpointCorruptError(f"{path}: payload digest mismatch")
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise CheckpointCorruptError(f"{path}: unpicklable payload") from exc
        obs.inc("resilience.checkpoints_loaded")
        return payload
