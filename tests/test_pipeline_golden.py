"""Golden digests of whole-pipeline results.

Each digest is the sha256 of ``repro.campaign.store.result_record`` for one
benchmark's default :class:`ExperimentConfig`: T(k), theta(k), Gamma(k),
DL, the eq. 11 fit and the stuck-at first-detection digests.  The record
carries no configuration or config hash, so knobs that only move execution
(engine, workers, retries) cannot move it.  A PR that changes a value here
must say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.campaign.store import result_record
from repro.experiments.pipeline import ExperimentConfig, run_experiment

GOLDEN = {
    "c17": "806d730b95f62c6f2caf3919d93e2083f3b23ce1b2c8704627fe599a6c3fee46",
    "alu4": "06580fd81230ffffa5f7aa6f7b2ec4d049c21b8ba468084be7034f220ad3d393",
    "c432": "4bb8a1f11863e4d5c25cc33cc10aef782bdec8d0404154a52dba1469d0172ca5",
}


def record_digest(benchmark: str) -> str:
    record = result_record(run_experiment(ExperimentConfig(benchmark=benchmark)))
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pipeline_record_digest_is_pinned(name):
    assert record_digest(name) == GOLDEN[name]
