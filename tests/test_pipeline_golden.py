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
    "c17": "11c15dd41205844006d3e98c338cf1812fc8d0d7d5a0e4ffa03a51d96b335a74",
    "alu4": "e541090ec1b3a7de0f9cb5a6149a109e8e7ec51ae6fb28ca216ed2b2cfe10c5e",
    "c432": "3ba2d4ae2d796346c7cc3068b801801d63f0bb675776387c511af6f8b9d15c62",
}


def record_digest(benchmark: str) -> str:
    record = result_record(run_experiment(ExperimentConfig(benchmark=benchmark)))
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pipeline_record_digest_is_pinned(name):
    assert record_digest(name) == GOLDEN[name]
