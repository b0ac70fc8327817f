"""Literal configuration hashes: campaign store keys and checkpoint dirs.

``config_hash`` names every campaign result-store entry, campaign job id and
checkpoint directory.  Deleting an ``ExperimentConfig`` field or changing a
default would silently re-key all of them, so the hashes of the default
config of every registered benchmark, and of a few campaign-grid deltas,
are pinned here as literals.  A deleted field keeps hashing through
``repro.obs.manifest.RETIRED_FIELDS``.
"""

from __future__ import annotations

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    CampaignSpecError,
    JobSpec,
    config_from_dict,
)
from repro.circuit.iscas import BENCHMARKS
from repro.defects.statistics import DefectStatistics
from repro.experiments.pipeline import ExperimentConfig
from repro.obs.manifest import config_hash, config_to_dict

DEFAULT_HASHES = {
    "alu4": "613e0e476de3c926",
    "c17": "ee4c83f5fccee5b2",
    "c432": "bfdc140175b9f182",
    "c432_like": "0e38236633d0b849",
    "c880": "b3546e00d557f1a8",
    "c880_like": "6c57cbba5836b8d9",
    "dec4": "2f76dea8092e880b",
    "mul4": "66eac4a188a5764f",
    "mux8": "49b273635b03b6e6",
    "par16": "016b39eef312f228",
    "rca16": "9776a6a43af1a861",
    "rca8": "dfe0448302bb184f",
}

#: (ExperimentConfig keyword delta, hash) on top of the c432 default.
DELTA_HASHES = [
    ({"detection": "iddq"}, "70fd76affa8e09dd"),
    ({"detection": "voltage-strict"}, "6dbe28fbf4b71128"),
    ({"seed": 1}, "67ce0cae62275e78"),
    ({"seed": 2}, "08c33bd25a09f69b"),
    ({"prove_redundancy": False}, "d0ca44186927d2c4"),
    ({"benchmark": "c17", "detection": "iddq", "seed": 2}, "5efca566755f76e8"),
]


def test_every_registered_benchmark_is_pinned():
    assert set(DEFAULT_HASHES) == set(BENCHMARKS)


@pytest.mark.parametrize("name", sorted(DEFAULT_HASHES))
def test_default_config_hash_is_pinned(name):
    config = ExperimentConfig(benchmark=name)
    assert config_hash(config) == DEFAULT_HASHES[name]


@pytest.mark.parametrize(
    "delta, expected", DELTA_HASHES, ids=[str(d) for d, _ in DELTA_HASHES]
)
def test_delta_config_hash_is_pinned(delta, expected):
    assert config_hash(ExperimentConfig(**delta)) == expected


def test_campaign_job_ids_are_the_pinned_hashes():
    spec = CampaignSpec(
        name="pinned",
        grid={"benchmark": ("c17",), "detection": ("iddq",), "seed": (2,)},
    )
    (job,) = spec.expand()
    assert job.job_id == "5efca566755f76e8"
    assert JobSpec.for_config(ExperimentConfig()).job_id == DEFAULT_HASHES["c432"]


#: Every retired ExperimentConfig field, its historical value and a value
#: no stored config may carry.
RETIRED = {
    "prover_depth": (2, 3),
    "engine": ("auto", "python"),
    "word_width": (None, 256),
    "fault_sim_workers": (None, 2),
    "fault_sim_retries": (None, 3),
    "chunk_timeout": (None, 30.0),
}


def test_retired_fields_keep_hashing_at_their_historical_value():
    config = ExperimentConfig()
    as_dict = config_to_dict(config)
    for name, (historical, _) in RETIRED.items():
        assert as_dict[name] == historical
        with pytest.raises(TypeError):
            ExperimentConfig(**{name: historical})
    assert config.prover_depth == 2
    assert config.word_width is None


def test_stored_config_dicts_with_retired_fields_still_load():
    stored = config_to_dict(ExperimentConfig(benchmark="c17", seed=2))
    assert config_from_dict(stored) == ExperimentConfig(benchmark="c17", seed=2)
    spec = CampaignSpec.from_dict(
        {"name": "old", "base": stored, "grid": {"detection": ["iddq"]}}
    )
    (job,) = spec.expand()
    assert job.job_id == "5efca566755f76e8"
    for name, (historical, other) in RETIRED.items():
        assert config_from_dict({**stored, name: historical}) == config_from_dict(
            stored
        )
        with pytest.raises(CampaignSpecError, match=name):
            config_from_dict({**stored, name: other})


def test_config_hash_is_consistent_with_equality():
    stats = DefectStatistics()
    a = ExperimentConfig(benchmark="c17", statistics=stats)
    b = ExperimentConfig(benchmark="c17", statistics=DefectStatistics())
    assert a == b and hash(a) == hash(b)
    assert hash(a) != hash(ExperimentConfig(benchmark="c17"))
    assert len({ExperimentConfig(), ExperimentConfig(), ExperimentConfig(seed=2)}) == 2
