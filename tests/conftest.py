"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest
from hypothesis import settings

# Make the shared brute-force oracles (tests/oracles.py) importable from
# every test module regardless of its subdirectory.
sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run (``tier1``, the
# default), so a pass or failure depends on the code alone.  ``explore``
# (``--hypothesis-profile=explore``) draws at random and replays failures
# from the example database.  The test modules' own ``settings(...)``
# objects are built after this import, so they inherit the loaded profile.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.register_profile("explore", deadline=None)
settings.load_profile("tier1")

from repro.core.task import prepare_task
from repro.data.synthetic import SyntheticPairConfig, generate_pair


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def tiny_pair():
    """A small but fully featured synthetic alignment task."""
    config = SyntheticPairConfig(num_entities=40, num_communities=4, seed=7,
                                 seed_ratio=0.3, name="tiny")
    return generate_pair(config)


@pytest.fixture(scope="session")
def tiny_task(tiny_pair):
    """The tiny pair prepared for model consumption."""
    return prepare_task(tiny_pair, relation_dim=16, attribute_dim=16,
                        structure_dim=16, seed=3)


@pytest.fixture(scope="session")
def missing_modality_pair():
    """A synthetic pair with aggressive missing-modality ratios."""
    config = SyntheticPairConfig(num_entities=40, num_communities=4, seed=11,
                                 image_coverage_source=0.3, image_coverage_target=0.3,
                                 attribute_coverage_source=0.4, attribute_coverage_target=0.4,
                                 seed_ratio=0.3, name="tiny-missing")
    return generate_pair(config)
