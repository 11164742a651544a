"""Random-hyperplane LSH, loaded from ``examples/lsh_candidate_plugin.py``.

LSH is not built in: the example registers it with
``@register_candidate_generator("lsh")``.  This module loads that file by
path, checks the generator, runs an LSH spec through fit, align, save and
load, and checks that iterative training and ingest refuse it.  The
fixture unregisters ``"lsh"`` afterwards, so no other module sees it.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core.ann import AnnConfig, flops_counter, generate_candidates
from repro.core.config import TrainingConfig
from repro.core.registries import CANDIDATE_REGISTRY, candidate_methods
from repro.core.similarity import blockwise_topk
from repro.incremental import IncrementalAligner
from repro.pipeline import (Aligner, AlignmentPipeline, DataSpec, DecodeSpec,
                            ModelSpec, PipelineSpec)

EXAMPLE = (Path(__file__).resolve().parents[2] / "examples"
           / "lsh_candidate_plugin.py")


@pytest.fixture(scope="module")
def lsh_plugin():
    spec = importlib.util.spec_from_file_location("lsh_candidate_plugin",
                                                  EXAMPLE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert "lsh" in candidate_methods()
    yield module
    CANDIDATE_REGISTRY.pop("lsh")
    assert "lsh" not in candidate_methods()


@pytest.fixture
def clustered_embeddings():
    rng = np.random.default_rng(7)
    source = rng.normal(size=(120, 12))
    target = np.vstack([source + 0.15 * rng.normal(size=source.shape),
                        rng.normal(size=(40, 12))])
    return source, target


def test_candidates_contain_self_match(lsh_plugin, clustered_embeddings):
    _, target = clustered_embeddings
    index = lsh_plugin.RandomHyperplaneLSH(target, tables=6, hyperplanes=8,
                                           seed=0)
    cands = index.candidates(target)
    # every vector collides with itself in every table
    for row in range(len(target)):
        assert row in cands.row(row)


def test_too_many_hyperplanes_rejected(lsh_plugin, clustered_embeddings):
    _, target = clustered_embeddings
    with pytest.raises(ValueError):
        lsh_plugin.RandomHyperplaneLSH(target, hyperplanes=63)


def test_escalation_rejected(lsh_plugin, clustered_embeddings):
    source, target = clustered_embeddings
    with pytest.raises(ValueError, match="escalation"):
        generate_candidates("lsh", source, target,
                            AnnConfig(exact_escalation=True))


def test_candidates_reproducible_and_subquadratic(lsh_plugin,
                                                   clustered_embeddings):
    source, target = clustered_embeddings
    first = generate_candidates("lsh", source, target, AnnConfig(seed=3))
    second = generate_candidates("lsh", source, target, AnnConfig(seed=3))
    assert np.array_equal(first.indptr, second.indptr)
    assert np.array_equal(first.indices, second.indices)
    with flops_counter() as counter:
        cands = generate_candidates("lsh", source, target, AnnConfig(seed=0))
        topk = blockwise_topk(source, target, k=5, row_candidates=cands)
    cells = topk.shape[0] * topk.shape[1]
    assert 0 < topk.computed_cells < cells
    assert counter.cells < 2 * cells


def _lsh_spec() -> dict:
    return PipelineSpec(
        data=DataSpec(dataset="FBDB15K", num_entities=40, seed_ratio=0.3,
                      seed=1),
        model=ModelSpec(name="DESAlign", hidden_dim=16),
        training=TrainingConfig(epochs=2, eval_every=0, seed=1),
        decode=DecodeSpec(candidates="lsh", k=5),
    ).to_dict()


def test_spec_fit_align_save_load_round_trip_is_bit_identical(
        lsh_plugin, tmp_path):
    payload = _lsh_spec()
    spec = PipelineSpec.from_dict(payload)
    assert spec.to_dict() == payload
    aligner = AlignmentPipeline.from_spec(spec).fit()
    fitted = aligner.align(5)
    assert fitted.approximate
    loaded = Aligner.load(aligner.save(tmp_path / "lsh"))
    reloaded = loaded.align(5)
    assert np.array_equal(reloaded.target_ids, fitted.target_ids)
    assert np.array_equal(reloaded.scores, fitted.scores)
    saved, restored = aligner.row_candidates(), loaded.row_candidates()
    assert np.array_equal(restored.indptr, saved.indptr)
    assert np.array_equal(restored.indices, saved.indices)

    # LSH proves no top-1 and has no centroids to insert into.
    with pytest.raises(ValueError, match="provably exact top-1"):
        TrainingConfig(iterative=True, candidates="lsh")
    payload["training"].update(iterative=True, candidates="lsh")
    with pytest.raises(ValueError, match="candidates='lsh' cannot offer"):
        PipelineSpec.from_dict(payload)
    with pytest.raises(ValueError, match="no centroid structure"):
        IncrementalAligner(aligner)
