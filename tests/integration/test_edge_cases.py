"""Failure-injection and edge-case tests for the full pipeline.

Real MMKGs are messier than the benchmark presets: entire modalities can be
absent, the two graphs rarely have the same entity count, supervision can be
a single pair, and graphs may contain isolated entities.  These tests verify
the pipeline neither crashes nor produces non-finite outputs in those
regimes.
"""

import numpy as np
import pytest

from oracles import reference_similarity
from repro import (
    DESAlign,
    DESAlignConfig,
    Trainer,
    TrainingConfig,
    load_benchmark,
    prepare_task,
)
from repro.baselines import build_model
from repro.kg import AlignmentPair, KGPair, MultiModalKG


def _ring_graph(num_entities: int, name: str, with_images: bool = True) -> MultiModalKG:
    triples = [(i, 0, (i + 1) % num_entities) for i in range(num_entities)]
    attributes = [(i, 0, "value") for i in range(num_entities)]
    images = {i: [1.0, float(i % 3)] for i in range(0, num_entities, 2)} if with_images else {}
    return MultiModalKG.from_triples(num_entities, triples, attributes, images,
                                     num_relations=2, num_attributes=1, name=name)


class TestWholeModalityMissing:
    def test_training_with_no_text_and_no_images_at_all(self):
        pair = load_benchmark("FBDB15K", seed_ratio=0.3, num_entities=40,
                              text_ratio=0.0, image_ratio=0.0)
        assert pair.source.num_images == 0
        assert pair.source.num_attribute_triples == 0
        task = prepare_task(pair, seed=0)
        model = DESAlign(task, DESAlignConfig(hidden_dim=16, seed=0))
        result = Trainer(model, task,
                         TrainingConfig(epochs=3, eval_every=0, seed=0)).fit()
        assert np.isfinite(result.metrics.mrr)
        assert np.isfinite(reference_similarity(*model.decode_states())).all()

    def test_graph_without_any_images_builds_features(self):
        source = _ring_graph(20, "no-img-source", with_images=False)
        target = _ring_graph(20, "no-img-target", with_images=False)
        pair = KGPair(source, target, [AlignmentPair(i, i) for i in range(20)],
                      seed_ratio=0.3)
        task = prepare_task(pair, seed=0)
        assert task.source.features.missing_ratio("vision") == 1.0
        model = DESAlign(task, DESAlignConfig(hidden_dim=16, seed=0))
        assert np.isfinite(model.loss().total.item())


class TestAsymmetricGraphs:
    def test_source_and_target_with_different_entity_counts(self):
        source = _ring_graph(25, "small-side")
        target = _ring_graph(40, "large-side")
        pair = KGPair(source, target, [AlignmentPair(i, i) for i in range(25)],
                      seed_ratio=0.3)
        task = prepare_task(pair, seed=0)
        model = DESAlign(task, DESAlignConfig(hidden_dim=16, seed=0))
        result = Trainer(model, task,
                         TrainingConfig(epochs=3, eval_every=0, seed=0)).fit()
        assert reference_similarity(*model.decode_states()).shape == (25, 40)
        assert np.isfinite(result.metrics.mrr)

    @pytest.mark.parametrize("model_name", ["EVA", "MEAformer"])
    def test_baselines_handle_asymmetric_graphs(self, model_name):
        source = _ring_graph(15, "small")
        target = _ring_graph(22, "large")
        pair = KGPair(source, target, [AlignmentPair(i, i) for i in range(15)],
                      seed_ratio=0.4)
        task = prepare_task(pair, seed=0)
        model = build_model(model_name, task)
        assert reference_similarity(*model.decode_states()).shape == (15, 22)


class TestExtremeSupervision:
    def test_single_seed_pair_training_does_not_crash(self):
        source = _ring_graph(30, "one-seed-source")
        target = _ring_graph(30, "one-seed-target")
        pair = KGPair(source, target, [AlignmentPair(i, i) for i in range(30)],
                      seed_ratio=0.04)
        task = prepare_task(pair, seed=0)
        assert len(task.train_pairs) == 1
        model = DESAlign(task, DESAlignConfig(hidden_dim=16, seed=0))
        result = Trainer(model, task,
                         TrainingConfig(epochs=2, eval_every=0, seed=0)).fit()
        assert np.isfinite(result.metrics.mrr)

    def test_one_percent_benchmark_split(self):
        pair = load_benchmark("FBDB15K", seed_ratio=0.01, num_entities=60)
        task = prepare_task(pair, seed=0)
        assert 1 <= len(task.train_pairs) <= 2
        assert len(task.test_pairs) >= 58


class TestDegenerateStructure:
    def test_isolated_entities_survive_the_pipeline(self):
        # Entities 18/19 participate in no relation triple at all.
        triples = [(i, 0, i + 1) for i in range(17)]
        graph = MultiModalKG.from_triples(20, triples, [(0, 0, "x")], {0: [1.0]},
                                          num_relations=1, num_attributes=1,
                                          name="isolated")
        pair = KGPair(graph, graph, [AlignmentPair(i, i) for i in range(20)],
                      seed_ratio=0.3)
        task = prepare_task(pair, seed=0)
        model = DESAlign(task, DESAlignConfig(hidden_dim=16, seed=0))
        assert np.isfinite(model.loss().total.item())
        assert np.isfinite(reference_similarity(*model.decode_states())).all()

    def test_propagation_with_every_entity_inconsistent(self):
        # No entity has all modalities: the propagation boundary set is empty
        # and the decoder must degrade gracefully to plain smoothing.
        source = _ring_graph(16, "all-inconsistent", with_images=False)
        pair = KGPair(source, source, [AlignmentPair(i, i) for i in range(16)],
                      seed_ratio=0.3)
        task = prepare_task(pair, seed=0)
        model = DESAlign(task, DESAlignConfig(hidden_dim=16, seed=0, propagation_iters=2))
        source_mask, _ = model.propagation_masks()
        assert source_mask.sum() == 0
        assert np.isfinite(reference_similarity(*model.decode_states())).all()
