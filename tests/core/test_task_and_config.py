"""Tests for configuration validation and task preparation."""

import numpy as np
import pytest

from repro.core import DESAlignConfig, TrainingConfig, prepare_task


class TestDESAlignConfig:
    def test_defaults_are_valid(self):
        config = DESAlignConfig()
        assert config.hidden_dim > 0
        assert set(config.modalities) == {"graph", "relation", "attribute", "vision"}

    def test_with_overrides_returns_new_object(self):
        base = DESAlignConfig()
        changed = base.with_overrides(propagation_iters=5)
        assert changed.propagation_iters == 5
        assert base.propagation_iters != 5 or base is not changed

    def test_rejects_indivisible_hidden_dim(self):
        with pytest.raises(ValueError):
            DESAlignConfig(hidden_dim=30, gat_heads=4)

    def test_rejects_unknown_modality(self):
        with pytest.raises(ValueError):
            DESAlignConfig(modalities=("graph", "audio"))

    def test_rejects_empty_modalities(self):
        with pytest.raises(ValueError):
            DESAlignConfig(modalities=())

    def test_rejects_bad_evaluation_embedding(self):
        with pytest.raises(ValueError):
            DESAlignConfig(evaluation_embedding="middle")

    def test_rejects_negative_propagation(self):
        with pytest.raises(ValueError):
            DESAlignConfig(propagation_iters=-1)

    def test_rejects_non_positive_temperature(self):
        with pytest.raises(ValueError):
            DESAlignConfig(temperature=0.0)


class TestTrainingConfig:
    def test_with_overrides(self):
        config = TrainingConfig(epochs=10).with_overrides(epochs=99, iterative=True)
        assert config.epochs == 99
        assert config.iterative

    def test_log_energy_true_is_rejected(self):
        with pytest.raises(ValueError, match="energy_monitor="):
            TrainingConfig(log_energy=True)
        assert TrainingConfig(log_energy=False).log_energy is False


class TestPrepareTask:
    def test_shapes_and_dims(self, tiny_pair):
        task = prepare_task(tiny_pair, relation_dim=12, attribute_dim=10,
                            structure_dim=8, seed=0)
        assert task.source.num_entities == tiny_pair.source.num_entities
        assert task.feature_dims["relation"] == 12
        assert task.feature_dims["attribute"] == 10
        assert task.feature_dims["graph"] == 8
        for side in (task.source, task.target):
            assert side.features.features["relation"].shape[1] == 12
            assert side.adjacency.shape == (side.num_entities, side.num_entities)
            assert side.laplacian.shape == side.adjacency.shape

    def test_vision_dim_inferred_from_graphs(self, tiny_pair):
        task = prepare_task(tiny_pair, seed=0)
        native_dim = len(next(iter(tiny_pair.source.image_features.values())))
        assert task.feature_dims["vision"] == native_dim

    def test_split_arrays_are_consistent(self, tiny_pair):
        task = prepare_task(tiny_pair, seed=0)
        assert task.train_pairs.shape[1] == 2
        assert task.test_pairs.shape[1] == 2
        total = len(task.train_pairs) + len(task.test_pairs)
        assert total == tiny_pair.num_alignments
        source_seed, target_seed = task.seed_arrays()
        assert len(source_seed) == len(task.train_pairs)
        assert np.all(source_seed == task.train_pairs[:, 0])
        source_test, target_test = task.test_arrays()
        assert len(source_test) == len(task.test_pairs)
        assert np.all(target_test == task.test_pairs[:, 1])

    def test_feature_dims_shared_between_sides(self, tiny_pair):
        task = prepare_task(tiny_pair, seed=0)
        for modality, dim in task.feature_dims.items():
            assert task.source.features.features[modality].shape[1] == dim
            assert task.target.features.features[modality].shape[1] == dim

    def test_normalized_adjacency_rows_bounded(self, tiny_task):
        for side in (tiny_task.source, tiny_task.target):
            assert np.all(side.normalized_adjacency.toarray() >= 0)
            assert side.normalized_adjacency.max() <= 1.0 + 1e-9

    def test_name_passthrough(self, tiny_task, tiny_pair):
        assert tiny_task.name == tiny_pair.name
