"""Integration-style tests for the DESAlign model and the shared trainer."""

import numpy as np
import pytest

from oracles import reference_similarity
from repro.core import (
    DESAlign,
    DESAlignConfig,
    Trainer,
    TrainingConfig,
    prepare_task,
)
from repro.eval import Evaluator


@pytest.fixture(scope="module")
def quick_config():
    return DESAlignConfig(hidden_dim=16, feed_forward_dim=32, seed=0)


class TestDESAlignModel:
    def test_loss_is_finite_and_positive(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        breakdown = model.loss()
        assert np.isfinite(breakdown.total.item())
        assert breakdown.total.item() > 0

    def test_similarity_shape(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        similarity = reference_similarity(*model.decode_states())
        assert similarity.shape == (tiny_task.source.num_entities,
                                    tiny_task.target.num_entities)
        assert np.isfinite(similarity).all()

    def test_similarity_without_propagation_differs(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        with_propagation = reference_similarity(
            *model.decode_states(use_propagation=True))
        without = reference_similarity(*model.decode_states(use_propagation=False))
        assert with_propagation.shape == without.shape
        assert not np.allclose(with_propagation, without)

    def test_propagation_masks_match_consistency_partition(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        source_mask, target_mask = model.propagation_masks()
        assert source_mask.shape == (tiny_task.source.num_entities,)
        assert target_mask.shape == (tiny_task.target.num_entities,)
        consistent, _, _ = tiny_task.source.features.consistency_partition()
        assert source_mask.sum() == len(consistent)

    def test_evaluation_embedding_switch(self, tiny_task):
        original = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0,
                                                      evaluation_embedding="original"))
        fused = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0,
                                                   evaluation_embedding="fused"))
        assert not np.allclose(reference_similarity(*original.decode_states()),
                               reference_similarity(*fused.decode_states()))

    def test_loss_backward_populates_gradients(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        model.loss().total.backward()
        assert all(param.grad is not None for param in model.parameters())

    def test_state_dict_roundtrip_preserves_similarity(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        state = model.state_dict()
        clone = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, feed_forward_dim=32,
                                                   seed=99))
        clone.load_state_dict(state)
        assert np.allclose(reference_similarity(*model.decode_states()),
                           reference_similarity(*clone.decode_states()))


class TestTrainer:
    def test_training_improves_over_untrained(self, tiny_task, quick_config):
        untrained = DESAlign(tiny_task, quick_config)
        untrained_metrics = Evaluator(tiny_task).evaluate_model(untrained)
        model = DESAlign(tiny_task, quick_config)
        result = Trainer(model, tiny_task,
                         TrainingConfig(epochs=30, eval_every=0, seed=0)).fit()
        assert result.metrics.mrr > untrained_metrics.mrr
        assert result.metrics.hits_at_10 >= untrained_metrics.hits_at_10

    def test_loss_decreases_during_training(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        result = Trainer(model, tiny_task,
                         TrainingConfig(epochs=25, eval_every=0, seed=0)).fit()
        losses = result.history.losses
        assert len(losses) == 25
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_periodic_evaluation_recorded(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        result = Trainer(model, tiny_task,
                         TrainingConfig(epochs=10, eval_every=5, seed=0)).fit()
        assert len(result.history.evaluations) == 2
        assert result.history.last_metrics() is not None

    def test_iterative_strategy_adds_pseudo_pairs(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        config = TrainingConfig(epochs=15, eval_every=0, iterative=True,
                                iterative_rounds=1, iterative_epochs=5, seed=0)
        result = Trainer(model, tiny_task, config).fit()
        assert len(result.history.pseudo_pairs) == 1
        assert result.history.pseudo_pairs[0] >= 0
        # Training ran for the base epochs plus the iterative phase.
        assert len(result.history.losses) == 20

    def test_early_stopping_halts_training(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        config = TrainingConfig(epochs=50, eval_every=1, early_stopping_patience=2, seed=0)
        result = Trainer(model, tiny_task, config).fit()
        assert len(result.history.losses) < 50

    def test_result_bookkeeping(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        result = Trainer(model, tiny_task,
                         TrainingConfig(epochs=3, eval_every=0, seed=0)).fit()
        assert result.train_seconds > 0
        assert result.decode_seconds > 0
        assert result.num_parameters == model.num_parameters()
        assert set(result.as_dict()) >= {"H@1", "H@10", "MRR", "train_seconds"}

    def test_mini_batching_path(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        config = TrainingConfig(epochs=3, eval_every=0, batch_size=4, seed=0)
        result = Trainer(model, tiny_task, config).fit()
        assert len(result.history.losses) == 3


class TestRobustnessToMissingModalities:
    def test_propagation_helps_under_missing_modalities(self, missing_modality_pair):
        task = prepare_task(missing_modality_pair, relation_dim=16, attribute_dim=16,
                            structure_dim=16, seed=0)
        model = DESAlign(task, DESAlignConfig(hidden_dim=16, seed=0, propagation_iters=2))
        Trainer(model, task, TrainingConfig(epochs=40, eval_every=0, seed=0)).fit()
        evaluator = Evaluator(task)
        with_propagation = evaluator.evaluate_model(model, use_propagation=True)
        without = evaluator.evaluate_model(model, use_propagation=False)
        assert with_propagation.mrr >= without.mrr
