"""Tests for the pluggable training loops (full-graph vs neighbour-sampled)."""

import numpy as np
import pytest

from repro.core import (
    DESAlign,
    DESAlignConfig,
    FullGraphLoop,
    NeighbourSampledLoop,
    Trainer,
    TrainingConfig,
    build_training_loop,
)
from repro.core.ann import IVFWarmStart, flops_counter
from repro.core.similarity import TopKSimilarity, blockwise_topk


@pytest.fixture(scope="module")
def quick_config():
    return DESAlignConfig(hidden_dim=16, feed_forward_dim=32, seed=0)


class TestLoopSelection:
    def test_factory_selects_strategy(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        assert isinstance(build_training_loop(model, tiny_task, TrainingConfig()),
                          FullGraphLoop)
        assert isinstance(
            build_training_loop(model, tiny_task,
                                TrainingConfig(sampling="neighbour")),
            NeighbourSampledLoop)

    def test_invalid_sampling_rejected_at_config(self):
        with pytest.raises(ValueError):
            TrainingConfig(sampling="layerwise")
        with pytest.raises(ValueError):
            TrainingConfig(fanouts=(0,))
        with pytest.raises(ValueError):
            TrainingConfig(early_stopping_patience=2, eval_every=0)

    def test_neighbour_requires_subgraph_support(self, tiny_task):
        class Plain:
            pass

        with pytest.raises(TypeError, match="subgraph_loss"):
            build_training_loop(Plain(), tiny_task,
                                TrainingConfig(sampling="neighbour"))

    def test_neighbour_rejects_energy_penalty(self, tiny_task):
        """The energy term needs the full Laplacian — never dropped silently."""
        model = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0,
                                                   energy_weight=0.1))
        with pytest.raises(ValueError, match="energy_weight"):
            build_training_loop(model, tiny_task,
                                TrainingConfig(sampling="neighbour"))
        source_view = model.neighbour_sampler("source").sample(
            tiny_task.train_pairs[:, 0])
        target_view = model.neighbour_sampler("target").sample(
            tiny_task.train_pairs[:, 1])
        with pytest.raises(ValueError, match="energy_weight"):
            model.subgraph_loss(source_view, target_view,
                                tiny_task.train_pairs[:, 0],
                                tiny_task.train_pairs[:, 1])

    def test_neighbour_rejects_energy_monitor(self, tiny_task, quick_config):
        """An energy monitor would silently stay empty under sampling."""
        from repro.core.energy import EnergyMonitor

        model = DESAlign(tiny_task, quick_config)
        monitor = EnergyMonitor(tiny_task.source.laplacian)
        with pytest.raises(ValueError, match="energy monitoring"):
            Trainer(model, tiny_task, TrainingConfig(sampling="neighbour"),
                    energy_monitor=monitor)


class TestSubgraphLossEquivalence:
    def test_full_fanout_subgraph_loss_matches_full_loss(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        pairs = tiny_task.train_pairs
        full = model.loss(pairs[:, 0], pairs[:, 1]).total.item()
        source_view = model.neighbour_sampler("source").sample(pairs[:, 0])
        target_view = model.neighbour_sampler("target").sample(pairs[:, 1])
        sub = model.subgraph_loss(source_view, target_view,
                                  pairs[:, 0], pairs[:, 1]).total.item()
        assert abs(full - sub) < 1e-9

    def test_sampled_inference_matches_full_encode(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        full_source, full_target = model._evaluation_embeddings()
        sampled_source, sampled_target = model._evaluation_embeddings(
            encode="sampled", encode_batch_size=7)
        np.testing.assert_allclose(sampled_source, full_source, rtol=0, atol=1e-12)
        np.testing.assert_allclose(sampled_target, full_target, rtol=0, atol=1e-12)


class TestNeighbourSampledTraining:
    def test_full_fanout_training_matches_full_graph(self, tiny_task, quick_config):
        epochs = 8
        full_model = DESAlign(tiny_task, quick_config)
        full = Trainer(full_model, tiny_task,
                       TrainingConfig(epochs=epochs, eval_every=0, seed=0)).fit()
        sampled_model = DESAlign(tiny_task, quick_config)
        sampled = Trainer(sampled_model, tiny_task,
                          TrainingConfig(epochs=epochs, eval_every=0, seed=0,
                                         sampling="neighbour")).fit()
        np.testing.assert_allclose(sampled.history.losses, full.history.losses,
                                   rtol=0, atol=1e-8)
        for key, value in full.metrics.as_dict().items():
            assert abs(sampled.metrics.as_dict()[key] - value) < 1e-6, key

    def test_sampled_fanout_training_learns(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        result = Trainer(model, tiny_task,
                         TrainingConfig(epochs=12, eval_every=0, seed=0,
                                        sampling="neighbour", fanouts=(3, 3),
                                        batch_size=6)).fit()
        losses = result.history.losses
        assert len(losses) == 12
        assert np.mean(losses[-3:]) < np.mean(losses[:3])

    def test_iterative_pseudo_seeds_use_streaming_decode(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        config = TrainingConfig(epochs=6, eval_every=0, iterative=True,
                                iterative_rounds=1, iterative_epochs=2, seed=0,
                                sampling="neighbour", fanouts=(4, 4))
        trainer = Trainer(model, tiny_task, config)
        similarity = trainer.loop.model_similarity()
        assert isinstance(similarity, TopKSimilarity)
        result = trainer.fit()
        assert len(result.history.pseudo_pairs) == 1
        assert result.history.pseudo_pairs[0] >= 0


class TestCandidateDecodeThreading:
    def test_lsh_candidates_rejected_for_iterative_training(self):
        with pytest.raises(ValueError, match="lsh|LSH"):
            TrainingConfig(iterative=True, candidates="lsh")
        with pytest.raises(ValueError):
            TrainingConfig(candidates="faiss")

    def test_pseudo_seed_decode_escalates_ivf(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        config = TrainingConfig(epochs=2, eval_every=0, seed=4,
                                candidates="ivf")
        trainer = Trainer(model, tiny_task, config)
        assert trainer.loop.resolved_ann().seed == 4  # inherited from TrainingConfig
        similarity = trainer.loop.model_similarity()
        assert isinstance(similarity, TopKSimilarity)
        # Escalation proves the row and column top-1 exact, so the mutual-NN
        # selection equals the exhaustive decode's.
        exhaustive = blockwise_topk(*model.decode_states())
        assert (similarity.mutual_nearest_pairs()
                == exhaustive.mutual_nearest_pairs())

    def test_exhaustive_config_adds_no_decode_kwargs(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        trainer = Trainer(model, tiny_task,
                          TrainingConfig(epochs=2, eval_every=0, seed=0))
        assert trainer.loop.resolved_ann() is None
        assert not trainer.loop.model_similarity().approximate

    def test_training_with_ivf_evaluation_completes(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        result = Trainer(model, tiny_task,
                         TrainingConfig(epochs=4, eval_every=2, seed=0,
                                        candidates="ivf")).fit()
        assert len(result.history.evaluations) == 2
        assert 0.0 <= result.metrics.hits_at_1 <= 1.0


class TestIVFWarmStartAcrossRounds:
    """Satellite: reuse each round's k-means centroids for the next round's
    pseudo-seed quantiser — identical metrics, cheaper re-fits."""

    @staticmethod
    def _fit(tiny_task, quick_config, *, warm: bool):
        config = TrainingConfig(epochs=4, eval_every=2, seed=0,
                                candidates="ivf", iterative=True,
                                iterative_rounds=2, iterative_epochs=2)
        model = DESAlign(tiny_task, quick_config)
        trainer = Trainer(model, tiny_task, config)
        if not warm:
            trainer.loop._ann_warm_start = None
        with flops_counter() as counter:
            result = trainer.fit()
        return result, counter.cells, trainer.loop._ann_warm_start

    def test_ivf_loop_carries_a_warm_start(self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        ivf = Trainer(model, tiny_task,
                      TrainingConfig(epochs=2, eval_every=0, candidates="ivf"))
        assert isinstance(ivf.loop._ann_warm_start, IVFWarmStart)
        exhaustive = Trainer(DESAlign(tiny_task, quick_config), tiny_task,
                             TrainingConfig(epochs=2, eval_every=0))
        assert exhaustive.loop._ann_warm_start is None

    def test_metrics_unchanged_and_fit_cost_drops(self, tiny_task, quick_config):
        cold, cold_cells, _ = self._fit(tiny_task, quick_config, warm=False)
        warm, warm_cells, carrier = self._fit(tiny_task, quick_config,
                                              warm=True)
        # escalation proves every pseudo-seed top-1 exact, so the selected
        # pairs — and everything downstream — are centroid-independent
        assert cold.history.losses == warm.history.losses
        assert cold.history.pseudo_pairs == warm.history.pseudo_pairs
        for (_, a), (_, b) in zip(cold.history.evaluations,
                                  warm.history.evaluations):
            assert a.as_dict() == b.as_dict()
        assert cold.metrics.as_dict() == warm.metrics.as_dict()
        # both escalation directions were quantised and recorded ...
        assert carrier is not None and len(carrier) == 2
        # ... and reusing centroids made the whole fit measurably cheaper
        assert warm_cells < cold_cells


class TestSeedDeterminism:
    """One TrainingConfig.seed drives sampler, loader and k-means alike."""

    @staticmethod
    def _run(tiny_task, quick_config, **overrides):
        config = TrainingConfig(epochs=4, eval_every=2, seed=11, batch_size=6,
                                **overrides)
        model = DESAlign(tiny_task, quick_config)
        return Trainer(model, tiny_task, config).fit()

    def test_repeat_run_equality_neighbour_ivf(self, tiny_task, quick_config):
        """Regression: repeated runs must agree bit for bit — losses, every
        periodic (IVF-decoded) evaluation, pseudo-seed counts and metrics."""
        overrides = dict(sampling="neighbour", fanouts=(3, 3),
                         candidates="ivf", iterative=True,
                         iterative_rounds=1, iterative_epochs=2)
        first = self._run(tiny_task, quick_config, **overrides)
        second = self._run(tiny_task, quick_config, **overrides)
        assert first.history.losses == second.history.losses
        assert first.history.pseudo_pairs == second.history.pseudo_pairs
        assert [e for e, _ in first.history.evaluations] == \
            [e for e, _ in second.history.evaluations]
        for (_, a), (_, b) in zip(first.history.evaluations,
                                  second.history.evaluations):
            assert a.as_dict() == b.as_dict()
        assert first.metrics.as_dict() == second.metrics.as_dict()

    def test_repeat_run_equality_full_graph_ivf(self, tiny_task, quick_config):
        overrides = dict(candidates="ivf")
        first = self._run(tiny_task, quick_config, **overrides)
        second = self._run(tiny_task, quick_config, **overrides)
        assert first.history.losses == second.history.losses
        assert first.metrics.as_dict() == second.metrics.as_dict()


class TestEvaluationCadence:
    def test_early_stopping_respects_eval_every(self, tiny_task, quick_config):
        """Regression: early stopping used to force an evaluation every epoch."""
        model = DESAlign(tiny_task, quick_config)
        config = TrainingConfig(epochs=9, eval_every=3,
                                early_stopping_patience=50, seed=0)
        result = Trainer(model, tiny_task, config).fit()
        assert [epoch for epoch, _ in result.history.evaluations] == [3, 6, 9]

    def test_final_evaluation_reused_from_last_epoch(self, tiny_task, quick_config,
                                                     monkeypatch):
        """Regression: fit() used to decode twice at the final epoch."""
        from repro.eval.evaluator import Evaluator

        calls = {"count": 0}
        original = Evaluator.evaluate_model

        def counting(self, model, use_propagation=True):
            calls["count"] += 1
            return original(self, model, use_propagation=use_propagation)

        monkeypatch.setattr(Evaluator, "evaluate_model", counting)
        model = DESAlign(tiny_task, quick_config)
        result = Trainer(model, tiny_task,
                         TrainingConfig(epochs=4, eval_every=2, seed=0)).fit()
        # evaluations at epochs 2 and 4; the final decode reuses epoch 4's.
        assert calls["count"] == 2
        assert result.metrics is result.history.evaluations[-1][1]
        assert result.decode_seconds > 0

    def test_final_evaluation_runs_when_cadence_missed_last_epoch(
            self, tiny_task, quick_config):
        model = DESAlign(tiny_task, quick_config)
        result = Trainer(model, tiny_task,
                         TrainingConfig(epochs=5, eval_every=2, seed=0)).fit()
        # in-training evaluations at 2 and 4; the final one is fresh.
        assert [epoch for epoch, _ in result.history.evaluations] == [2, 4]
        assert result.metrics is not result.history.evaluations[-1][1]
