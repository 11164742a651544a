"""Tests for the baseline model zoo and its shared interface."""

import numpy as np
import pytest

from oracles import reference_similarity
from repro.baselines import (
    EVA,
    GCNAlign,
    MCLEA,
    MEAformer,
    MODEL_REGISTRY,
    PoE,
    TransE,
    BaselineConfig,
    build_model,
)
from repro.core import Trainer, TrainingConfig
from repro.eval import Evaluator


ALL_BASELINE_NAMES = ("TransE", "GCN-align", "PoE", "EVA", "MCLEA", "MEAformer")


class TestRegistry:
    def test_registry_contains_every_paper_row_we_implement(self):
        assert set(MODEL_REGISTRY) == {"TransE", "GCN-align", "PoE", "EVA",
                                       "MCLEA", "MEAformer", "DESAlign"}

    def test_build_model_unknown_name(self, tiny_task):
        with pytest.raises(KeyError):
            build_model("UnknownAligner", tiny_task)

    @pytest.mark.parametrize("name", ALL_BASELINE_NAMES)
    def test_build_every_registered_model(self, name, tiny_task):
        model = build_model(name, tiny_task)
        assert model.num_parameters() > 0


class TestBaselineConfig:
    def test_rejects_bad_gnn(self):
        with pytest.raises(ValueError):
            BaselineConfig(gnn="transformer")

    def test_rejects_unknown_modality(self):
        with pytest.raises(ValueError):
            BaselineConfig(modalities=("graph", "audio"))

    def test_rejects_non_positive_hidden(self):
        with pytest.raises(ValueError):
            BaselineConfig(hidden_dim=0)


class TestAlignerInterface:
    @pytest.mark.parametrize("name", ALL_BASELINE_NAMES)
    def test_loss_is_finite_scalar(self, name, tiny_task):
        model = build_model(name, tiny_task)
        seeds = tiny_task.seed_arrays()
        loss = model.loss(seeds[0], seeds[1])
        value = loss.total.item() if hasattr(loss, "total") else loss.item()
        assert np.isfinite(value)

    @pytest.mark.parametrize("name", ALL_BASELINE_NAMES)
    def test_similarity_shape_and_finiteness(self, name, tiny_task):
        model = build_model(name, tiny_task)
        similarity = reference_similarity(*model.decode_states())
        assert similarity.shape == (tiny_task.source.num_entities,
                                    tiny_task.target.num_entities)
        assert np.isfinite(similarity).all()

    @pytest.mark.parametrize("name", ALL_BASELINE_NAMES)
    def test_gradients_flow_to_all_parameters(self, name, tiny_task):
        model = build_model(name, tiny_task)
        seeds = tiny_task.seed_arrays()
        loss = model.loss(seeds[0], seeds[1])
        total = loss.total if hasattr(loss, "total") else loss
        total.backward()
        missing = [param_name for param_name, param in model.named_parameters()
                   if param.grad is None]
        assert not missing, f"{name} has unused parameters: {missing}"


class TestModelSpecificBehaviour:
    def test_gcn_align_uses_structure_only(self, tiny_task):
        model = GCNAlign(tiny_task)
        assert model.config.modalities == ("graph",)

    def test_poe_has_no_gnn(self, tiny_task):
        model = PoE(tiny_task)
        assert model.gnn is None

    def test_eva_and_mclea_expose_global_modality_weights(self, tiny_task):
        for cls in (EVA, MCLEA):
            model = cls(tiny_task)
            weights = model.global_modality_weights().numpy()
            assert weights.shape == (4,)
            assert np.allclose(weights.sum(), 1.0)

    def test_meaformer_confidences_are_per_entity(self, tiny_task):
        model = MEAformer(tiny_task)
        _, _, confidences = model._encode("source")
        assert confidences.shape == (tiny_task.source.num_entities, 4)
        assert np.allclose(confidences.numpy().sum(axis=1), 1.0, atol=1e-8)

    def test_transe_embeds_relations_of_both_graphs(self, tiny_task):
        model = TransE(tiny_task, hidden_dim=16)
        assert model.source_relations.shape[0] == tiny_task.pair.source.num_relations
        assert model.target_relations.shape[0] == tiny_task.pair.target.num_relations

    def test_transe_triple_loss_respects_margin(self, tiny_task):
        model = TransE(tiny_task, hidden_dim=16, margin=1.0)
        loss = model._triple_loss(model.source_entities, model.source_relations,
                                  model._source_triples)
        assert loss.item() >= 0


class TestTrainingBehaviour:
    @pytest.mark.parametrize("name", ["EVA", "MCLEA", "MEAformer"])
    def test_short_training_improves_over_untrained(self, name, tiny_task):
        evaluator = Evaluator(tiny_task)
        untrained = build_model(name, tiny_task)
        before = evaluator.evaluate_model(untrained)
        model = build_model(name, tiny_task)
        Trainer(model, tiny_task, TrainingConfig(epochs=25, eval_every=0, seed=0)).fit()
        after = evaluator.evaluate_model(model)
        assert after.mrr > before.mrr

    def test_baselines_work_with_iterative_trainer(self, tiny_task):
        model = build_model("EVA", tiny_task)
        config = TrainingConfig(epochs=10, eval_every=0, iterative=True,
                                iterative_rounds=1, iterative_epochs=5, seed=0)
        result = Trainer(model, tiny_task, config).fit()
        assert len(result.history.pseudo_pairs) == 1


class TestNeighbourSampling:
    """GCN-based baselines share the neighbour-sampled encoder path."""

    @pytest.mark.parametrize("name", ["GCN-align", "EVA"])
    def test_full_fanout_sampled_encode_matches_full(self, name, tiny_task):
        model = build_model(name, tiny_task)
        for side in ("source", "target"):
            full = model.joint_embedding(side).numpy()
            sampled = model.encode_entities_sampled(side, batch_size=7)
            np.testing.assert_allclose(sampled, full, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["GCN-align", "EVA"])
    def test_full_fanout_subgraph_loss_matches_full(self, name, tiny_task):
        model = build_model(name, tiny_task)
        source_index, target_index = tiny_task.seed_arrays()
        source_view = model.neighbour_sampler("source").sample(source_index)
        target_view = model.neighbour_sampler("target").sample(target_index)
        sampled = model.subgraph_loss(source_view, target_view,
                                      source_index, target_index)
        full = model.loss(source_index, target_index)
        np.testing.assert_allclose(sampled.item(), full.item(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["GCN-align", "EVA"])
    def test_sampled_decode_states_match_full(self, name, tiny_task):
        model = build_model(name, tiny_task)
        [full_src], [full_tgt] = model.decode_states()
        [src], [tgt] = model.decode_states(encode="sampled", encode_batch_size=9)
        np.testing.assert_allclose(src, full_src, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tgt, full_tgt, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name", ["GCN-align", "EVA"])
    def test_neighbour_sampled_training_runs(self, name, tiny_task):
        model = build_model(name, tiny_task)
        config = TrainingConfig(epochs=2, eval_every=0, sampling="neighbour",
                                fanouts=(3, 3), batch_size=8, seed=0)
        result = Trainer(model, tiny_task, config).fit()
        assert np.isfinite(result.history.losses).all()

    def test_registry_capability_flags(self):
        from repro.core.registries import model_supports_sampling
        for name in ("GCN-align", "EVA", "DESAlign"):
            assert model_supports_sampling(name)
        for name in ("TransE", "PoE", "MCLEA", "MEAformer"):
            assert not model_supports_sampling(name)

    def test_entity_coupled_baselines_refuse_sampled_encode(self, tiny_task):
        model = build_model("MCLEA", tiny_task)
        with pytest.raises(NotImplementedError, match="joint_from_modal"):
            model.encode_entities_sampled("source")

    def test_gnn_free_baseline_refuses_sampler(self, tiny_task):
        model = PoE(tiny_task, BaselineConfig(gnn="none", modalities=("graph",)))
        with pytest.raises(ValueError, match="no structural GNN"):
            model.neighbour_sampler("source")
