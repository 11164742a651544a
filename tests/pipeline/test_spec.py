"""Spec serialisation and validation: round-trips, golden files, rejections."""

from pathlib import Path

import pytest

from repro.core.ann import AnnConfig
from repro.core.config import TrainingConfig
from repro.pipeline import (
    AlignmentPipeline,
    DataSpec,
    DecodeSpec,
    ModelSpec,
    PerturbationSpec,
    PipelineSpec,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_SPECS = sorted(GOLDEN_DIR.glob("*.json"))


class TestRoundTrip:
    def test_default_spec_round_trips(self):
        spec = PipelineSpec()
        assert PipelineSpec.from_dict(spec.to_dict()) == spec

    def test_rich_spec_round_trips(self):
        spec = PipelineSpec(
            data=DataSpec(dataset="DBP15K_FR_EN", num_entities=64,
                          seed_ratio=0.25, image_ratio=0.4, backend="sparse",
                          seed=3),
            model=ModelSpec(name="DESAlign", hidden_dim=16, seed=5,
                            options={"propagation_iters": 3}),
            training=TrainingConfig(epochs=4, eval_every=2,
                                    early_stopping_patience=1,
                                    sampling="neighbour", fanouts=(4, None),
                                    candidates="ivf",
                                    ann=AnnConfig(n_clusters=4, nprobe=2),
                                    seed=3),
            decode=DecodeSpec(decode="blockwise", k=7, encode="sampled",
                              candidates="ivf", ann=AnnConfig(nprobe=1)),
        )
        restored = PipelineSpec.from_dict(spec.to_dict())
        assert restored == spec
        # tuples survive the JSON list round trip
        assert restored.training.fanouts == (4, None)
        assert isinstance(restored.training.ann, AnnConfig)

    def test_tuple_valued_options_round_trip(self):
        spec = PipelineSpec(model=ModelSpec(
            options={"modalities": ("graph", "relation")}))
        # options canonicalise to the JSON-native form at construction, so
        # equality holds through to_dict/from_dict and save/load alike.
        assert spec.model.options == {"modalities": ["graph", "relation"]}
        assert PipelineSpec.from_dict(spec.to_dict()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = PipelineSpec(model=ModelSpec(hidden_dim=24))
        path = spec.to_json_file(tmp_path / "spec.json")
        assert PipelineSpec.from_json_file(path) == spec

    @pytest.mark.parametrize("path", GOLDEN_SPECS, ids=lambda p: p.stem)
    def test_golden_specs_load_validate_and_round_trip(self, path):
        spec = PipelineSpec.from_json_file(path)
        assert spec.validate() is spec
        assert PipelineSpec.from_dict(spec.to_dict()) == spec

    def test_golden_specs_exist(self):
        assert len(GOLDEN_SPECS) >= 2

    def test_partial_sections_take_defaults(self):
        spec = PipelineSpec.from_dict({"model": {"name": "EVA"}})
        assert spec.model.name == "EVA"
        assert spec.data == DataSpec()
        assert spec.training == TrainingConfig()
        assert spec.perturbation == PerturbationSpec()
        assert spec.perturbation.is_noop()

    def test_perturbation_section_round_trips(self):
        spec = PipelineSpec(perturbation=PerturbationSpec(
            modality_dropout=0.4, dropout_channels=["vision"],
            feature_noise=0.2, seed_noise=0.1, seed=9))
        restored = PipelineSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.perturbation.dropout_channels == ("vision",)
        assert not restored.perturbation.is_noop()

    def test_invalid_json_file_is_actionable(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            PipelineSpec.from_json_file(path)


class TestUnknownKeys:
    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match=r"unknown top-level key\(s\) \['optimizer'\]"):
            PipelineSpec.from_dict({"optimizer": {}})

    def test_unknown_data_key_lists_valid_keys(self):
        with pytest.raises(ValueError, match="dataset_name.*valid keys.*dataset"):
            PipelineSpec.from_dict({"data": {"dataset_name": "FBDB15K"}})

    def test_unknown_training_key(self):
        with pytest.raises(ValueError, match=r"\['lr'\] in the 'training' section"):
            PipelineSpec.from_dict({"training": {"lr": 0.1}})

    def test_unknown_ann_key(self):
        with pytest.raises(ValueError, match="'decode.ann' section"):
            PipelineSpec.from_dict(
                {"decode": {"candidates": "ivf", "ann": {"nlist": 4}}})

    def test_non_dict_section(self):
        with pytest.raises(ValueError, match="'model' section must be a JSON object"):
            PipelineSpec.from_dict({"model": "DESAlign"})

    def test_unknown_perturbation_key(self):
        with pytest.raises(ValueError,
                           match=r"\['dropout'\] in the 'perturbation' section"):
            PipelineSpec.from_dict({"perturbation": {"dropout": 0.5}})


class TestValidation:
    """Every rejected combination, checked once against the single source."""

    def test_unknown_model_name(self):
        with pytest.raises(ValueError, match="unknown model 'Unregistered'"):
            PipelineSpec(model=ModelSpec(name="Unregistered")).validate()

    def test_unknown_dataset(self):
        with pytest.raises(ValueError, match="unknown dataset 'WN18'"):
            PipelineSpec(data=DataSpec(dataset="WN18")).validate()

    def test_decode_num_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="num_workers"):
            DecodeSpec(num_workers=0)
        spec = PipelineSpec(decode=DecodeSpec(num_workers=4))
        assert PipelineSpec.from_dict(spec.to_dict()) == spec

    def test_ann_gather_and_slack_round_trip_and_validate(self):
        spec = PipelineSpec(decode=DecodeSpec(
            candidates="ivf",
            ann=AnnConfig(adaptive_slack=0.25, train_size=1000)))
        assert PipelineSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="gather"):
            AnnConfig(gather="grouped")

    def test_csls_ranking_refuses_approximate_candidates(self):
        with pytest.raises(ValueError, match="CSLS"):
            PipelineSpec(decode=DecodeSpec(ranking="csls",
                                           candidates="ivf")).validate()

    def test_dense_decode_refuses_candidates(self):
        # The dense decode was removed outright, with or without candidates.
        with pytest.raises(ValueError, match="decode='dense' was removed"):
            DecodeSpec(decode="dense", candidates="lsh")
        with pytest.raises(ValueError, match="decode='dense' was removed"):
            PipelineSpec.from_dict({"decode": {"decode": "dense"}})
        # Both surviving names parse: they denote the one streaming decode.
        for name in ("auto", "blockwise"):
            spec = PipelineSpec.from_dict({"decode": {"decode": name}})
            assert spec.decode.decode == name

    def test_iterative_refuses_lsh(self):
        # TrainingConfig rejects this at construction (same rule function);
        # validate() covers the composed object too.
        with pytest.raises(ValueError, match="LSH"):
            PipelineSpec(training=TrainingConfig(iterative=True,
                                                 candidates="lsh")).validate()

    def test_patience_requires_cadence(self):
        with pytest.raises(ValueError, match="eval_every"):
            PipelineSpec(
                training=TrainingConfig(early_stopping_patience=2,
                                        eval_every=0)).validate()

    def test_neighbour_sampling_needs_capability(self):
        # MCLEA's intra-modal objectives keep it full-graph; GCN-align and
        # EVA gained the capability with the incremental subsystem.
        with pytest.raises(ValueError, match="does not support sampling='neighbour'"):
            PipelineSpec(model=ModelSpec(name="MCLEA"),
                         training=TrainingConfig(sampling="neighbour")).validate()

    def test_sampled_encode_needs_capability(self):
        with pytest.raises(ValueError, match="does not support encode='sampled'"):
            PipelineSpec(model=ModelSpec(name="TransE"),
                         decode=DecodeSpec(encode="sampled")).validate()

    def test_model_auto_backend_is_coherent(self):
        spec = PipelineSpec(data=DataSpec(backend="sparse"),
                            model=ModelSpec(options={"backend": "auto"}))
        assert spec.validate() is spec

    def test_bad_vocabulary_rejected_at_construction(self):
        with pytest.raises(ValueError, match="backend"):
            DataSpec(backend="cuda")
        with pytest.raises(ValueError, match="decode"):
            DecodeSpec(decode="streaming")
        with pytest.raises(ValueError, match="ranking"):
            DecodeSpec(ranking="euclidean")
        with pytest.raises(ValueError, match="candidate"):
            DecodeSpec(candidates="faiss")
        with pytest.raises(ValueError, match="ratio"):
            DataSpec(seed_ratio=1.5)
        with pytest.raises(ValueError, match="k must be positive"):
            DecodeSpec(k=0)

    def test_perturbation_rejects_bad_rates_and_channels(self):
        with pytest.raises(ValueError, match="modality_dropout"):
            PerturbationSpec(modality_dropout=1.5)
        with pytest.raises(ValueError, match="feature_noise"):
            PerturbationSpec(feature_noise=-0.1)
        with pytest.raises(ValueError, match="dropout_channels"):
            PerturbationSpec(modality_dropout=0.5,
                             dropout_channels=("graph",))
        with pytest.raises(ValueError, match="at least one dropout channel"):
            PerturbationSpec(modality_dropout=0.5, dropout_channels=())

    def test_custom_dataset_requires_a_pair(self):
        pipeline = AlignmentPipeline(PipelineSpec(data=DataSpec(dataset="custom")))
        with pytest.raises(ValueError, match="fit\\(pair"):
            pipeline.build_task()
