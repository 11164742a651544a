"""Engine entry points agree with the facade without warnings; every
consolidated legality rule still rejects from every entry surface with its
single-source message."""

import json
import warnings

import numpy as np
import pytest

from repro.core.ann import AnnConfig
from repro.core.config import DESAlignConfig, TrainingConfig
from repro.core.model import DESAlign
from repro.core.registries import CANDIDATE_REGISTRY
from repro.core.similarity import blockwise_topk
from repro.core.task import prepare_task
from repro.core.trainer import Trainer
from repro.data.benchmarks import load_benchmark
from repro.eval.evaluator import Evaluator
from repro.pipeline import (
    Aligner,
    AlignmentPipeline,
    DataSpec,
    DecodeSpec,
    ModelSpec,
    PipelineSpec,
)


@pytest.fixture(scope="module")
def tiny_task():
    pair = load_benchmark("FBDB15K", seed_ratio=0.3, num_entities=36)
    return prepare_task(pair, structure_dim=16, seed=0)


@pytest.fixture(scope="module")
def tiny_model(tiny_task):
    return DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))


class TestTrainerShim:
    def test_trainer_does_not_warn(self, tiny_task, tiny_model):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            Trainer(tiny_model, tiny_task, TrainingConfig(epochs=1, eval_every=0))

    def test_trainer_result_equals_facade_result(self, tiny_task):
        config = TrainingConfig(epochs=2, eval_every=0, seed=0)
        model = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))
        legacy = Trainer(model, tiny_task, config).fit()

        spec = PipelineSpec(
            data=DataSpec(dataset="custom", num_entities=36, seed=0),
            model=ModelSpec(name="DESAlign", hidden_dim=16, seed=0),
            training=config,
        )
        aligner = AlignmentPipeline.from_spec(spec).fit(tiny_task)
        assert legacy.metrics == aligner.metrics


class TestSimilarityShim:
    def test_default_similarity_call_does_not_warn(self, tiny_model):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            blockwise_topk(*tiny_model.decode_states())

    def test_evaluator_path_does_not_warn(self, tiny_task, tiny_model):
        evaluator = Evaluator(tiny_task)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            evaluator.evaluate_model(tiny_model)

    def test_legacy_similarity_equals_facade_decode(self, tiny_task):
        spec = PipelineSpec(
            data=DataSpec(dataset="custom", num_entities=36, seed=0),
            model=ModelSpec(name="DESAlign", hidden_dim=16, seed=0),
            training=TrainingConfig(epochs=1, eval_every=0, seed=0),
            decode=DecodeSpec(decode="blockwise", k=5),
        )
        aligner = AlignmentPipeline.from_spec(spec).fit(tiny_task)
        legacy = blockwise_topk(*aligner.model.decode_states(), k=5)
        facade = aligner.topk()
        assert np.array_equal(legacy.indices, facade.indices)
        assert np.array_equal(legacy.scores, facade.scores)


class TestConsolidatedRules:
    """Each rejected combination, regression-tested on every entry surface."""

    def test_training_config_rejects_iterative_lsh(self, monkeypatch):
        # LSH is a plug-in now (examples/lsh_candidate_plugin.py); a
        # registered generator other than ivf still proves no top-1.
        monkeypatch.setitem(CANDIDATE_REGISTRY, "lsh", lambda *args: None)
        with pytest.raises(ValueError, match="'lsh' cannot offer"):
            TrainingConfig(iterative=True, candidates="lsh")

    def test_training_config_rejects_patience_without_cadence(self):
        with pytest.raises(ValueError, match="eval_every"):
            TrainingConfig(early_stopping_patience=1, eval_every=0)

    def test_training_config_rejects_unknown_candidates(self):
        with pytest.raises(ValueError, match="candidate"):
            TrainingConfig(candidates="faiss")

    def test_training_config_rejects_unknown_sampling(self):
        with pytest.raises(ValueError, match="sampling"):
            TrainingConfig(sampling="layerwise")

    def test_evaluator_rejects_csls_on_approximate_candidates(self, tiny_task):
        with pytest.raises(ValueError, match="CSLS"):
            Evaluator(tiny_task, ranking="csls", candidates="ivf")

    def test_messages_are_identical_across_surfaces(self, tiny_task):
        """The same rule produces byte-identical messages on every surface."""
        def capture(callable_):
            with pytest.raises(ValueError) as info:
                callable_()
            return str(info.value)

        spec_csls = capture(lambda: PipelineSpec(
            decode=DecodeSpec(ranking="csls", candidates="ivf")).validate())
        evaluator_csls = capture(lambda: Evaluator(tiny_task, ranking="csls",
                                                   candidates="ivf"))
        assert spec_csls == evaluator_csls


#: The ``ann`` payload every saved-spec case extends.
SAVED_ANN = {"n_clusters": 4, "nprobe": 2, "seed": 5}

#: Removed ``AnnConfig`` keys at values that load as if absent:
#: ``tables`` / ``hyperplanes`` at any value (they only shaped LSH).
INERT_ANN_KEYS = [{"tables": 8, "hyperplanes": 12},
                  {"tables": 3, "hyperplanes": 40},
                  {"adaptive_slack": 0.0},
                  {"gather": "edge"}]

#: Removed ``AnnConfig`` keys at values whose behaviour is gone.
REMOVED_ANN_VALUES = [{"adaptive_slack": 0.3}, {"gather": "bucket"}]


@pytest.fixture(scope="module")
def ivf_aligner(tiny_task):
    ann = AnnConfig(**SAVED_ANN)
    spec = PipelineSpec(
        data=DataSpec(dataset="custom", num_entities=36, seed=0),
        model=ModelSpec(name="DESAlign", hidden_dim=16, seed=0),
        training=TrainingConfig(epochs=1, eval_every=0, seed=0,
                                candidates="ivf", ann=ann),
        decode=DecodeSpec(candidates="ivf", ann=ann, k=5),
    )
    return AlignmentPipeline.from_spec(spec).fit(tiny_task)


def _with_saved_ann_keys(directory, extra: dict,
                         sections=("training", "decode")) -> None:
    """Rewrite an artifact's spec.json as if saved with ``extra`` ann keys."""
    path = directory / "spec.json"
    payload = json.loads(path.read_text())
    for section in sections:
        payload["spec"][section]["ann"].update(extra)
    path.write_text(json.dumps(payload))


class TestSavedAnnKeys:
    """Specs and artifacts saved before ``AnnConfig`` lost four fields."""

    @pytest.mark.parametrize("section", ["training", "decode"])
    @pytest.mark.parametrize("extra", INERT_ANN_KEYS,
                             ids=lambda extra: "-".join(f"{key}={value}"
                                                        for key, value in extra.items()))
    def test_inert_keys_load_as_if_absent(self, section, extra):
        payload = {section: {"candidates": "ivf",
                             "ann": {**SAVED_ANN, **extra}}}
        spec = PipelineSpec.from_dict(payload)
        assert getattr(spec, section).ann == AnnConfig(**SAVED_ANN)

    @pytest.mark.parametrize("section", ["training", "decode"])
    @pytest.mark.parametrize("removed", REMOVED_ANN_VALUES,
                             ids=lambda removed: "-".join(removed))
    def test_removed_values_raise_naming_the_removal(self, section, removed,
                                                     ivf_aligner, tmp_path):
        (key, value), = removed.items()
        message = f"{section}.ann.{key}={value!r} was removed"
        with pytest.raises(ValueError, match=message):
            PipelineSpec.from_dict({section: {
                "candidates": "ivf", "ann": {**SAVED_ANN, **removed}}})
        directory = ivf_aligner.save(tmp_path / "artifact")
        _with_saved_ann_keys(directory, removed, sections=(section,))
        with pytest.raises(ValueError, match=message):
            Aligner.load(directory)

    @pytest.mark.parametrize("section", ["training", "decode"])
    def test_lsh_without_its_plugin_lists_the_registered_generators(
            self, section):
        with pytest.raises(ValueError, match=r"registered candidate generator "
                                             r"\(\['exhaustive', 'ivf'\]\), "
                                             r"got 'lsh'"):
            PipelineSpec.from_dict({section: {"candidates": "lsh"}})

    def test_artifact_with_all_four_keys_loads_and_aligns_bit_identically(
            self, ivf_aligner, tmp_path):
        directory = ivf_aligner.save(tmp_path / "artifact")
        _with_saved_ann_keys(directory, {"tables": 8, "hyperplanes": 12,
                                         "adaptive_slack": 0.0,
                                         "gather": "edge"})
        loaded = Aligner.load(directory)
        assert loaded.spec == ivf_aligner.spec
        fitted, reloaded = ivf_aligner.align(5), loaded.align(5)
        assert np.array_equal(reloaded.target_ids, fitted.target_ids)
        assert np.array_equal(reloaded.scores, fitted.scores)
