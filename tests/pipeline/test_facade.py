"""AlignmentPipeline facade: lifecycle, caching, persistence, legacy parity."""

import json
import threading
import time
import warnings

import numpy as np
import pytest

from oracles import reference_similarity
from repro.core import ann as ann_module
from repro.core.alignment import csls_similarity
from repro.core.ann import AnnConfig
from repro.core.config import DESAlignConfig, TrainingConfig
from repro.core.model import DESAlign
from repro.core.task import prepare_task
from repro.core.trainer import Trainer
from repro.data.benchmarks import load_benchmark
from repro.eval.metrics import EVALUATION_K, evaluate_alignment
from repro.kg import AlignmentPair, KGPair
from repro.pipeline import (
    Aligner,
    AlignmentPipeline,
    DataSpec,
    DecodeSpec,
    ModelSpec,
    PipelineSpec,
)


def small_spec(**decode_kwargs) -> PipelineSpec:
    return PipelineSpec(
        data=DataSpec(dataset="FBDB15K", num_entities=40, seed_ratio=0.3, seed=0),
        model=ModelSpec(name="DESAlign", hidden_dim=16,
                        options={"propagation_iters": 2}),
        training=TrainingConfig(epochs=2, eval_every=0, seed=0),
        decode=DecodeSpec(k=5, **decode_kwargs),
    )


@pytest.fixture(scope="module")
def fitted():
    return AlignmentPipeline.from_spec(small_spec()).fit()


@pytest.fixture(scope="module")
def restricted_artifact(tmp_path_factory):
    """A saved IVF artifact with more source rows than the largest batch."""
    spec = small_spec(decode="blockwise", candidates="ivf",
                      ann=AnnConfig(n_clusters=6, nprobe=1))
    spec = spec.with_overrides(data=DataSpec(
        dataset="FBDB15K", num_entities=120, seed_ratio=0.3, seed=0))
    directory = tmp_path_factory.mktemp("restricted") / "artifact"
    AlignmentPipeline.from_spec(spec).fit().save(directory)
    return directory


class TestLifecycle:
    def test_fit_returns_populated_aligner(self, fitted):
        assert fitted.metrics is not None
        assert fitted.model is not None
        assert fitted.task is not None
        assert 0.0 <= fitted.metrics.hits_at_1 <= 1.0

    def test_align_shapes_and_ordering(self, fitted):
        table = fitted.align()
        n_source = fitted.task.source.num_entities
        assert table.target_ids.shape == (n_source, 5)
        assert table.scores.shape == (n_source, 5)
        # descending scores per row
        assert np.all(np.diff(table.scores, axis=1) <= 0)
        assert not table.approximate

    def test_align_k_override(self, fitted):
        assert fitted.align(k=3).target_ids.shape[1] == 3
        assert fitted.align(k=3).k == 3

    def test_rank_matches_align_rows(self, fitted):
        table = fitted.align()
        ranked = fitted.rank([2, 7, 11])
        assert np.array_equal(ranked.target_ids, table.target_ids[[2, 7, 11]])
        assert np.array_equal(ranked.source_ids, [2, 7, 11])

    def test_rank_rejects_out_of_range_ids(self, fitted):
        with pytest.raises(ValueError, match="entity ids must lie in"):
            fitted.rank([10_000])

    def test_evaluate_matches_fit_metrics(self, fitted):
        # fit() evaluated through the same decode spec; a repeated
        # evaluation of the unchanged model must agree.
        assert fitted.evaluate() == fitted.metrics

    def test_pairs_and_records_and_tsv(self, fitted):
        table = fitted.rank([0, 1], k=2)
        assert len(table.pairs()) == 2
        records = table.to_records()
        assert records[0]["source"] == 0 and len(records[0]["targets"]) == 2
        tsv = table.to_tsv()
        assert tsv.startswith("source\trank\ttarget\tscore")
        assert len(tsv.strip().splitlines()) == 1 + 2 * 2

    def test_with_decode_shares_model_but_not_caches(self, fitted):
        sibling = fitted.with_decode(DecodeSpec(k=5, use_propagation=False))
        assert sibling.model is fitted.model
        # different decode pipelines disagree somewhere
        assert sibling.spec.decode.use_propagation is False
        assert sibling.evaluate() is not None

    def test_fit_accepts_prepared_task(self):
        spec = small_spec()
        task = AlignmentPipeline.from_spec(spec).build_task()
        aligner = AlignmentPipeline.from_spec(spec).fit(task)
        assert aligner.task is task


class TestCaching:
    def test_topk_cached_per_k(self, fitted):
        assert fitted.topk(5) is fitted.topk(5)
        assert fitted.topk(5) is not fitted.topk(3)

    def test_decode_states_computed_once(self, fitted):
        first = fitted.decode_states()
        assert fitted.decode_states() is first

    def test_candidate_generation_runs_once_across_ks(self, monkeypatch):
        spec = small_spec(decode="blockwise", candidates="ivf",
                          ann=AnnConfig(n_clusters=6, nprobe=1))
        aligner = AlignmentPipeline.from_spec(spec).fit()
        calls = []
        original = ann_module.generate_candidates

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr("repro.pipeline.facade.generate_candidates", counting)
        aligner.align(3)
        aligner.align(5)
        aligner.rank([0], k=2)
        assert len(calls) == 1  # the quantiser is fitted once and reused
        assert aligner.align(3).approximate

    @pytest.mark.parametrize("batch", [1, 3, 17, 64])
    def test_rank_rows_matches_full_align_on_restricted_artifact(
            self, restricted_artifact, batch):
        aligner = Aligner.load(restricted_artifact)
        num_source = aligner.decode_states()[0][0].shape[0]
        ids = np.random.default_rng(batch).choice(num_source, size=batch,
                                                  replace=False)
        subset = aligner.rank(ids, k=5)   # decodes only the requested rows
        full = aligner.align(k=5)         # whole-corpus decode
        assert np.array_equal(subset.target_ids, full.target_ids[ids])
        assert np.array_equal(subset.scores, full.scores[ids])
        assert subset.approximate

    def test_rank_rows_charges_its_partial_cells_once(self,
                                                      restricted_artifact):
        aligner = Aligner.load(restricted_artifact)
        ids = np.array([0, 4, 9, 33])
        states = aligner.decode_states()
        width = min(7, states[1][0].shape[0])
        padded = aligner.row_candidates().select_rows(ids).padded(width)
        with ann_module.flops_counter() as counter:
            aligner.rank_rows(ids, k=7)
        assert counter.cells == int(padded.counts.sum()) * len(states[0]) > 0

    def test_concurrent_first_topk_decodes_once(self, restricted_artifact,
                                                monkeypatch):
        import repro.pipeline.facade as facade

        original = facade.blockwise_topk
        calls = []

        def slow_decode(*args, **kwargs):
            calls.append(1)
            time.sleep(0.2)
            return original(*args, **kwargs)

        monkeypatch.setattr(facade, "blockwise_topk", slow_decode)
        aligner = Aligner.load(restricted_artifact)
        tables = [None, None]

        def query(slot):
            tables[slot] = aligner.topk(7)

        threads = [threading.Thread(target=query, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert len(calls) == 1
        assert tables[0] is tables[1]
        assert np.array_equal(tables[0].indices, tables[1].indices)


class TestColumnStatistics:
    """An aligner's table carries the column statistics only under CSLS.

    The 40-entity tables are one scan block, so the dense round average
    is the scan's own product and the metrics must equal it exactly.
    """

    def test_cosine_table_skips_them_and_evaluates_exactly(self, fitted):
        table = fitted.topk(EVALUATION_K)
        assert not table.approximate
        for name in ("col_max", "col_argmax", "row_knn_mean", "col_knn_mean"):
            assert getattr(table, name) is None
        dense = reference_similarity(*fitted.decode_states())
        assert fitted.evaluate() == evaluate_alignment(
            dense, fitted.task.test_pairs)

    def test_csls_table_has_them_and_matches_the_dense_oracle(self, fitted):
        csls = fitted.with_decode(DecodeSpec(k=5, ranking="csls"))
        table = csls.topk(EVALUATION_K)
        for name in ("col_max", "col_argmax", "row_knn_mean", "col_knn_mean"):
            assert getattr(table, name) is not None
        dense = reference_similarity(*csls.decode_states())
        assert csls.evaluate() == evaluate_alignment(
            csls_similarity(dense), csls.task.test_pairs)


class TestLegacyParity:
    def test_facade_metrics_equal_legacy_trainer_path(self):
        spec = small_spec()
        aligner = AlignmentPipeline.from_spec(spec).fit()

        pair = load_benchmark("FBDB15K", seed_ratio=0.3, num_entities=40)
        task = prepare_task(pair, structure_dim=16, seed=0)
        model = DESAlign(task, DESAlignConfig(hidden_dim=16, seed=0,
                                              propagation_iters=2))
        result = Trainer(model, task, spec.training).fit()
        assert result.metrics == aligner.metrics

    def test_facade_emits_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            aligner = AlignmentPipeline.from_spec(small_spec()).fit()
            aligner.align()
            aligner.evaluate()


class TestPersistence:
    def test_save_load_decode_is_bit_identical(self, fitted, tmp_path):
        fitted.save(tmp_path / "artifact")
        loaded = Aligner.load(tmp_path / "artifact")
        original = fitted.align()
        restored = loaded.align()
        assert np.array_equal(original.target_ids, restored.target_ids)
        assert np.array_equal(original.scores, restored.scores)
        # at a different k as well — states are the persisted quantity
        assert np.array_equal(fitted.align(k=3).scores, loaded.align(k=3).scores)

    def test_load_is_lazy_for_pure_serving(self, fitted, tmp_path):
        fitted.save(tmp_path / "artifact")
        loaded = Aligner.load(tmp_path / "artifact")
        # align/rank serve from the persisted decode payloads without
        # regenerating the benchmark or building a model...
        loaded.align()
        assert loaded.model is None and loaded.task is None
        # ...and evaluate scores that cached decode, still model-free.
        loaded.evaluate()
        assert loaded.model is None

    def test_save_load_restores_model_parameters(self, fitted, tmp_path):
        fitted.save(tmp_path / "artifact")
        loaded = Aligner.load(tmp_path / "artifact")
        assert loaded._ensure_model()
        original_state = fitted.model.state_dict()
        restored_state = loaded.model.state_dict()
        assert set(original_state) == set(restored_state)
        for key, values in original_state.items():
            assert np.array_equal(values, restored_state[key]), key

    def test_load_rejects_artifact_with_missing_params(self, fitted, tmp_path):
        directory = fitted.save(tmp_path / "artifact")
        (directory / "params.npz").unlink()
        with pytest.raises(FileNotFoundError, match="incomplete"):
            Aligner.load(directory)

    def test_resave_of_unmaterialised_load_keeps_params(self, fitted, tmp_path):
        fitted.save(tmp_path / "first")
        loaded = Aligner.load(tmp_path / "first")
        loaded.save(tmp_path / "second")  # model never materialised
        again = Aligner.load(tmp_path / "second")
        assert again.evaluate() == fitted.metrics

    def test_loaded_aligner_evaluates(self, fitted, tmp_path):
        fitted.save(tmp_path / "artifact")
        loaded = Aligner.load(tmp_path / "artifact")
        assert loaded.evaluate() == fitted.metrics

    def test_ivf_artifact_round_trips_candidates(self, tmp_path):
        spec = small_spec(decode="blockwise", candidates="ivf",
                          ann=AnnConfig(n_clusters=6, nprobe=1))
        aligner = AlignmentPipeline.from_spec(spec).fit()
        aligner.save(tmp_path / "artifact")
        loaded = Aligner.load(tmp_path / "artifact")
        assert np.array_equal(aligner.align().scores, loaded.align().scores)
        assert loaded.align().approximate

    def test_custom_data_artifact_serves_without_model(self, tmp_path):
        rng = np.random.default_rng(0)
        pair = load_benchmark("FBDB15K", seed_ratio=0.3, num_entities=32)
        custom = KGPair(source=pair.source, target=pair.target,
                        alignments=[AlignmentPair(p.source, p.target)
                                    for p in pair.alignments],
                        seed_ratio=0.3, name="custom-demo")
        del rng
        spec = PipelineSpec(
            data=DataSpec(dataset="custom", num_entities=32, seed=0),
            model=ModelSpec(name="DESAlign", hidden_dim=16),
            training=TrainingConfig(epochs=1, eval_every=0, seed=0),
            decode=DecodeSpec(k=5),
        )
        aligner = AlignmentPipeline.from_spec(spec).fit(custom)
        aligner.save(tmp_path / "artifact")
        loaded = Aligner.load(tmp_path / "artifact")
        assert not loaded._ensure_model()  # custom data cannot be regenerated
        assert np.array_equal(loaded.align().scores, aligner.align().scores)
        metrics = loaded.evaluate()  # served from the cached decode
        assert 0.0 <= metrics.hits_at_1 <= 1.0
        # with_decode keeps the cached states when only ranking/k change,
        # so a model-less artifact still supports decode ablations.
        sibling = loaded.with_decode(DecodeSpec(k=3))
        assert np.array_equal(sibling.align().target_ids,
                              loaded.align(k=3).target_ids)

    def test_mmap_load_is_bit_identical(self, fitted, tmp_path):
        directory = fitted.save(tmp_path / "artifact")
        mapped = Aligner.load(directory, mmap=True)
        # decode states are served from read-only memory maps ...
        states = mapped.decode_states()
        assert all(isinstance(state, np.memmap)
                   for side in states for state in side)
        assert all(not state.flags.writeable
                   for side in states for state in side)
        # ... and every decode agrees bit for bit with the in-memory load
        plain = Aligner.load(directory)
        assert np.array_equal(mapped.align().scores, plain.align().scores)
        assert np.array_equal(mapped.rank([0, 5]).scores,
                              plain.rank([0, 5]).scores)
        # the store's .npy files are mapped natively — no extraction cache
        assert not (directory / ".mmap_cache").exists()

    def test_decode_fingerprint_tracks_the_spec(self, fitted, tmp_path):
        directory = fitted.save(tmp_path / "artifact")
        loaded = Aligner.load(directory)
        assert loaded.decode_fingerprint() == fitted.decode_fingerprint()
        sibling = fitted.with_decode(DecodeSpec(k=5, use_propagation=False))
        assert sibling.decode_fingerprint() != fitted.decode_fingerprint()

    def test_load_rejects_missing_and_foreign_directories(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="spec.json"):
            Aligner.load(tmp_path / "missing")

    def test_load_rejects_unknown_format_version(self, fitted, tmp_path):
        import json
        directory = fitted.save(tmp_path / "artifact")
        payload = json.loads((directory / "spec.json").read_text())
        payload["format_version"] = 99
        (directory / "spec.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format_version"):
            Aligner.load(directory)

    def test_load_rejects_version_1_artifact(self, fitted, tmp_path):
        import json
        directory = fitted.save(tmp_path / "artifact")
        payload = json.loads((directory / "spec.json").read_text())
        payload["format_version"] = 1
        (directory / "spec.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format_version 1"):
            Aligner.load(directory)

    def test_load_rejects_bucket_gather_artifact(self, fitted, tmp_path):
        import json
        directory = fitted.save(tmp_path / "artifact")
        payload = json.loads((directory / "spec.json").read_text())
        payload["spec"]["decode"].update(candidates="ivf",
                                         ann={"gather": "bucket"})
        (directory / "spec.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError,
                           match="decode.ann.gather='bucket' was removed"):
            Aligner.load(directory)

    def test_loaded_preset_artifact_evaluates_without_propagation(
            self, fitted, tmp_path):
        directory = fitted.save(tmp_path / "artifact")
        loaded = Aligner.load(directory)
        decode = DecodeSpec(k=5, use_propagation=False)
        # The artifact caches propagated states only, so the sibling
        # rebuilds the preset's model from the saved parameters.
        sibling = loaded.with_decode(decode)
        assert sibling.evaluate() == fitted.with_decode(decode).evaluate()
        assert sibling.model is not None
        assert loaded.model is None


#: One spec per model family, each with training and decode settings that
#: match, so fit-time and artifact evaluations decode the same states.
_PARITY_SPECS = {
    "desalign-full-iterative": (
        ModelSpec(name="DESAlign", hidden_dim=16,
                  options={"propagation_iters": 2}),
        TrainingConfig(epochs=2, eval_every=0, iterative=True,
                       iterative_rounds=1, iterative_epochs=1, seed=0),
        DecodeSpec(k=5)),
    "desalign-neighbour": (
        ModelSpec(name="DESAlign", hidden_dim=16,
                  options={"propagation_iters": 2}),
        TrainingConfig(epochs=2, eval_every=0, sampling="neighbour",
                       fanouts=(4, 4), seed=0),
        DecodeSpec(k=5, encode="sampled")),
    "eva": (ModelSpec(name="EVA", hidden_dim=16),
            TrainingConfig(epochs=2, eval_every=0, seed=0), DecodeSpec(k=5)),
    "transe": (ModelSpec(name="TransE", hidden_dim=16),
               TrainingConfig(epochs=2, eval_every=0, seed=0),
               DecodeSpec(k=5)),
}


class TestOneDecodePath:
    """Fit-time, in-memory and reloaded evaluations score one decode."""

    @pytest.mark.parametrize("name", sorted(_PARITY_SPECS))
    def test_fit_evaluate_and_reload_metrics_agree(self, name, tmp_path):
        model, training, decode = _PARITY_SPECS[name]
        spec = PipelineSpec(
            data=DataSpec(dataset="FBDB15K", num_entities=40, seed_ratio=0.3,
                          seed=0),
            model=model, training=training, decode=decode)
        aligner = AlignmentPipeline.from_spec(spec).fit()
        loaded = Aligner.load(aligner.save(tmp_path / "artifact"))
        assert aligner.metrics == aligner.evaluate() == loaded.evaluate()
        assert loaded.model is None

    def test_approximate_artifact_evaluates_at_h10_after_reload(self, tmp_path):
        # An IVF decode with k=5 stores five neighbours per row; both the
        # in-memory and the reloaded evaluation must still rank at k=10.
        pair = load_benchmark("FBDB15K", num_entities=300)
        ann = AnnConfig(n_clusters=8, nprobe=2)
        spec = PipelineSpec(
            data=DataSpec(dataset="custom", num_entities=300, seed=0),
            training=TrainingConfig(epochs=5, eval_every=0, seed=0,
                                    candidates="ivf", ann=ann),
            decode=DecodeSpec(k=5, candidates="ivf", ann=ann))
        aligner = AlignmentPipeline.from_spec(spec).fit(pair)
        loaded = Aligner.load(aligner.save(tmp_path / "artifact"))
        assert aligner.metrics == aligner.evaluate() == loaded.evaluate()
        assert loaded.align().approximate


def _saved_spec_payload(name: str, data_backend: str,
                        model_backend: str | None = None) -> dict:
    """A spec dict as saved before CSR became the only graph representation."""
    options = {"propagation_iters": 2} if name == "DESAlign" else {}
    if model_backend is not None:
        options["backend"] = model_backend
    return {
        "data": {"dataset": "FBDB15K", "num_entities": 40, "seed_ratio": 0.3,
                 "backend": data_backend, "seed": 0},
        "model": {"name": name, "hidden_dim": 16, "options": options},
        "training": {"epochs": 2, "eval_every": 0, "seed": 0},
        "decode": {"k": 5},
    }


class TestSavedBackendOptions:
    """``data.backend`` and the removed ``model.options.backend`` are inert."""

    @pytest.fixture(scope="class", params=["DESAlign", "EVA"])
    def reference(self, request):
        spec = PipelineSpec.from_dict(_saved_spec_payload(request.param, "sparse"))
        return request.param, AlignmentPipeline.from_spec(spec).fit()

    @pytest.mark.parametrize("model_backend", ["auto", "dense", "sparse"])
    def test_saved_spec_fits_and_reloads_identically(self, reference, model_backend,
                                                     tmp_path):
        name, expected = reference
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_saved_spec_payload(name, "dense", model_backend)))
        spec = PipelineSpec.from_json_file(path)
        assert spec.data.backend == "dense"
        assert spec.model.options["backend"] == model_backend

        aligner = AlignmentPipeline.from_spec(spec).fit()
        assert aligner.metrics == expected.metrics

        loaded = Aligner.load(aligner.save(tmp_path / "artifact"))
        table, restored = expected.align(), loaded.align()
        assert np.array_equal(table.target_ids, restored.target_ids)
        assert np.array_equal(table.scores, restored.scores)
        assert loaded._ensure_model()
        restored_state = loaded.model.state_dict()
        for key, values in expected.model.state_dict().items():
            assert np.array_equal(values, restored_state[key]), key


class TestRegistryExtension:
    def test_registered_model_plugs_into_the_facade(self):
        from repro.core.registries import MODEL_REGISTRY, _MODEL_INFO, register_model
        from repro.baselines import EVA, BaselineConfig

        @register_model("TestEVA")
        class _TestEVA(EVA):
            def __init__(self, task, hidden_dim=32, seed=0):
                super().__init__(task, BaselineConfig(hidden_dim=hidden_dim,
                                                      seed=seed))

        try:
            spec = PipelineSpec(
                data=DataSpec(dataset="FBDB15K", num_entities=32, seed_ratio=0.3),
                model=ModelSpec(name="TestEVA", hidden_dim=16),
                training=TrainingConfig(epochs=1, eval_every=0),
                decode=DecodeSpec(k=3, use_propagation=False),
            )
            aligner = AlignmentPipeline.from_spec(spec).fit()
            assert isinstance(aligner.model, _TestEVA)
            assert aligner.align().target_ids.shape[1] == 3
        finally:
            MODEL_REGISTRY.pop("TestEVA", None)
            _MODEL_INFO.pop("TestEVA", None)
