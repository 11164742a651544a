"""IncrementalAligner: warm-start ingestion against from-scratch oracles."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.ann import AnnConfig
from repro.core.registries import CANDIDATE_REGISTRY
from repro.core.similarity import blockwise_topk
from repro.incremental import DeltaBatch, IncrementalAligner, SideDelta
from repro.pipeline import (Aligner, AlignmentPipeline, CUSTOM_DATASET,
                            DeltaSpec)

from conftest import incremental_spec


def growth_delta(task, num_source=4, num_target=3, seed_pair=True):
    n_s = task.source.num_entities
    n_t = task.target.num_entities
    return DeltaBatch(
        source=SideDelta(
            entity_names=[f"s-new-{i}" for i in range(num_source)],
            relation_triples=[(n_s, 0, 1), (n_s + 1, 1, 5)],
        ),
        target=SideDelta(
            entity_names=[f"t-new-{i}" for i in range(num_target)],
            relation_triples=[(n_t, 2, 3)],
        ),
        seed_pairs=[(n_s, n_t)] if seed_pair else (),
    )


class TestNoOp:
    def test_empty_delta_is_bit_exact_noop(self, artifact):
        inc = IncrementalAligner.from_artifact(artifact)
        before = inc.aligner
        report = inc.ingest(DeltaBatch())
        assert report.noop
        assert report.aligner is before
        assert report.generation == 0
        assert report.rows_encoded == 0 and report.rows_decoded == 0
        assert inc.generation == 0


class TestIngestExactness:
    def test_table_matches_full_decode_over_maintained_candidates(self,
                                                                  artifact):
        inc = IncrementalAligner.from_artifact(artifact)
        report = inc.ingest(growth_delta(inc.task))
        table = report.aligner.topk(5)
        src_states, tgt_states = report.aligner.decode_states()
        oracle = blockwise_topk(src_states, tgt_states, k=5,
                                row_candidates=inc._candidates)
        assert np.array_equal(table.indices, oracle.indices)
        assert np.array_equal(table.scores, oracle.scores)
        assert table.approximate
        assert table.shape == (src_states[0].shape[0], tgt_states[0].shape[0])

    def test_warm_encode_matches_full_reencode(self, artifact):
        """Warm states agree with a from-scratch re-encode.

        The artifact decodes with ``encode="full"`` (one whole-graph
        forward) while the warm path runs the subgraph forward, which sums
        the same terms in a different order — so re-encoded rows agree to
        float ulps, and rows outside the receptive field are bit-identical.
        """
        inc = IncrementalAligner.from_artifact(artifact)
        report = inc.ingest(growth_delta(inc.task))
        warm_src, warm_tgt = report.aligner.decode_states()
        fresh = Aligner(report.aligner.spec, task=report.aligner.task,
                        model=inc.model)
        full_src, full_tgt = fresh.decode_states()
        assert len(warm_src) == len(full_src)
        for warm, full in zip(warm_src + warm_tgt, full_src + full_tgt):
            warm, full = np.asarray(warm), np.asarray(full)
            assert np.allclose(warm, full, rtol=0.0, atol=1e-12)
            identical = np.all(warm == full, axis=1)
            # the difference is localised to the delta's receptive field
            assert identical.sum() > len(identical) // 2

    def test_warm_encode_bit_exact_under_sampled_encode(self, artifact):
        """With ``encode="sampled"`` both paths run the identical kernel."""
        base = Aligner.load(artifact)
        sampled = base.with_decode(replace(base.spec.decode,
                                           encode="sampled"))
        inc = IncrementalAligner(sampled)
        report = inc.ingest(growth_delta(inc.task))
        warm_src, warm_tgt = report.aligner.decode_states()
        fresh = Aligner(report.aligner.spec, task=report.aligner.task,
                        model=inc.model)
        full_src, full_tgt = fresh.decode_states()
        for warm, full in zip(warm_src + warm_tgt, full_src + full_tgt):
            assert np.array_equal(np.asarray(warm), np.asarray(full))

    def test_second_ingest_is_proportional(self, artifact):
        inc = IncrementalAligner.from_artifact(artifact)
        first = inc.ingest(growth_delta(inc.task))
        n_s = inc.task.source.num_entities
        small = DeltaBatch(source=SideDelta(
            entity_names=["late"], relation_triples=[(n_s, 0, 2)]))
        second = inc.ingest(small)
        assert second.generation == 2
        assert second.num_new_source == 1 and second.num_new_target == 0
        # a one-entity delta re-encodes / re-decodes a strict subset
        assert 0 < second.rows_encoded < first.rows_encoded
        assert 0 < second.rows_decoded < inc.task.source.num_entities
        assert inc.total_rows_decoded == (first.rows_decoded
                                          + second.rows_decoded)
        table = second.aligner.topk(5)
        src_states, tgt_states = second.aligner.decode_states()
        oracle = blockwise_topk(src_states, tgt_states, k=5,
                                row_candidates=inc._candidates)
        assert np.array_equal(table.indices, oracle.indices)
        assert np.array_equal(table.scores, oracle.scores)

    def test_refit_threshold_triggers_requantisation(self, artifact):
        inc = IncrementalAligner.from_artifact(
            artifact, delta_spec=DeltaSpec(refit_threshold=1e-6))
        report = inc.ingest(growth_delta(inc.task))
        assert report.refit
        assert inc.total_refits == 1
        # post-refit candidates + table still agree with a full decode
        table = report.aligner.topk(5)
        src_states, tgt_states = report.aligner.decode_states()
        oracle = blockwise_topk(src_states, tgt_states, k=5,
                                row_candidates=inc._candidates)
        assert np.array_equal(table.indices, oracle.indices)
        assert np.array_equal(table.scores, oracle.scores)

    def test_seed_pairs_extend_train_split(self, artifact):
        inc = IncrementalAligner.from_artifact(artifact)
        n_before = len(inc.task.train_pairs)
        report = inc.ingest(growth_delta(inc.task, seed_pair=True))
        assert len(report.aligner.task.train_pairs) == n_before + 1
        assert np.array_equal(report.aligner.task.test_pairs,
                              inc.aligner.task.test_pairs)


class TestExhaustiveFallback:
    def test_exhaustive_decode_re_decodes_in_full(self, artifact):
        base = Aligner.load(artifact)
        exhaustive = base.with_decode(
            replace(base.spec.decode, candidates="exhaustive"))
        inc = IncrementalAligner(exhaustive)
        report = inc.ingest(growth_delta(inc.task))
        assert report.rows_decoded == report.aligner.task.source.num_entities
        table = report.aligner.topk(5)
        assert not table.approximate
        src_states, tgt_states = report.aligner.decode_states()
        oracle = blockwise_topk(src_states, tgt_states, k=5)
        assert np.array_equal(table.indices, oracle.indices)
        assert np.array_equal(table.scores, oracle.scores)


class TestArtifactRoundTrip:
    def test_ingest_persists_a_promotable_artifact(self, artifact, tmp_path):
        inc = IncrementalAligner.from_artifact(artifact)
        report = inc.ingest(growth_delta(inc.task),
                            directory=tmp_path / "updated")
        loaded = Aligner.load(tmp_path / "updated")
        # the promoted spec is flipped to the custom dataset so load never
        # regenerates the (smaller) benchmark task around the parameters
        assert loaded.spec.data.dataset == CUSTOM_DATASET
        table = loaded.topk(5)
        assert np.array_equal(table.indices, report.aligner.topk(5).indices)
        assert np.array_equal(table.scores, report.aligner.topk(5).scores)
        ranked = loaded.rank([0, 1], 5)
        assert ranked.target_ids.shape == (2, 5)
        # custom-dataset artifacts drop the model, so they cannot seed
        # another incremental chain
        with pytest.raises(ValueError, match="custom-dataset"):
            IncrementalAligner(loaded)


class TestRejections:
    def test_lsh_candidates_rejected(self, artifact, monkeypatch):
        # LSH is a plug-in now (examples/lsh_candidate_plugin.py); only IVF
        # has centroids to insert into.
        monkeypatch.setitem(CANDIDATE_REGISTRY, "lsh", lambda *args: None)
        base = Aligner.load(artifact)
        lsh = base.with_decode(replace(base.spec.decode, candidates="lsh"))
        with pytest.raises(ValueError, match="no centroid structure"):
            IncrementalAligner(lsh)

    def test_exact_escalation_rejected(self, artifact):
        base = Aligner.load(artifact)
        escalated = base.with_decode(replace(
            base.spec.decode,
            ann=AnnConfig(n_clusters=4, nprobe=2, exact_escalation=True)))
        with pytest.raises(ValueError, match="exact-escalation"):
            IncrementalAligner(escalated)

    def test_propagation_average_false_rejected(self):
        spec = incremental_spec()
        spec = spec.with_overrides(model=replace(
            spec.model, options={"propagation_iters": 1,
                                 "propagation_average": False}))
        aligner = AlignmentPipeline.from_spec(spec).fit()
        with pytest.raises(ValueError, match="propagation_average"):
            IncrementalAligner(aligner)
