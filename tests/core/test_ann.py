"""Unit tests for the approximate candidate-generation layer (repro.core.ann)."""

import numpy as np
import pytest

from oracles import reference_mutual_pairs, reference_topk
from repro.core import DESAlign, DESAlignConfig
from repro.core.alignment import cosine_similarity, mutual_nearest_pairs
from repro.core.ann import (
    AnnConfig,
    IVFIndex,
    IVFWarmStart,
    RowCandidates,
    flops_counter,
    generate_candidates,
    recall_at_k,
)
from repro.core.similarity import blockwise_topk
from repro.eval.evaluator import Evaluator
from repro.eval.metrics import evaluate_alignment, ranks_from_similarity
from repro.pipeline import DecodeSpec


@pytest.fixture
def clustered_embeddings():
    """A noisy-copy geometry where ANN recall is meaningfully high."""
    rng = np.random.default_rng(7)
    source = rng.normal(size=(120, 12))
    target = np.vstack([source + 0.15 * rng.normal(size=source.shape),
                        rng.normal(size=(40, 12))])
    return source, target


class TestRowCandidates:
    def test_from_pairs_dedupes_and_sorts(self):
        cands = RowCandidates.from_pairs([1, 0, 1, 1], [5, 2, 3, 5],
                                         num_rows=3, num_columns=6)
        assert cands.row(0).tolist() == [2]
        assert cands.row(1).tolist() == [3, 5]
        assert cands.row(2).tolist() == []
        assert cands.total == 3
        assert cands.counts.tolist() == [1, 2, 0]

    def test_complete_and_density(self):
        cands = RowCandidates.complete(3, 4)
        assert cands.is_complete()
        assert cands.density == 1.0

    def test_union(self):
        a = RowCandidates.from_pairs([0, 1], [1, 2], 2, 4)
        b = RowCandidates.from_pairs([0, 0], [1, 3], 2, 4)
        merged = a.union(b)
        assert merged.row(0).tolist() == [1, 3]
        assert merged.row(1).tolist() == [2]

    def test_transposed(self):
        cands = RowCandidates.from_pairs([0, 0, 2], [1, 3, 0], 3, 4)
        flipped = cands.transposed()
        assert flipped.num_rows == 4
        assert flipped.num_columns == 3
        assert flipped.row(1).tolist() == [0]
        assert flipped.row(0).tolist() == [2]

    def test_padded_tops_up_deficient_rows(self):
        cands = RowCandidates.from_pairs([0, 1], [4, 0], 2, 6)
        padded = cands.padded(3)
        assert padded.counts.min() == 3
        assert padded.row(0).tolist() == [0, 1, 4]
        assert padded.row(1).tolist() == [0, 1, 2]
        # already-sufficient structures are returned unchanged
        assert padded.padded(2) is padded

    def test_padded_handles_out_of_window_and_empty_rows(self):
        cands = RowCandidates.from_pairs([0, 2, 2], [50, 0, 1], 3, 60)
        padded = cands.padded(3)
        assert padded.row(0).tolist() == [0, 1, 50]
        assert padded.row(1).tolist() == [0, 1, 2]      # was empty
        assert padded.row(2).tolist() == [0, 1, 2]
        # a floor above the column count clips to the full column set
        assert RowCandidates.from_pairs([0], [1], 1, 4).padded(99).row(0).tolist() \
            == [0, 1, 2, 3]

    def test_validation(self):
        with pytest.raises(ValueError):
            RowCandidates(indptr=[0, 2], indices=[0, 9], num_columns=3)
        with pytest.raises(ValueError):
            RowCandidates(indptr=[1, 2], indices=[0], num_columns=3)


class TestIVFIndex:
    def test_buckets_partition_the_vectors(self, clustered_embeddings):
        _, target = clustered_embeddings
        index = IVFIndex(target, n_clusters=8, seed=0)
        members = np.sort(index.bucket_indices)
        assert np.array_equal(members, np.arange(len(target)))
        for cluster in range(index.n_clusters):
            bucket = index.bucket_indices[
                index.bucket_indptr[cluster]:index.bucket_indptr[cluster + 1]]
            assert np.all(index.assignments[bucket] == cluster)

    def test_radii_cover_members(self, clustered_embeddings):
        _, target = clustered_embeddings
        index = IVFIndex(target, n_clusters=6, seed=1)
        distances = np.linalg.norm(
            target - index.centroids[index.assignments], axis=1)
        for cluster in range(index.n_clusters):
            mask = index.assignments == cluster
            if mask.any():
                assert distances[mask].max() <= index.radii[cluster] + 1e-12

    def test_nprobe_grows_candidate_sets(self, clustered_embeddings):
        source, target = clustered_embeddings
        index = IVFIndex(target, n_clusters=8, seed=0)
        narrow = index.candidates(source, nprobe=1)
        wide = index.candidates(source, nprobe=4)
        assert wide.total > narrow.total
        # wider probing is a superset row by row
        for row in range(5):
            assert set(narrow.row(row)) <= set(wide.row(row))

    def test_zero_kmeans_iters_keeps_random_centroids(self, clustered_embeddings):
        _, target = clustered_embeddings
        index = IVFIndex(target, n_clusters=6, kmeans_iters=0, seed=0)
        # raw random-centroid bucketing still partitions every vector
        assert np.array_equal(np.sort(index.bucket_indices), np.arange(len(target)))
        rng = np.random.default_rng(0)
        expected = target[rng.choice(len(target), size=6, replace=False)]
        assert np.array_equal(index.centroids, expected)

    def test_invalid_inputs(self, clustered_embeddings):
        _, target = clustered_embeddings
        with pytest.raises(ValueError):
            IVFIndex(np.empty((0, 3)))
        index = IVFIndex(target, n_clusters=4, seed=0)
        with pytest.raises(ValueError):
            index.candidates(target[:3], nprobe=0)


class TestIVFWarmStart:
    def test_store_and_get_guard_shapes(self, clustered_embeddings):
        _, target = clustered_embeddings
        warm = IVFWarmStart()
        assert len(warm) == 0
        assert warm.get("forward", 6, target.shape[1]) is None
        centroids = target[:6].copy()
        warm.store("forward", centroids)
        assert len(warm) == 1
        assert np.array_equal(warm.get("forward", 6, target.shape[1]), centroids)
        # a stale shape (different cluster count or dimension) is never reused
        assert warm.get("forward", 7, target.shape[1]) is None
        assert warm.get("forward", 6, target.shape[1] + 1) is None

    def test_warm_start_from_converged_centroids_is_bit_identical(
            self, clustered_embeddings):
        _, target = clustered_embeddings
        # enough Lloyd iterations that the cold index converges (the
        # early-exit fires), so its centroids are self-consistent means
        cold = IVFIndex(target, n_clusters=6, kmeans_iters=64, seed=0)
        warm = IVFIndex(target, n_clusters=6, kmeans_iters=64, seed=999,
                        init_centroids=cold.centroids)
        assert np.array_equal(warm.centroids, cold.centroids)
        assert np.array_equal(warm.assignments, cold.assignments)
        assert np.array_equal(warm.bucket_indices, cold.bucket_indices)

    def test_mismatched_init_shape_falls_back_to_cold_start(
            self, clustered_embeddings):
        _, target = clustered_embeddings
        cold = IVFIndex(target, n_clusters=6, seed=3)
        stale = IVFIndex(target, n_clusters=6, seed=3,
                         init_centroids=np.zeros((9, target.shape[1])))
        assert np.array_equal(stale.centroids, cold.centroids)
        assert np.array_equal(stale.assignments, cold.assignments)

    def test_generate_candidates_reuses_and_refreshes_centroids(
            self, clustered_embeddings):
        source, target = clustered_embeddings
        config = AnnConfig(n_clusters=8, nprobe=2, kmeans_iters=64, seed=0)
        warm = IVFWarmStart()
        with flops_counter() as cold_flops:
            first = generate_candidates("ivf", source, target, config,
                                        warm_start=warm)
        assert len(warm) == 1  # the forward quantiser was recorded
        with flops_counter() as warm_flops:
            second = generate_candidates("ivf", source, target, config,
                                         warm_start=warm)
        # same data + converged warm centroids: identical candidate sets,
        # but Lloyd exits after one unchanged assignment pass
        assert np.array_equal(first.indices, second.indices)
        assert np.array_equal(first.indptr, second.indptr)
        assert warm_flops.cells < cold_flops.cells

    def test_escalated_generation_warms_both_directions(
            self, clustered_embeddings):
        source, target = clustered_embeddings
        config = AnnConfig(n_clusters=8, exact_escalation=True, seed=0)
        warm = IVFWarmStart()
        cold = generate_candidates("ivf", source, target, config)
        warmed = generate_candidates("ivf", source, target, config,
                                     warm_start=warm)
        assert len(warm) == 2  # forward and reverse quantisers
        # first warm call is seeded identically to the cold path
        assert np.array_equal(cold.indices, warmed.indices)
        # exactness survives any centroid history: the escalated decode's
        # top-1 stays exact when candidates come from reused centroids
        again = generate_candidates("ivf", source, target, config,
                                    warm_start=warm)
        exact = blockwise_topk(source, target, k=1)
        approx = blockwise_topk(source, target, k=1, row_candidates=again)
        assert recall_at_k(approx.indices, exact.indices, k=1) == 1.0


class TestGenerateCandidates:
    def test_unknown_method_rejected(self, clustered_embeddings):
        source, target = clustered_embeddings
        with pytest.raises(ValueError):
            generate_candidates("annoy", source, target)

    def test_min_candidates_floor(self, clustered_embeddings):
        source, target = clustered_embeddings
        cands = generate_candidates("ivf", source, target,
                                    AnnConfig(seed=0, nprobe=1, min_candidates=25))
        assert cands.counts.min() >= 25

    def test_multi_round_states_supported(self, clustered_embeddings):
        source, target = clustered_embeddings
        rng = np.random.default_rng(3)
        sources = [source, source + 0.01 * rng.normal(size=source.shape)]
        targets = [target, target + 0.01 * rng.normal(size=target.shape)]
        cands = generate_candidates("ivf", sources, targets, AnnConfig(seed=0))
        assert cands.num_rows == len(source)
        assert cands.num_columns == len(target)


class TestCandidateDecode:
    def test_scores_match_exact_on_kept_entries(self, clustered_embeddings):
        source, target = clustered_embeddings
        dense = cosine_similarity(source, target)
        cands = generate_candidates("ivf", source, target,
                                    AnnConfig(seed=0, nprobe=3))
        topk = blockwise_topk(source, target, k=5, block_size=17,
                              row_candidates=cands)
        assert topk.approximate
        rows = np.arange(topk.shape[0])[:, None]
        assert np.allclose(topk.scores, dense[rows, topk.indices], atol=1e-12)
        # stored ids are candidates of their row
        for row in range(topk.shape[0]):
            assert set(topk.indices[row]) <= set(cands.padded(topk.k).row(row))

    def test_escalated_decode_top1_is_exact(self, clustered_embeddings):
        source, target = clustered_embeddings
        exact = blockwise_topk(source, target, k=5)
        cands = generate_candidates("ivf", source, target,
                                    AnnConfig(seed=0, exact_escalation=True))
        approx = blockwise_topk(source, target, k=5, row_candidates=cands)
        assert recall_at_k(approx.indices, exact.indices, k=1) == 1.0

    def test_escalated_mutual_pairs_match_dense(self, clustered_embeddings):
        source, target = clustered_embeddings
        dense = cosine_similarity(source, target)
        cands = generate_candidates("ivf", source, target,
                                    AnnConfig(seed=2, exact_escalation=True))
        approx = blockwise_topk(source, target, k=5, row_candidates=cands)
        assert approx.mutual_nearest_pairs() == reference_mutual_pairs(dense)
        assert mutual_nearest_pairs(approx) == reference_mutual_pairs(dense)

    def test_full_probing_short_circuits_to_none(self, clustered_embeddings):
        """nprobe >= n_clusters is the exhaustive decode: no O(n_s * n_t)
        candidate structure is ever materialised."""
        source, target = clustered_embeddings
        cands = generate_candidates("ivf", source, target,
                                    AnnConfig(seed=0, n_clusters=5, nprobe=5))
        assert cands is None
        assert generate_candidates(
            "ivf", source, target,
            AnnConfig(seed=0, n_clusters=5, nprobe=99)) is None

    def test_complete_candidates_dispatch_to_exhaustive_bitwise(self, clustered_embeddings):
        source, target = clustered_embeddings
        exact = blockwise_topk(source, target, k=7, block_size=23)
        index = IVFIndex(target, n_clusters=5, seed=0)
        cands = index.candidates(source, nprobe=5)
        assert cands.is_complete()
        via_candidates = blockwise_topk(source, target, k=7, block_size=23,
                                        row_candidates=cands)
        assert not via_candidates.approximate
        assert np.array_equal(via_candidates.scores, exact.scores)
        assert np.array_equal(via_candidates.indices, exact.indices)
        assert np.array_equal(via_candidates.col_argmax, exact.col_argmax)

    def test_lossy_consumers_refuse(self, clustered_embeddings):
        source, target = clustered_embeddings
        cands = generate_candidates("ivf", source, target, AnnConfig(seed=0))
        approx = blockwise_topk(source, target, k=5, row_candidates=cands)
        pairs = np.stack([np.arange(30), np.arange(30)], axis=1)
        with pytest.raises(ValueError, match="candidate"):
            approx.csls_scores()
        with pytest.raises(ValueError, match="candidate"):
            approx.csls_row(0)
        with pytest.raises(ValueError, match="candidate"):
            approx.row_scores(0)
        with pytest.raises(ValueError, match="candidate"):
            approx.dense()
        with pytest.raises(ValueError, match="CSLS"):
            ranks_from_similarity(approx, pairs, ranking="csls")

    def test_missing_gold_ranks_behind_every_candidate(self):
        source = np.eye(4)
        target = np.eye(4)
        # row 0 only sees columns {1}, so its gold (0) is a recall miss
        cands = RowCandidates.from_pairs([0, 1, 2, 3], [1, 1, 2, 3], 4, 4)
        topk = blockwise_topk(source, target, k=1, csls_k=1, row_candidates=cands)
        ranks = ranks_from_similarity(topk, np.array([[0, 0], [2, 2]]),
                                      restrict_candidates=False)
        assert ranks[0] == 5           # behind all four candidates
        assert ranks[1] == 1

    def test_flops_counter_reports_subquadratic_work(self, clustered_embeddings):
        source, target = clustered_embeddings
        with flops_counter() as counter:
            cands = generate_candidates("ivf", source, target, AnnConfig(seed=0))
            topk = blockwise_topk(source, target, k=5, row_candidates=cands)
        cells = topk.shape[0] * topk.shape[1]
        assert 0 < topk.computed_cells < cells
        assert counter.cells < 2 * cells


class TestRecallAtK:
    def test_perfect_and_partial_overlap(self):
        exact = np.array([[0, 1], [2, 3]])
        assert recall_at_k(exact, exact, k=2) == 1.0
        approx = np.array([[0, 9], [9, 8]])
        assert recall_at_k(approx, exact, k=2) == 0.25
        assert recall_at_k(approx, exact, k=1) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            recall_at_k(np.zeros(3), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            recall_at_k(np.zeros((2, 2)), np.zeros((3, 2)))


class TestDecodeDispatch:
    def test_model_similarity_candidates(self, tiny_task):
        model = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))
        source, target = model.decode_states()
        exact = blockwise_topk(source, target, k=10)
        approx = blockwise_topk(source, target, row_candidates=generate_candidates(
            "ivf", source, target, AnnConfig(nprobe=2, seed=0)))
        assert approx.approximate
        assert recall_at_k(approx.indices, exact.indices, k=1) > 0.3
        escalated = blockwise_topk(source, target, row_candidates=generate_candidates(
            "ivf", source, target, AnnConfig(exact_escalation=True, seed=0)))
        assert recall_at_k(escalated.indices, exact.indices, k=1) == 1.0

    def test_evaluator_candidates(self, tiny_task):
        model = DESAlign(tiny_task, DESAlignConfig(hidden_dim=16, seed=0))
        exact = Evaluator(tiny_task).evaluate_model(model)
        approx = Evaluator(tiny_task, candidates="ivf",
                           ann=AnnConfig(exact_escalation=True, seed=0)
                           ).evaluate_model(model)
        # escalated top-1 is provably exact, so H@1 cannot degrade
        assert approx.hits_at_1 == exact.hits_at_1
        with pytest.raises(ValueError, match="CSLS"):
            Evaluator(tiny_task, candidates="ivf",
                      ranking="csls").evaluate_model(model)

    def test_baseline_similarity_candidates(self, tiny_task):
        from repro.baselines import build_model

        model = build_model("EVA", tiny_task)
        source, target = model.decode_states()
        exact = blockwise_topk(source, target, k=10)
        narrow = blockwise_topk(source, target, k=10, row_candidates=generate_candidates(
            "ivf", source, target, AnnConfig(nprobe=1, seed=0)))
        assert narrow.approximate
        assert narrow.computed_cells < exact.computed_cells
        escalated = blockwise_topk(source, target, k=10, row_candidates=generate_candidates(
            "ivf", source, target, AnnConfig(exact_escalation=True, seed=0)))
        assert recall_at_k(escalated.indices, exact.indices, k=1) == 1.0


class TestBucketGroupedGather:
    def test_config_validation(self):
        # gather and adaptive_slack left AnnConfig; saved specs still carry
        # them and load only at the value every decode has.
        def ann(**fields):
            return DecodeSpec.from_dict({"candidates": "ivf", "ann": fields}).ann

        with pytest.raises(ValueError, match="gather='bogus' was removed"):
            ann(gather="bogus")
        with pytest.raises(ValueError, match="gather='bucket' was removed"):
            ann(gather="bucket")
        assert ann(gather="edge") == AnnConfig()
        with pytest.raises(ValueError, match="adaptive_slack=-0.1 was removed"):
            ann(adaptive_slack=-0.1)
        with pytest.raises(ValueError, match="train_size"):
            AnnConfig(train_size=0)


class TestAdaptiveNprobe:
    def test_zero_slack_equals_exact_escalation(self, clustered_embeddings):
        source, target = clustered_embeddings
        index = IVFIndex(target, n_clusters=8, seed=0)
        exact = index.escalated_candidates(source)
        adaptive = index.escalated_candidates(source, slack=0.0)
        assert np.array_equal(exact.indptr, adaptive.indptr)
        assert np.array_equal(exact.indices, adaptive.indices)

    def test_positive_slack_cuts_candidates_but_keeps_strong_top1(
            self, clustered_embeddings):
        source, target = clustered_embeddings
        exact = blockwise_topk(source, target, k=1)
        index = IVFIndex(target, seed=0)
        tight = index.escalated_candidates(source)
        loose = index.escalated_candidates(source, slack=0.5)
        assert loose.total < tight.total
        approx = blockwise_topk(source, target, k=1, row_candidates=loose)
        assert recall_at_k(approx.indices, exact.indices, k=1) >= 0.9

    def test_slack_grows_monotonically_cheaper(self, clustered_embeddings):
        source, target = clustered_embeddings
        index = IVFIndex(target, n_clusters=8, seed=0)
        totals = [index.escalated_candidates(source, slack=slack).total
                  for slack in (0.0, 0.2, 0.6)]
        assert totals[0] >= totals[1] >= totals[2]


class TestTrainSizeSubsampling:
    def test_subsampled_build_partitions_everything(self, clustered_embeddings):
        _, target = clustered_embeddings
        index = IVFIndex(target, n_clusters=6, seed=0, train_size=40)
        assert np.array_equal(np.sort(index.bucket_indices),
                              np.arange(len(target)))
        distances = np.linalg.norm(
            target - index.centroids[index.assignments], axis=1)
        for cluster in range(index.n_clusters):
            mask = index.assignments == cluster
            if mask.any():
                assert distances[mask].max() <= index.radii[cluster] + 1e-12

    def test_train_size_at_least_population_is_identical(
            self, clustered_embeddings):
        _, target = clustered_embeddings
        full = IVFIndex(target, n_clusters=6, seed=3)
        capped = IVFIndex(target, n_clusters=6, seed=3, train_size=10 ** 9)
        assert np.array_equal(full.centroids, capped.centroids)
        assert np.array_equal(full.assignments, capped.assignments)

    def test_config_train_size_reaches_generation(self, clustered_embeddings):
        source, target = clustered_embeddings
        cands = generate_candidates(
            "ivf", source, target,
            AnnConfig(seed=0, nprobe=2, train_size=50))
        assert cands is not None and cands.total > 0


class TestIVFInsert:
    """Online inserts: assign-to-nearest-centroid with staleness tracking."""

    def test_insert_extends_buckets_and_preserves_invariants(self, clustered_embeddings):
        _, target = clustered_embeddings
        index = IVFIndex(target[:-20], n_clusters=8, seed=0)
        centroids_before = index.centroids.copy()
        assignments = index.insert(target[-20:])
        assert np.array_equal(index.centroids, centroids_before)
        assert index.num_inserted == 20
        assert len(index.vectors) == len(target)
        # new vectors sit in their nearest-centroid bucket
        expected = index._assign(np.asarray(target[-20:], dtype=np.float64),
                                 index.centroids)
        assert np.array_equal(assignments, expected)
        # buckets still partition all ids and stay id-ascending
        assert np.array_equal(np.sort(index.bucket_indices),
                              np.arange(len(target)))
        for cluster in range(index.n_clusters):
            bucket = index.bucket_indices[
                index.bucket_indptr[cluster]:index.bucket_indptr[cluster + 1]]
            assert np.all(index.assignments[bucket] == cluster)
            assert np.all(np.diff(bucket) > 0)

    def test_radii_still_cover_members_after_insert(self, clustered_embeddings):
        _, target = clustered_embeddings
        index = IVFIndex(target[:-20], n_clusters=6, seed=1)
        index.insert(target[-20:])
        distances = np.linalg.norm(
            np.asarray(target) - index.centroids[index.assignments], axis=1)
        for cluster in range(index.n_clusters):
            mask = index.assignments == cluster
            if mask.any():
                assert distances[mask].max() <= index.radii[cluster] + 1e-12

    def test_escalated_candidates_stay_exact_after_insert(self, clustered_embeddings):
        source, target = clustered_embeddings
        index = IVFIndex(target[:-30], n_clusters=8, seed=0)
        index.insert(target[-30:])
        candidates = index.escalated_candidates(source)
        exact_top1 = np.argmax(source @ np.asarray(target).T, axis=1)
        for row in range(len(source)):
            members = candidates.row(row)
            scores = source[row] @ np.asarray(target)[members].T
            assert members[np.argmax(scores)] == exact_top1[row]

    def test_zero_insert_is_noop(self, clustered_embeddings):
        _, target = clustered_embeddings
        index = IVFIndex(target, n_clusters=5, seed=0)
        before = index.bucket_indices.copy()
        out = index.insert(np.empty((0, target.shape[1])))
        assert len(out) == 0
        assert index.num_inserted == 0
        assert np.array_equal(index.bucket_indices, before)

    def test_insert_rejects_wrong_dim(self, clustered_embeddings):
        _, target = clustered_embeddings
        index = IVFIndex(target, n_clusters=5, seed=0)
        with pytest.raises(ValueError, match="dim"):
            index.insert(np.zeros((3, target.shape[1] + 1)))

    def test_refit_warm_starts_and_resets_staleness(self, clustered_embeddings):
        _, target = clustered_embeddings
        index = IVFIndex(target[:-20], n_clusters=8, seed=0)
        index.insert(target[-20:])
        refit = index.refit(seed=3)
        assert refit.num_inserted == 0
        assert refit.n_clusters == index.n_clusters
        assert len(refit.vectors) == len(target)
        assert np.array_equal(np.sort(refit.bucket_indices), np.arange(len(target)))
        # warm start + full-set Lloyd: quantisation error never regresses
        stale = np.linalg.norm(
            np.asarray(index.vectors) - index.centroids[index.assignments], axis=1).sum()
        fresh = np.linalg.norm(
            np.asarray(refit.vectors) - refit.centroids[refit.assignments], axis=1).sum()
        assert fresh <= stale + 1e-9
        # subsampled re-quantisation still covers and partitions everything
        subsampled = index.refit(seed=3, train_size=80)
        assert subsampled.num_inserted == 0
        assert np.array_equal(np.sort(subsampled.bucket_indices),
                              np.arange(len(target)))
