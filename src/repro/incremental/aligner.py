"""Warm-start incremental alignment over a fitted artifact.

:class:`IncrementalAligner` wraps a fitted :class:`~repro.pipeline.Aligner`
and folds :class:`~repro.incremental.DeltaBatch` es into it without a
re-fit.  One :meth:`ingest` runs the delta lifecycle:

1. **apply_delta** extends the task place-preservingly (existing ids and
   CSR row orders stable, new rows appended);
2. **warm encode**: the fitted model's parameters are reused — only the
   structural embedding tables grow by freshly initialised rows — and the
   model's sampled-inference loop re-encodes just the delta's receptive
   field (new rows plus existing rows within the fanout horizon of any
   touched row), followed by the model's own propagation step;
3. **IVF insert**: new target vectors are bucketed by nearest centroid
   through :meth:`~repro.core.ann.IVFIndex.insert` (moved vectors are
   re-assigned in place); a staleness counter triggers periodic
   re-quantisation via subsampled k-means warm-started from the current
   centroids;
4. **selective re-decode**: an old row whose states did not move scores
   only its dirty cells — new or moved targets, and targets that entered
   its candidate set (padding included) — and merges them into its stored
   top-k by (score desc, id asc); the merge stands when its k-th entry
   ranks at or above the stored k-th entry.  New rows, rows whose states
   moved and rows whose merge fails the boundary rule are re-decoded in
   full, and the two shards are joined with the sharded-decode
   :func:`~repro.core.similarity.merge_partials` reducer;
5. the result is a fresh :class:`~repro.pipeline.Aligner` (optionally
   persisted with :meth:`~repro.pipeline.Aligner.save`) ready for the
   serving engine's prewarm–drain–swap promotion.

Every step calls the function fit runs for the same job (side
preparation, imputation draw, sampled encode, propagation, IVF build,
candidate kernel) rather than a mirror of it, so ingest cannot drift from
fit.  A zero-sized delta is a bit-exact no-op: the current aligner is
returned untouched.  Encoding and decoding follow the delta: the warm
encode covers its receptive field, and the decode computes the cells it
dirtied plus the rows it re-decodes in full.  ``rows_encoded`` and
``rows_decoded`` (full-row re-decodes) count those rows, and every
computed cell is charged to :func:`~repro.core.ann.flops_counter`.  The
probe, the normalisation, the changed-row scan and propagation still
visit every row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..core.ann import (IVFIndex, RowCandidates, _concat_states,
                        _normalize_rows, count_dot_products,
                        edge_dot_products, resolve_ann)
from ..core.config import DEFAULT_ENCODE_BATCH
from ..core.model import encode_sampled
from ..core.similarity import (DEFAULT_BLOCK_SIZE, PartialTopK,
                               TopKSimilarity, blockwise_topk,
                               column_max_cells,
                               compute_partial_topk_candidates,
                               merge_partials, topk_from_partial)
from ..nn import Parameter
from ..pipeline.facade import Aligner
from ..pipeline.spec import CUSTOM_DATASET, DeltaSpec
from .delta import DeltaBatch, apply_delta

__all__ = ["IncrementalAligner", "IngestReport"]


@dataclass
class IngestReport:
    """What one :meth:`IncrementalAligner.ingest` did, and at what cost."""

    aligner: Aligner
    generation: int
    seconds: float
    num_new_source: int = 0
    num_new_target: int = 0
    #: Rows whose evaluation embedding was recomputed (both sides).
    rows_encoded: int = 0
    #: Source rows re-decoded in full; merged rows compute only their
    #: dirty cells, which are charged to ``flops_counter``.
    rows_decoded: int = 0
    refit: bool = False
    noop: bool = False

    def to_dict(self) -> dict:
        return {
            "generation": self.generation,
            "seconds": self.seconds,
            "num_new_source": self.num_new_source,
            "num_new_target": self.num_new_target,
            "rows_encoded": self.rows_encoded,
            "rows_decoded": self.rows_decoded,
            "refit": self.refit,
            "noop": self.noop,
        }


def _member(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each of ``values`` occurs in the ascending array ``keys``.

    ``np.isin`` would hash both arrays; on ingest's ~170k candidate keys
    it took ~150 ms per merge against ~5 ms for this search.
    """
    found = np.searchsorted(keys, values)
    hit = found < len(keys)
    hit[hit] = keys[found[hit]] == values[hit]
    return hit


def _merge_dirty_cells(old_table: TopKSimilarity, old_padded: RowCandidates,
                       padded: RowCandidates, src_norm, tgt_norm,
                       rows: np.ndarray, dirty_target: np.ndarray):
    """Re-decode ``rows`` from their dirty cells; return the rows that merged.

    ``rows`` are old source rows whose states did not change, and
    ``old_padded`` / ``padded`` the candidate sets the old table and the
    new decode score (both padded to the table's width ``k``).  A row's
    dirty cells are its new candidates whose target is new or moved
    (``dirty_target``) or that were not an old candidate; each is one
    :func:`~repro.core.ann.edge_dot_products` edge, the decode's own
    per-edge kernel, so it carries the bits a full decode gives it.  Every
    other new candidate was scored before with the same bits.  The row's
    stored entries that are still candidates and did not move are merged
    with its dirty cells by (score desc, id asc).

    The old cells that were not stored rank below the stored k-th entry,
    because the stored row is the canonical top-k of its old candidates.
    So the merged row is the full decode's row whenever its k-th entry
    ranks at or above the stored k-th entry.  Returns
    ``(merged_rows, indices, scores, cells)`` for the rows where that
    holds, ``cells`` counting every dot product computed; every other row
    of ``rows`` must be re-decoded in full.
    """
    k_keep = old_table.indices.shape[1]
    num_cols = padded.num_columns
    new = padded.select_rows(rows)
    old = old_padded.select_rows(rows)
    local = np.arange(len(rows))
    new_rows = np.repeat(local, new.counts)
    new_keys = new_rows * num_cols + new.indices
    old_keys = np.repeat(local, old.counts) * num_cols + old.indices
    dirty = dirty_target[new.indices] | ~_member(new_keys, old_keys)

    stored_ids = np.asarray(old_table.indices[rows], dtype=np.int64)
    stored_scores = np.asarray(old_table.scores[rows], dtype=np.float64)
    stays = (~dirty_target[stored_ids]
             & _member(local[:, None] * num_cols + stored_ids, new_keys))

    dirty_rows, dirty_cols = new_rows[dirty], new.indices[dirty]
    values = edge_dot_products(src_norm, tgt_norm, rows[dirty_rows],
                               dirty_cols, np.float64)
    cells = len(values) * len(src_norm)
    count_dot_products(cells)

    cell_rows = np.concatenate([np.nonzero(stays)[0], dirty_rows])
    cell_ids = np.concatenate([stored_ids[stays], dirty_cols])
    cell_scores = np.concatenate([stored_scores[stays], values])
    order = np.lexsort((cell_ids, -cell_scores, cell_rows))
    counts = np.bincount(cell_rows, minlength=len(rows))
    starts = np.cumsum(counts) - counts
    rank = np.arange(len(order)) - starts[cell_rows[order]]
    filled = counts >= k_keep
    take = order[(rank < k_keep) & filled[cell_rows[order]]]
    indices = cell_ids[take].reshape(-1, k_keep)
    scores = cell_scores[take].reshape(-1, k_keep)

    # Boundary rule: the merged k-th entry ranks at or above the stored one.
    kth_ids = stored_ids[filled, -1]
    kth_scores = stored_scores[filled, -1]
    holds = ((scores[:, -1] > kth_scores)
             | ((scores[:, -1] == kth_scores) & (indices[:, -1] <= kth_ids)))
    return rows[filled][holds], indices[holds], scores[holds], cells


def _merged_shard(rows: np.ndarray, indices: np.ndarray, scores: np.ndarray,
                  cells: int, n_t_new: int) -> PartialTopK:
    """The merged rows of the table as a mergeable shard.

    Column statistics are rebuilt from these rows' top-k entries (ties
    resolved to the lowest source row, the merge's convention).  Cells
    computed by an earlier decode that fell outside a row's top-k are gone,
    so the merged ``col_max`` is a lower bound on the exact column maximum
    — the row-wise data every evaluation and serving path reads is exact.
    """
    col_max = np.full(n_t_new, -np.inf, dtype=np.float64)
    col_argmax = np.zeros(n_t_new, dtype=np.int64)
    flat_scores = scores.ravel()
    columns, cells = column_max_cells(indices.ravel(), flat_scores, n_t_new)
    col_max[columns] = flat_scores[cells]
    col_argmax[columns] = rows[cells // indices.shape[1]]
    return PartialTopK(rows=rows.astype(np.int64), indices=indices,
                       scores=scores, col_max=col_max, col_argmax=col_argmax,
                       col_top=None, csls_k_col=0, computed_cells=cells)


class IncrementalAligner:
    """Delta-ingestion over one fitted aligner (see the module docstring).

    The constructor pays the warm-start cost once: it re-derives the
    fitted IVF quantiser (k-means is a deterministic, seeded function of
    the persisted decode states, so the rebuilt index reproduces the
    artifact's candidate structure exactly) and materialises the base
    decode table at the spec's ``k``.  Every subsequent :meth:`ingest` is
    then proportional to its delta.
    """

    def __init__(self, aligner: Aligner, *, delta_spec: DeltaSpec | None = None):
        aligner._ensure_model()
        if aligner.model is None or aligner.task is None:
            raise ValueError(
                "incremental ingestion needs the fitted model; custom-dataset "
                "artifacts drop it on load — ingest through the aligner "
                "returned by AlignmentPipeline.fit, or re-save with the "
                "model attached")
        spec = aligner.spec
        decode = spec.decode
        if decode.candidates not in {"exhaustive", "ivf"}:
            raise ValueError(
                "incremental ingestion supports candidates='ivf' or "
                f"'exhaustive'; {decode.candidates!r} has no centroid "
                "structure to insert new vectors into")
        if (decode.candidates == "ivf"
                and resolve_ann(decode.ann, spec.training.seed).exact_escalation):
            raise ValueError(
                "incremental ingestion does not support exact-escalation IVF "
                "decodes (their per-query probe sets depend on bucket radii "
                "that in-place inserts only over-approximate); decode with "
                "plain nprobe probing")
        model_config = getattr(aligner.model, "config", None)
        if (decode.use_propagation
                and getattr(model_config, "propagation_iters", 0) > 0
                and not getattr(model_config, "propagation_average", True)):
            raise ValueError(
                "incremental ingestion needs propagation_average=True when "
                "decoding through Semantic Propagation: with average=False "
                "only the final round is persisted, so the raw round-0 "
                "embeddings the warm encode must scatter into are "
                "unrecoverable from the artifact")

        self.delta_spec = (delta_spec if delta_spec is not None
                           else getattr(spec, "delta", None) or DeltaSpec())
        self.aligner = aligner
        self.spec = spec
        self.model = aligner.model
        self.task = aligner.task
        self._generation = 0
        self.total_rows_encoded = 0
        self.total_rows_decoded = 0
        self.total_refits = 0

        self._states = aligner.decode_states()
        self._candidates = aligner.row_candidates()
        self._ann = (resolve_ann(decode.ann, spec.training.seed)
                     if decode.candidates == "ivf" else None)
        if decode.candidates == "ivf" and self._candidates is not None:
            # Deterministic re-derivation of the fitted quantiser: fit's
            # own IVFIndex.from_config over the same vectors and seed,
            # hence identical centroids, assignments and candidate sets.
            self._ivf = IVFIndex.from_config(_concat_states(self._states[1]),
                                             self._ann,
                                             self._ann.resolved_seed())
        else:
            # Exhaustive decode, or an IVF config that provably covers
            # every cell (candidates=None): there is no index to maintain
            # and every ingest re-decodes in full.
            self._ivf = None
        self._table = aligner.topk(decode.k) if self._ivf is not None else None

    @classmethod
    def from_artifact(cls, directory, *, mmap: bool = False,
                      delta_spec: DeltaSpec | None = None) -> "IncrementalAligner":
        """Warm-start from a persisted artifact directory."""
        return cls(Aligner.load(Path(directory), mmap=mmap),
                   delta_spec=delta_spec)

    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        return self._generation

    def ingest(self, delta: DeltaBatch, *, directory=None) -> IngestReport:
        """Fold one delta batch in; returns the updated aligner + counters.

        ``directory`` optionally persists the updated artifact (through
        the :class:`~repro.core.store.EmbeddingStore` chunked writers) so
        a serving engine can promote it.
        """
        start = time.perf_counter()
        if delta.is_empty():
            # Bit-exact no-op: nothing moved, the current aligner (states,
            # candidates, cached tables) is returned untouched.
            if directory is not None:
                self.aligner.save(Path(directory))
            return IngestReport(aligner=self.aligner,
                                generation=self._generation,
                                seconds=time.perf_counter() - start, noop=True)

        seed = self.delta_spec.seed + self._generation
        app = apply_delta(self.task, delta, seed=seed)
        new_task = app.task
        self._extend_parameters(app, seed)
        self.model.task = new_task
        self.model._eval_samplers = {}

        # Warm encode: scatter-update the raw evaluation embeddings over
        # the delta's receptive fields only.
        src_raw = self._extended_raw(self._states[0][0],
                                     new_task.source.num_entities)
        tgt_raw = self._extended_raw(self._states[1][0],
                                     new_task.target.num_entities)
        rows_encoded = (
            self._warm_encode("source", src_raw, app.seed_rows("source"))
            + self._warm_encode("target", tgt_raw, app.seed_rows("target")))

        # Re-run propagation over the extended graphs (O(|E|·d) smoothing,
        # not an encode — the expensive GNN forwards above were delta-sized).
        src_states, tgt_states = self.model.states_from_embeddings(
            src_raw, tgt_raw, self.spec.decode.use_propagation)

        # Exact changed-row bookkeeping: a row's stored cells stay valid
        # only if none of its per-round states moved.
        n_s_old, n_t_old = app.num_source_before, app.num_target_before
        changed_src = self._changed_rows(src_states, self._states[0], n_s_old)
        changed_tgt = self._changed_rows(tgt_states, self._states[1], n_t_old)

        src_norm = [_normalize_rows(s) for s in src_states]
        tgt_norm = [_normalize_rows(s) for s in tgt_states]

        if self._ivf is not None:
            refit = self._update_index(np.concatenate(tgt_norm, axis=1),
                                       changed_tgt, n_t_old)
            candidates = self._recompute_candidates(
                np.concatenate(src_norm, axis=1))
            table, rows_decoded = self._selective_redecode(
                self._table, self._candidates, candidates, src_norm, tgt_norm,
                changed_src, changed_tgt, self.spec.decode.k, full=refit)
        else:
            refit = False
            candidates, table = None, None
            rows_decoded = len(src_norm[0])

        new_aligner = self._build_aligner(new_task, src_states, tgt_states,
                                          src_norm, tgt_norm, candidates,
                                          table)
        if self._ivf is None:
            # Full re-decode fallback: force the table now so the reported
            # wall-clock covers it (and serving prewarms hit a warm cache).
            table = new_aligner.topk(self.spec.decode.k)

        self.aligner = new_aligner
        self.spec = new_aligner.spec
        self.task = new_task
        self._states = (src_states, tgt_states)
        self._candidates = candidates
        self._table = table if self._ivf is not None else None
        self._generation += 1
        self.total_rows_encoded += rows_encoded
        self.total_rows_decoded += rows_decoded
        self.total_refits += int(refit)

        if directory is not None:
            new_aligner.save(Path(directory))
        return IngestReport(
            aligner=new_aligner, generation=self._generation,
            seconds=time.perf_counter() - start,
            num_new_source=len(app.new_source_ids),
            num_new_target=len(app.new_target_ids),
            rows_encoded=rows_encoded, rows_decoded=rows_decoded,
            refit=refit)

    # ------------------------------------------------------------------
    # Step 2: parameter / embedding extension
    # ------------------------------------------------------------------
    def _extend_parameters(self, app, seed: int) -> None:
        """Append warm-initialised structural-embedding rows per side.

        All fitted parameters are kept; only the per-entity tables grow.
        A new entity starts from the mean of its old neighbours' *trained*
        structure embeddings — a random row would inject noise into every
        neighbour's attention aggregate and measurably degrade the decode
        around the arrival point.  Entities with no old neighbour fall
        back to the ``N(0, 0.3)`` initialisation the table was born with,
        drawn from a delta-local generator so existing rows never shift.
        """
        owner = getattr(self.model, "encoder", self.model)
        rng = np.random.default_rng([max(seed, 0), self._generation, 17])
        for side, new_ids, num_old in (
                ("source", app.new_source_ids, app.num_source_before),
                ("target", app.new_target_ids, app.num_target_before)):
            if len(new_ids) == 0:
                continue
            key = owner._structure_keys[side]
            old = owner._parameters[key]
            table = np.asarray(old.data, dtype=np.float64)
            prepared = (app.task.source if side == "source"
                        else app.task.target)
            indptr, indices = prepared.adjacency.indptr, prepared.adjacency.indices
            fresh = np.empty((len(new_ids), table.shape[1]))
            for offset, entity in enumerate(new_ids):
                # CSR column indices are sorted, so the mean sums the old
                # neighbours in ascending id order.
                neighbours = indices[indptr[entity]:indptr[entity + 1]]
                neighbours = neighbours[neighbours < num_old]
                if len(neighbours):
                    fresh[offset] = table[neighbours].mean(axis=0)
                else:
                    fresh[offset] = rng.normal(0.0, 0.3,
                                               size=table.shape[1])
            owner._parameters[key] = Parameter(
                np.concatenate([table, fresh]),
                name=getattr(old, "name", None))

    @staticmethod
    def _extended_raw(old_raw: np.ndarray, num_new: int) -> np.ndarray:
        out = np.empty((num_new, old_raw.shape[1]), dtype=np.float64)
        out[:len(old_raw)] = old_raw
        return out

    def _warm_encode(self, side: str, raw: np.ndarray,
                     direct: np.ndarray) -> int:
        """Re-encode the receptive field of ``direct`` rows into ``raw``.

        The sampler's attention pattern is symmetric, so the k-hop
        *input* neighbourhood of the directly touched rows equals the set
        of rows whose *output* can depend on them — re-encoding exactly
        that set leaves every other row's stored embedding untouched.
        New rows are part of ``direct``, so they are always encoded.
        """
        if len(direct) == 0:
            return 0
        sampler = self.model.neighbour_sampler(side,
                                               fanouts=self.delta_spec.fanouts)
        affected = sampler.sample(np.asarray(direct, dtype=np.int64)).input_nodes
        batch = (self.delta_spec.encode_batch_size
                 or self.spec.decode.encode_batch_size
                 or DEFAULT_ENCODE_BATCH)
        encode_sampled(self.model, side, sampler, affected, batch, out=raw)
        return len(affected)

    @staticmethod
    def _changed_rows(new_states: list[np.ndarray],
                      old_states: list[np.ndarray], num_old: int) -> np.ndarray:
        if len(new_states) != len(old_states):
            raise RuntimeError(
                "propagation round count changed across an ingest; the "
                "model configuration must stay fixed while ingesting")
        changed = np.zeros(num_old, dtype=bool)
        for new, old in zip(new_states, old_states):
            changed |= np.any(np.asarray(new)[:num_old] != np.asarray(old),
                              axis=1)
        return changed

    # ------------------------------------------------------------------
    # Step 3: online IVF maintenance
    # ------------------------------------------------------------------
    def _update_index(self, concat: np.ndarray, changed_tgt: np.ndarray,
                      n_t_old: int) -> bool:
        """Insert / re-assign target vectors; refit when staleness trips.

        ``concat`` is the round-concatenated normalised target table
        (:func:`~repro.core.ann._concat_states` of the states).  Returns
        whether a re-quantisation ran (in which case every bucket may have
        changed and the caller re-decodes in full).
        """
        index = self._ivf
        moved = np.flatnonzero(changed_tgt)
        pending = len(moved) + (len(concat) - n_t_old)
        if (index.num_inserted + pending
                > self.delta_spec.refit_threshold * len(concat)):
            # Periodic re-quantisation of the updated vectors: subsampled
            # k-means warm-started from the current centroids, staleness
            # counter reset.
            index.vectors = concat
            self._ivf = index.refit(
                kmeans_iters=self._ann.kmeans_iters,
                seed=self._ann.resolved_seed(),
                train_size=(self.delta_spec.refit_train_size
                            or self._ann.train_size))
            return True
        # Moved vectors keep their slot but may hop buckets; centroids
        # stay fixed (that drift is what the staleness counter measures).
        index.vectors = concat[:n_t_old]
        if len(moved):
            index.assignments[moved] = index._assign(concat[moved],
                                                     index.centroids)
            distances = np.linalg.norm(
                concat[moved] - index.centroids[index.assignments[moved]],
                axis=1)
            np.maximum.at(index.radii, index.assignments[moved], distances)
            index.num_inserted += len(moved)
        if len(concat) > n_t_old:
            index.insert(concat[n_t_old:])   # appends + rebuilds the CSR
        elif len(moved):
            index.rebuild_buckets()
        return False

    def _recompute_candidates(self, concat: np.ndarray):
        """All candidate rows against the updated index (O(n·K) probing).

        ``concat`` is the round-concatenated normalised source table.
        Unchanged source rows probe the same buckets (identical queries
        against identical centroids), so their candidate rows change only
        where a bucket gained or lost members — the cells the re-decode
        step treats as dirty.  Probing then ``min_candidates`` padding is
        what ``generate_candidates`` does at fit time against the fitted
        index.
        """
        result = self._ivf.candidates(concat, nprobe=self._ann.nprobe)
        if self._ann.min_candidates is not None:
            result = result.padded(self._ann.min_candidates)
        return result

    # ------------------------------------------------------------------
    # Step 4: selective re-decode + merge
    # ------------------------------------------------------------------
    @staticmethod
    def _selective_redecode(old_table: TopKSimilarity | None,
                            old_candidates: RowCandidates,
                            candidates: RowCandidates, src_norm, tgt_norm,
                            changed_src: np.ndarray,
                            changed_tgt: np.ndarray, k: int, *, full: bool
                            ) -> tuple[TopKSimilarity, int]:
        """The decode table over ``candidates``; returns it and the rows re-decoded.

        Old rows whose states did not change merge their dirty cells into
        their stored top-k (:func:`_merge_dirty_cells`).  New rows, rows
        whose states changed and rows the merge cannot prove are re-decoded
        in full; so is every row after a refit, when the table's width
        changes, or when the old candidates were complete.  Complete
        candidates decode through the exhaustive GEMM scan (the rule of
        :func:`~repro.core.similarity.blockwise_topk`), whose bits no
        per-edge cell reproduces.
        """
        n_s_new = len(src_norm[0])
        n_t_new = len(tgt_norm[0])
        n_t_old = len(changed_tgt)
        if candidates.is_complete():
            return blockwise_topk(src_norm, tgt_norm, k=k,
                                  row_candidates=candidates,
                                  pre_normalized=True), n_s_new
        k_keep = min(k, n_t_new)
        padded = candidates.padded(k_keep)

        redecode = np.ones(n_s_new, dtype=bool)
        merged = None
        if (not full and old_table is not None
                and old_table.indices.shape[1] == k_keep
                and not old_candidates.is_complete()):
            dirty_target = np.ones(n_t_new, dtype=bool)
            dirty_target[:n_t_old] = changed_tgt
            merged = _merge_dirty_cells(
                old_table, old_candidates.padded(k_keep), padded, src_norm,
                tgt_norm, np.flatnonzero(~changed_src), dirty_target)
            redecode[merged[0]] = False

        rows = np.flatnonzero(redecode)
        partial = compute_partial_topk_candidates(
            [s[rows] for s in src_norm], tgt_norm, padded.select_rows(rows),
            0, len(rows), k_keep, DEFAULT_BLOCK_SIZE, np.float64)
        count_dot_products(partial.computed_cells)
        # Remap the shard-local row ids to global ids before merging.
        partial.rows = rows.astype(np.int64)
        touched = partial.col_max > -np.inf
        partial.col_argmax[touched] = rows[partial.col_argmax[touched]]

        if merged is not None:
            partial = merge_partials(_merged_shard(*merged, n_t_new), partial)

        table = topk_from_partial(
            partial, (n_s_new, n_t_new),
            csls_k=old_table.csls_k if old_table is not None else 10,
            dtype=np.float64, block_size=DEFAULT_BLOCK_SIZE,
            source_norm=src_norm, target_norm=tgt_norm)
        return table, len(rows)

    # ------------------------------------------------------------------
    # Step 5: the promotable artifact
    # ------------------------------------------------------------------
    def _build_aligner(self, new_task, src_states, tgt_states, src_norm,
                       tgt_norm, candidates, table) -> Aligner:
        # The extended task is caller-supplied data: flip the dataset to
        # "custom" so a later Aligner.load never tries to regenerate the
        # (smaller) benchmark task around the persisted parameters.
        spec = self.spec
        if spec.data.dataset != CUSTOM_DATASET:
            spec = spec.with_overrides(
                data=replace(spec.data, dataset=CUSTOM_DATASET))
        aligner = Aligner(
            spec, task=new_task, model=self.model,
            states=(src_states, tgt_states),
            row_candidates=candidates,
            candidates_ready=candidates is not None,
            train_pairs=new_task.train_pairs, test_pairs=new_task.test_pairs)
        aligner._norm_states = (src_norm, tgt_norm)
        if table is not None:
            aligner._topk_cache[spec.decode.k] = table
        return aligner
