"""Approximate candidate generation for sub-quadratic similarity decoding.

The blockwise streaming engine (:mod:`repro.core.similarity`) removed the
``O(n_s · n_t)`` *memory* of decoding but still computes every source-target
dot product.  This module supplies the third scaling layer: per-source-row
**candidate sets** that restrict the streamed decode to a small fraction of
the similarity cells, so decode FLOPs drop below ``O(n_s · n_t)``.

The built-in generator, :class:`IVFIndex`, is deterministic for a fixed
seed: a k-means coarse quantiser over the target embeddings with inverted
bucket lists.  Queries probe their ``nprobe`` nearest centroids; an
optional *exact-escalation* mode keeps probing buckets in descending
centroid-score order until the triangle-inequality bound

  ``sim(q, x) = q·μ_c + q·(x − μ_c)  ≤  q·μ_c + ‖q‖ · r_c``

(``r_c`` the bucket radius) proves no unprobed bucket can beat the best
score found, which guarantees a provably correct top-1 per row — the
property mutual-NN pseudo-seeding needs.  Escalation runs in both
directions (targets probed from sources and vice versa), so the running
column argmax of the restricted decode is exact too and the streamed
mutual-NN pair set matches the dense selection wherever scores are
untied.  Other generators plug in through
:func:`~repro.core.registries.register_candidate_generator`;
``examples/lsh_candidate_plugin.py`` registers random-hyperplane LSH that
way.

The candidate sets feed :func:`repro.core.similarity.blockwise_topk` as a
sparse gather (``row_candidates=``) instead of full block matmuls; the
resulting :class:`~repro.core.similarity.TopKSimilarity` is flagged
``approximate`` and every consumer that would be silently lossy on it
(CSLS ranking, exact-row fallbacks) refuses instead of degrading.

Work is metered in *similarity cells* (one cell is one d-dimensional dot
product) to every open :func:`flops_counter`, so benchmarks can enforce a
FLOPs budget relative to the ``n_s · n_t`` exhaustive decode.  Candidate
generation charges its own cells (k-means, centroid scoring, escalation
probes).  The decode kernels only *return* their count
(``computed_cells``); the caller that owns a partial charges it once —
:func:`~repro.core.similarity.blockwise_topk` (serial or sharded),
:meth:`repro.pipeline.Aligner.rank_rows` and the incremental re-decode.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..kg.sampling import flat_row_positions
from .registries import CANDIDATE_REGISTRY, register_candidate_generator

__all__ = [
    "AnnConfig",
    "RowCandidates",
    "IVFIndex",
    "IVFWarmStart",
    "generate_candidates",
    "resolve_ann",
    "recall_at_k",
    "flops_counter",
    "count_dot_products",
]


# ---------------------------------------------------------------------------
# FLOPs accounting (similarity cells = d-dimensional dot products)
# ---------------------------------------------------------------------------
class _CellCounter:
    """Accumulates the number of similarity cells (dot products) computed."""

    def __init__(self) -> None:
        self.cells = 0

    def add(self, cells: int) -> None:
        self.cells += int(cells)


_COUNTER_STACK: list[_CellCounter] = []


class flops_counter:
    """Context manager counting every dot product computed inside its scope.

    Candidate generation (k-means, centroid scoring, escalation probes) and
    the owner of every decode partial report to each active counter, so

    >>> with flops_counter() as counter:
    ...     topk = blockwise_topk(source, target, row_candidates=cands)
    >>> counter.cells

    is the full cost of the approximate decode in units of one
    ``d``-dimensional dot product — directly comparable to the
    ``n_s · n_t`` cells of the exhaustive decode.
    """

    def __enter__(self) -> _CellCounter:
        self._counter = _CellCounter()
        _COUNTER_STACK.append(self._counter)
        return self._counter

    def __exit__(self, *exc_info) -> None:
        _COUNTER_STACK.remove(self._counter)


def count_dot_products(cells: int) -> None:
    """Report ``cells`` dot products to every active :func:`flops_counter`."""
    for counter in _COUNTER_STACK:
        counter.add(cells)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AnnConfig:
    """Knobs of the candidate-generation layer.

    Attributes
    ----------
    n_clusters:
        IVF coarse-quantiser size; ``None`` derives ``≈ sqrt(n_t)``.
    nprobe:
        Buckets probed per query; ``None`` derives ``max(1, n_clusters // 10)``.
        ``nprobe >= n_clusters`` probes everything, which reproduces the
        exhaustive blockwise decode bit for bit: :func:`generate_candidates`
        short-circuits to ``None`` (no candidate structure is materialised)
        and the engine takes the identical GEMM path.
    kmeans_iters:
        Lloyd iterations of the coarse quantiser.
    exact_escalation:
        Probe buckets until the centroid-plus-radius bound proves the top-1
        exact, in both directions (see module docstring).  Required by the
        iterative trainer's mutual-NN pseudo-seeding.
    min_candidates:
        Optional per-row floor on the candidate count (the decode itself
        additionally pads every row to at least its stored ``k``).
    train_size:
        Optional cap on the vectors k-means trains on: Lloyd iterates on a
        seeded subsample of this size, then every vector is assigned to the
        trained centroids in one chunked pass.  Makes million-vector
        (memory-mapped) index builds tractable; ``None`` trains on all
        vectors.
    seed:
        Seed of k-means initialisation (and of any plug-in generator's
        draws).  ``None`` means "inherit from the caller" — the model /
        trainer substitutes its own configured seed so one
        ``TrainingConfig.seed`` drives the sampler, the loader and the
        quantiser alike.
    """

    n_clusters: int | None = None
    nprobe: int | None = None
    kmeans_iters: int = 8
    exact_escalation: bool = False
    min_candidates: int | None = None
    train_size: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_clusters is not None and self.n_clusters <= 0:
            raise ValueError("n_clusters must be positive")
        if self.nprobe is not None and self.nprobe <= 0:
            raise ValueError("nprobe must be positive")
        if self.kmeans_iters < 0:
            raise ValueError("kmeans_iters must be non-negative")
        if self.min_candidates is not None and self.min_candidates <= 0:
            raise ValueError("min_candidates must be positive")
        if self.train_size is not None and self.train_size <= 0:
            raise ValueError("train_size must be positive")

    def with_overrides(self, **kwargs) -> "AnnConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)

    def resolved_seed(self, default: int = 0) -> int:
        return self.seed if self.seed is not None else default


def resolve_ann(ann: "AnnConfig | None", default_seed: int) -> "AnnConfig":
    """The seed-inheritance rule, in one place.

    Every caller that owns a seed (model config, training config, baseline
    config) resolves its candidate-generation config through this helper so
    an ``AnnConfig`` without an explicit seed inherits the caller's — the
    invariant behind repeat-run determinism.
    """
    ann = ann or AnnConfig()
    if ann.seed is None:
        ann = ann.with_overrides(seed=default_seed)
    return ann


# ---------------------------------------------------------------------------
# Per-row candidate sets
# ---------------------------------------------------------------------------
def _dedupe_pairs(rows: np.ndarray, cols: np.ndarray, num_rows: int,
                  num_columns: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, indices) from (row, col) pairs: sorted, unique per row.

    Pairs are packed into one ``row * num_columns + col`` composite key so
    a single flat ``np.sort`` (far faster than a two-key lexsort at the
    10⁸-pair scale of a 50k × 50k decode) yields the per-row ascending
    order and makes duplicates adjacent.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if len(rows) != len(cols):
        raise ValueError("rows and cols must have the same length")
    if num_rows * num_columns > np.iinfo(np.int64).max:  # pragma: no cover
        raise ValueError("candidate shape too large for composite-key packing")
    if len(rows):
        composite = rows * num_columns + cols
        composite.sort()
        keep = np.ones(len(composite), dtype=bool)
        keep[1:] = composite[1:] != composite[:-1]
        composite = composite[keep]
        rows = composite // num_columns
        cols = composite % num_columns
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    return indptr, cols


@dataclass
class RowCandidates:
    """CSR-shaped per-source-row candidate target sets.

    ``indices[indptr[i]:indptr[i + 1]]`` holds row ``i``'s candidate target
    ids, sorted ascending and unique — the invariant the restricted decode
    relies on for its argmax-compatible tie semantics.
    """

    indptr: np.ndarray
    indices: np.ndarray
    num_columns: int

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.indptr.ndim != 1 or len(self.indptr) < 1:
            raise ValueError("indptr must be a non-empty 1-D array")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr must start at 0 and end at len(indices)")
        if len(self.indices) and (self.indices.min() < 0
                                  or self.indices.max() >= self.num_columns):
            raise ValueError("candidate ids out of range")

    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(cls, rows, cols, num_rows: int, num_columns: int) -> "RowCandidates":
        """Build from (row, col) index pairs (duplicates allowed)."""
        indptr, indices = _dedupe_pairs(rows, cols, num_rows, num_columns)
        return cls(indptr=indptr, indices=indices, num_columns=num_columns)

    @classmethod
    def complete(cls, num_rows: int, num_columns: int) -> "RowCandidates":
        """Every column a candidate of every row (the exhaustive set)."""
        indptr = np.arange(num_rows + 1, dtype=np.int64) * num_columns
        indices = np.tile(np.arange(num_columns, dtype=np.int64), num_rows)
        return cls(indptr=indptr, indices=indices, num_columns=num_columns)

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.indptr)

    @property
    def total(self) -> int:
        return int(len(self.indices))

    @property
    def density(self) -> float:
        """Fraction of the ``num_rows · num_columns`` cells covered."""
        cells = self.num_rows * self.num_columns
        return self.total / cells if cells else 0.0

    def row(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def is_complete(self) -> bool:
        """True when every row holds every column (exhaustive coverage).

        Exact from the total alone: a row's ids are unique, so no row can
        hold more than ``num_columns`` of them.
        """
        return self.total == self.num_rows * self.num_columns

    # ------------------------------------------------------------------
    def union(self, other: "RowCandidates") -> "RowCandidates":
        """Row-wise set union of two candidate structures."""
        if self.num_rows != other.num_rows or self.num_columns != other.num_columns:
            raise ValueError("candidate shapes differ")
        rows = np.concatenate([
            np.repeat(np.arange(self.num_rows), self.counts),
            np.repeat(np.arange(other.num_rows), other.counts),
        ])
        cols = np.concatenate([self.indices, other.indices])
        return RowCandidates.from_pairs(rows, cols, self.num_rows, self.num_columns)

    def transposed(self, num_columns: int | None = None) -> "RowCandidates":
        """Swap the row/column roles (used by reverse escalation)."""
        rows = np.repeat(np.arange(self.num_rows), self.counts)
        return RowCandidates.from_pairs(
            self.indices, rows, self.num_columns,
            num_columns if num_columns is not None else self.num_rows)

    def select_rows(self, rows) -> "RowCandidates":
        """Candidate sets of a row subset (rows renumbered 0..len(rows)-1).

        Row ``i`` of the result holds exactly the candidates of input row
        ``rows[i]`` — the slice the row-subset decode
        (:meth:`repro.pipeline.Aligner.rank`) feeds ``blockwise_topk``, so a
        partial decode restricted to these rows computes the same cells the
        full decode would for them.  Duplicate ids are allowed (the serving
        engine pads single-row decodes).
        """
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if len(rows) and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise ValueError("row ids out of range")
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        positions = flat_row_positions(starts, counts)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return RowCandidates(indptr=indptr, indices=self.indices[positions],
                             num_columns=self.num_columns)

    def padded(self, min_count: int) -> "RowCandidates":
        """Ensure every row holds at least ``min_count`` candidates.

        Deficient rows are topped up with the smallest column ids not
        already present — a handful of extra exact dot products per row,
        which keeps every downstream top-k / rank consumer free of
        shorter-than-k rows without distorting the stored scores.
        """
        min_count = min(int(min_count), self.num_columns)
        counts = self.counts
        deficient = np.flatnonzero(counts < min_count)
        if len(deficient) == 0:
            return self
        # Vectorised top-up: a deficient row holds < min_count candidates, so
        # the smallest min_count missing ids all fall below
        # min_count + count < 2 * min_count — a bounded window per row.  A
        # stable argsort of the presence mask lists the absent columns first,
        # in ascending id order.
        deficient_counts = counts[deficient]
        limit = min(self.num_columns, int(min_count + deficient_counts.max()))
        positions = flat_row_positions(self.indptr[deficient], deficient_counts)
        have_cols = self.indices[positions]
        have_rows = np.repeat(np.arange(len(deficient)), deficient_counts)
        present = np.zeros((len(deficient), limit), dtype=bool)
        in_window = have_cols < limit
        present[have_rows[in_window], have_cols[in_window]] = True
        absent_first = np.argsort(present, axis=1, kind="stable")
        needed = min_count - deficient_counts
        take = np.arange(limit)[None, :] < needed[:, None]
        extra_cols = absent_first[take]
        extra_rows = np.repeat(deficient, needed)
        rows = np.concatenate([np.repeat(np.arange(self.num_rows), counts),
                               extra_rows])
        cols = np.concatenate([self.indices, extra_cols])
        return RowCandidates.from_pairs(rows, cols, self.num_rows, self.num_columns)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    norms = np.maximum(np.linalg.norm(matrix, axis=1, keepdims=True), 1e-12)
    return matrix / norms


#: Bytes of one gathered operand per chunk of :func:`edge_dot_products`.
#: Both operands of a chunk then stay in cache, instead of a whole
#: block's gathered rows streaming through memory once per round.
GATHER_CHUNK_BYTES = 1 << 18


def edge_dot_products(source_states, target_states, rows: np.ndarray,
                      cols: np.ndarray, dtype) -> np.ndarray:
    """Round-averaged dot product of every edge ``(rows[e], cols[e])``, float64.

    Each edge is one ``einsum`` over its own two rows per round, summed
    over the rounds in order from a ``dtype`` zero, then averaged in
    float64.  Rows are gathered a chunk of edges at a time
    (``GATHER_CHUNK_BYTES`` per operand), so the transient is
    ``O(chunk · d)`` instead of ``O(edges · d)``; no edge's value depends
    on which edges share its chunk, so the chunking moves no bit.
    """
    num_rounds = len(source_states)
    row_bytes = source_states[0].shape[1] * source_states[0].dtype.itemsize
    chunk = max(1, GATHER_CHUNK_BYTES // max(1, row_bytes))
    values = np.empty(len(rows), dtype=np.float64)
    for lo in range(0, len(rows), chunk):
        chunk_rows, chunk_cols = rows[lo:lo + chunk], cols[lo:lo + chunk]
        total = np.zeros(len(chunk_rows), dtype=dtype)
        for source, target in zip(source_states, target_states):
            total = total + np.einsum("ed,ed->e", source[chunk_rows],
                                      target[chunk_cols])
        values[lo:lo + chunk] = total
    if num_rounds > 1:
        values /= num_rounds
    return values


def _concat_states(states) -> np.ndarray:
    """Round-concatenated normalised embeddings.

    The round-averaged similarity is ``(1/R) Σ_r ŝ_r · t̂_r``, i.e. a
    positive multiple of the dot product of the per-round-normalised
    concatenations — so nearest-neighbour structure (and hence candidate
    generation) on the concatenation is exactly the structure of the
    averaged similarity.
    """
    if isinstance(states, np.ndarray):
        states = [states]
    return np.concatenate([_normalize_rows(np.asarray(s)) for s in states], axis=1)


def _ivf_cell_count(n_clusters: int | None, num_vectors: int) -> int:
    """IVF cells over ``num_vectors``: ``n_clusters`` (``None`` ≈ sqrt(n)), at most n."""
    if n_clusters is None:
        n_clusters = max(1, int(round(np.sqrt(num_vectors))))
    return min(int(n_clusters), num_vectors)


# ---------------------------------------------------------------------------
# IVF (k-means coarse quantiser + inverted buckets)
# ---------------------------------------------------------------------------
class IVFIndex:
    """Inverted-file index over a vector set, bucketed by k-means cells.

    Similarity is the plain dot product (callers pass normalised — possibly
    round-concatenated — embeddings, making it cosine / round-averaged
    cosine).  k-means runs on the same dot-product geometry via Euclidean
    distance of the stored vectors; every random draw comes from one seeded
    generator so the index is bit-reproducible.
    """

    #: Vectors per chunk of the assignment / distance passes.  Keeps every
    #: transient at ``O(chunk · n_clusters)`` so memory-mapped tables are
    #: never materialised in full.
    ASSIGN_CHUNK = 65536

    def __init__(self, vectors: np.ndarray, n_clusters: int | None = None,
                 kmeans_iters: int = 8, seed: int = 0,
                 init_centroids: np.ndarray | None = None,
                 train_size: int | None = None):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or len(vectors) == 0:
            raise ValueError("vectors must be a non-empty 2-D array")
        self.vectors = vectors
        num = len(vectors)
        self.n_clusters = _ivf_cell_count(n_clusters, num)
        rng = np.random.default_rng(seed)

        # Lloyd's training set: everything by default; a seeded subsample
        # when train_size caps it (the million-vector out-of-core build).
        # Assignment quality barely depends on training every point, but
        # the final full assignment below always covers every vector.
        if train_size is not None and int(train_size) < num:
            train_size = max(int(train_size), self.n_clusters)
            sample = np.sort(rng.choice(num, size=train_size, replace=False))
            train = np.array(vectors[sample], dtype=np.float64)
        else:
            train = vectors

        if (init_centroids is not None
                and init_centroids.shape == (self.n_clusters, vectors.shape[1])):
            # Warm start (e.g. the previous iterative-training round's
            # centroids): Lloyd refines an already-good quantisation, so the
            # convergence early-exit below usually fires after one pass.
            centroids = np.asarray(init_centroids, dtype=np.float64).copy()
        else:
            centroids = train[rng.choice(len(train), size=self.n_clusters,
                                         replace=False)].copy()
        # kmeans_iters=0 keeps the raw initial-centroid bucketing; the final
        # assignment below always runs.
        previous_assignments: np.ndarray | None = None
        for _ in range(int(kmeans_iters)):
            assignments = self._assign(train, centroids)
            if (previous_assignments is not None
                    and np.array_equal(assignments, previous_assignments)):
                # Unchanged assignments mean the following centroid update
                # recomputes the same means: Lloyd has converged and every
                # remaining iteration is a bit-identical no-op — skip them.
                break
            previous_assignments = assignments
            sums = np.zeros_like(centroids)
            np.add.at(sums, assignments, train)
            counts = np.bincount(assignments, minlength=self.n_clusters)
            occupied = counts > 0
            centroids[occupied] = sums[occupied] / counts[occupied, None]
            if not occupied.all():
                # Reseed empty cells on the points farthest from their own
                # centroid — deterministic, and it keeps buckets balanced
                # enough that nprobe candidate counts stay predictable.
                distances = self._centroid_distances(train, centroids, assignments)
                farthest = np.argsort(-distances)
                centroids[~occupied] = train[farthest[:int((~occupied).sum())]]
                previous_assignments = None
        self.assignments = self._assign(vectors, centroids)
        self.centroids = centroids
        self.rebuild_buckets()

        radii = np.zeros(self.n_clusters, dtype=np.float64)
        for lo in range(0, num, self.ASSIGN_CHUNK):
            hi = min(lo + self.ASSIGN_CHUNK, num)
            chunk_assignments = self.assignments[lo:hi]
            deltas = vectors[lo:hi] - centroids[chunk_assignments]
            np.maximum.at(radii, chunk_assignments,
                          np.linalg.norm(deltas, axis=1))
        self.radii = radii
        #: Vectors appended by :meth:`insert` since this fit — the
        #: staleness counter incremental callers consult to schedule a
        #: :meth:`refit` re-quantisation.
        self.num_inserted = 0

    @classmethod
    def from_config(cls, vectors: np.ndarray, config: AnnConfig, seed: int,
                    init_centroids: np.ndarray | None = None) -> "IVFIndex":
        """The quantiser ``config`` describes; fit-time and ingest builds share it."""
        return cls(vectors, n_clusters=config.n_clusters,
                   kmeans_iters=config.kmeans_iters, seed=seed,
                   init_centroids=init_centroids, train_size=config.train_size)

    # ------------------------------------------------------------------
    def rebuild_buckets(self) -> None:
        """Rebuild the bucket CSR (``bucket_indptr``/``bucket_indices``).

        Derived from ``assignments`` alone, so callers that change
        assignments in place call this afterwards.  The stable argsort
        groups members by cluster while keeping ids ascending within every
        bucket — the order the candidate decode's tie semantics rely on.
        """
        order = np.argsort(self.assignments, kind="stable")
        self.bucket_indices = order.astype(np.int64)
        bucket_counts = np.bincount(self.assignments, minlength=self.n_clusters)
        self.bucket_indptr = np.zeros(self.n_clusters + 1, dtype=np.int64)
        np.cumsum(bucket_counts, out=self.bucket_indptr[1:])

    def _assign(self, vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """Nearest centroid (Euclidean) per vector; first index wins ties.

        Chunked so the ``(n, n_clusters)`` score matrix never materialises
        — each row's argmax is independent, so the result is identical to
        the one-shot computation.
        """
        count_dot_products(len(vectors) * len(centroids))
        sq = 0.5 * np.sum(centroids ** 2, axis=1)
        out = np.empty(len(vectors), dtype=np.int64)
        for lo in range(0, len(vectors), self.ASSIGN_CHUNK):
            hi = min(lo + self.ASSIGN_CHUNK, len(vectors))
            cross = np.asarray(vectors[lo:hi], dtype=np.float64) @ centroids.T
            out[lo:hi] = np.argmax(cross - sq[None, :], axis=1)
        return out

    def _centroid_distances(self, vectors: np.ndarray, centroids: np.ndarray,
                            assignments: np.ndarray) -> np.ndarray:
        """Per-vector distance to its assigned centroid, chunked."""
        distances = np.empty(len(vectors), dtype=np.float64)
        for lo in range(0, len(vectors), self.ASSIGN_CHUNK):
            hi = min(lo + self.ASSIGN_CHUNK, len(vectors))
            deltas = vectors[lo:hi] - centroids[assignments[lo:hi]]
            distances[lo:hi] = np.linalg.norm(deltas, axis=1)
        return distances

    def centroid_scores(self, queries: np.ndarray) -> np.ndarray:
        """Dot product of every query against every centroid."""
        count_dot_products(len(queries) * self.n_clusters)
        return np.asarray(queries, dtype=np.float64) @ self.centroids.T

    def default_nprobe(self) -> int:
        return max(1, self.n_clusters // 10)

    # ------------------------------------------------------------------
    def insert(self, new_vectors: np.ndarray) -> np.ndarray:
        """Online insert: bucket new vectors by nearest centroid, no re-train.

        The centroids stay fixed; the new vectors are appended (their ids
        continue the existing range), assigned to their nearest centroid,
        and the bucket CSR is rebuilt with one stable argsort — ids remain
        ascending within every bucket, preserving the candidate decode's
        tie semantics.  Bucket radii only grow, so
        :meth:`escalated_candidates` bounds stay valid.  Returns the new
        vectors' bucket assignments; ``num_inserted`` accumulates until a
        :meth:`refit` re-quantises (quantisation quality degrades slowly as
        inserts pile up, which is the staleness that counter measures).
        """
        new_vectors = np.asarray(new_vectors, dtype=np.float64)
        if new_vectors.ndim != 2 or new_vectors.shape[1] != self.vectors.shape[1]:
            raise ValueError(
                f"new vectors must be 2-D with dim {self.vectors.shape[1]}")
        if len(new_vectors) == 0:
            return np.empty(0, dtype=np.int64)
        assignments = self._assign(new_vectors, self.centroids)
        # Concatenation materialises a memory-mapped base; incremental
        # deltas are small relative to the index so this stays bounded.
        self.vectors = np.concatenate(
            [np.asarray(self.vectors, dtype=np.float64), new_vectors])
        self.assignments = np.concatenate([self.assignments, assignments])
        self.rebuild_buckets()
        deltas = new_vectors - self.centroids[assignments]
        np.maximum.at(self.radii, assignments, np.linalg.norm(deltas, axis=1))
        self.num_inserted += len(new_vectors)
        return assignments

    def refit(self, *, kmeans_iters: int = 8, seed: int = 0,
              train_size: int | None = None) -> "IVFIndex":
        """Re-quantise every vector, warm-started from the current centroids.

        The subsampled (``train_size=``) k-means starts from this index's
        centroids, so Lloyd refines rather than re-derives the cells; the
        returned index covers all vectors (inserted ones included) with a
        reset staleness counter.
        """
        return IVFIndex(self.vectors, n_clusters=self.n_clusters,
                        kmeans_iters=kmeans_iters, seed=seed,
                        init_centroids=self.centroids, train_size=train_size)

    def candidates(self, queries: np.ndarray, nprobe: int | None = None) -> RowCandidates:
        """Members of each query's ``nprobe`` best-scoring buckets."""
        queries = np.asarray(queries, dtype=np.float64)
        nprobe = self.default_nprobe() if nprobe is None else int(nprobe)
        if nprobe <= 0:
            raise ValueError("nprobe must be positive")
        nprobe = min(nprobe, self.n_clusters)
        scores = self.centroid_scores(queries)
        if nprobe < self.n_clusters:
            probed = np.argpartition(scores, self.n_clusters - nprobe,
                                     axis=1)[:, self.n_clusters - nprobe:]
        else:
            probed = np.broadcast_to(np.arange(self.n_clusters), scores.shape)
        clusters = probed.ravel()
        query_of_probe = np.repeat(np.arange(len(queries)), probed.shape[1])
        starts = self.bucket_indptr[clusters]
        counts = self.bucket_indptr[clusters + 1] - starts
        positions = flat_row_positions(starts, counts)
        cols = self.bucket_indices[positions]
        rows = np.repeat(query_of_probe, counts)
        return RowCandidates.from_pairs(rows, cols, len(queries), len(self.vectors))

    def escalated_candidates(self, queries: np.ndarray,
                             slack: float = 0.0) -> RowCandidates:
        """Probe buckets per query until the top-1 is provably exact.

        Buckets are visited in descending centroid-score order; a query
        stops as soon as its best score so far is at least the maximum
        ``q·μ_c + ‖q‖·r_c`` bound over its unprobed buckets, at which point
        no unprobed vector can strictly beat the best found.

        ``slack > 0`` is the per-query *adaptive nprobe* relaxation: a
        query already stops when its best score is within ``slack`` of the
        bound.  Any unprobed vector can then beat the best by at most
        ``slack``, so recall degrades gracefully as the dial opens while
        easy queries (whose bound closes immediately) stay exact and cheap;
        ``slack=0.0`` reproduces the exact escalation bit for bit.
        """
        if slack < 0.0:
            raise ValueError("slack must be non-negative")
        queries = np.asarray(queries, dtype=np.float64)
        num_queries = len(queries)
        scores = self.centroid_scores(queries)
        order = np.argsort(-scores, axis=1)
        norms = np.linalg.norm(queries, axis=1)
        bounds = (np.take_along_axis(scores, order, axis=1)
                  + norms[:, None] * self.radii[order])
        # suffix_max[:, p] = best possible score among probe positions >= p
        suffix_max = np.maximum.accumulate(bounds[:, ::-1], axis=1)[:, ::-1]

        best = np.full(num_queries, -np.inf)
        active = np.arange(num_queries)
        collected_rows: list[np.ndarray] = []
        collected_cols: list[np.ndarray] = []
        for position in range(self.n_clusters):
            if len(active) == 0:
                break
            clusters = order[active, position]
            starts = self.bucket_indptr[clusters]
            counts = self.bucket_indptr[clusters + 1] - starts
            positions = flat_row_positions(starts, counts)
            cols = self.bucket_indices[positions]
            rows = np.repeat(active, counts)
            if len(cols):
                count_dot_products(len(cols))
                values = edge_dot_products([queries], [self.vectors], rows,
                                           cols, np.float64)
                np.maximum.at(best, rows, values)
                collected_rows.append(rows)
                collected_cols.append(cols)
            if position + 1 >= self.n_clusters:
                break
            done = best[active] >= suffix_max[active, position + 1] - slack
            active = active[~done]
        if collected_rows:
            all_rows = np.concatenate(collected_rows)
            all_cols = np.concatenate(collected_cols)
        else:  # pragma: no cover - only with an all-empty index
            all_rows = np.empty(0, dtype=np.int64)
            all_cols = np.empty(0, dtype=np.int64)
        return RowCandidates.from_pairs(all_rows, all_cols, num_queries,
                                        len(self.vectors))


class IVFWarmStart:
    """Mutable carrier of k-means centroids across repeated IVF builds.

    The iterative trainer re-quantises the (slightly shifted) evaluation
    embeddings every bootstrapping round; passing one ``IVFWarmStart``
    through :func:`generate_candidates` makes each round's k-means start
    from the previous round's centroids instead of a fresh random draw, so
    Lloyd converges (and the convergence early-exit fires) after far fewer
    assignment passes.  Candidate *exactness* is untouched: the escalated
    pseudo-seed decode proves its top-1 per row regardless of where the
    quantiser converged.

    One entry is kept per direction key (the forward ``target`` index and
    the reverse ``source`` index of escalation); a stored centroid set is
    only reused when its shape still matches.
    """

    def __init__(self) -> None:
        self._centroids: dict[str, np.ndarray] = {}

    def get(self, key: str, n_clusters: int, dim: int) -> np.ndarray | None:
        stored = self._centroids.get(key)
        if stored is not None and stored.shape == (n_clusters, dim):
            return stored
        return None

    def store(self, key: str, centroids: np.ndarray) -> None:
        self._centroids[key] = np.asarray(centroids, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._centroids)


# ---------------------------------------------------------------------------
# Front door used by the decode stack
# ---------------------------------------------------------------------------
@register_candidate_generator("ivf")
def _ivf_candidates(source_concat: np.ndarray, target_concat: np.ndarray,
                    config: AnnConfig,
                    warm_start: IVFWarmStart | None = None) -> RowCandidates | None:
    """IVF candidate sets; ``None`` when probing provably covers every cell."""
    seed = config.resolved_seed()
    if (not config.exact_escalation and config.nprobe is not None
            and config.nprobe >= _ivf_cell_count(config.n_clusters,
                                                 len(target_concat))):
        return None

    def build(vectors: np.ndarray, key: str, index_seed: int) -> IVFIndex:
        init = None
        if warm_start is not None:
            cells = _ivf_cell_count(config.n_clusters, len(vectors))
            init = warm_start.get(key, cells, vectors.shape[1])
        index = IVFIndex.from_config(vectors, config, index_seed, init)
        if warm_start is not None:
            warm_start.store(key, index.centroids)
        return index

    index = build(target_concat, "forward", seed)
    if config.exact_escalation:
        forward = index.escalated_candidates(source_concat)
        reverse_index = build(source_concat, "reverse", seed + 1)
        reverse = reverse_index.escalated_candidates(target_concat)
        return forward.union(reverse.transposed())
    return index.candidates(source_concat, nprobe=config.nprobe)


def generate_candidates(method: str, source, target,
                        config: AnnConfig | None = None,
                        warm_start: IVFWarmStart | None = None) -> RowCandidates | None:
    """Per-source-row candidate target sets for a (round-averaged) decode.

    ``source`` / ``target`` are embedding matrices or lists of per-round
    states (the Semantic Propagation decode); rounds are normalised and
    concatenated, which preserves the averaged-similarity neighbour
    structure exactly.  ``method`` names a generator registered through
    :func:`repro.core.registries.register_candidate_generator` (the
    built-in is ``"ivf"``); the returned sets are
    deterministic functions of the inputs and ``config.seed``.

    ``warm_start`` (an :class:`IVFWarmStart`) carries k-means centroids
    across repeated builds — generators that support it (the built-in IVF)
    must accept it as a keyword; it is only forwarded when supplied, so
    generators without warm-start support keep their three-argument
    signature.

    Returns ``None`` when the configuration provably covers every cell
    (IVF with ``nprobe >= n_clusters``): complete coverage *is* the
    exhaustive decode, and ``blockwise_topk(row_candidates=None)`` takes
    the identical GEMM path bit for bit — without ever materialising an
    ``O(n_s · n_t)`` candidate structure.
    """
    builder = CANDIDATE_REGISTRY.get(method)
    if builder is None:
        raise ValueError(f"unknown candidate method {method!r}; "
                         f"registered: {sorted(CANDIDATE_REGISTRY)}")
    config = config or AnnConfig()
    source_concat = _concat_states(source)
    target_concat = _concat_states(target)
    if warm_start is not None:
        result = builder(source_concat, target_concat, config,
                         warm_start=warm_start)
    else:
        result = builder(source_concat, target_concat, config)
    if config.min_candidates is not None and result is not None:
        result = result.padded(config.min_candidates)
    return result


def recall_at_k(approx_indices: np.ndarray, exact_indices: np.ndarray,
                k: int = 1) -> float:
    """Mean per-row overlap between approximate and exact top-``k`` ids.

    ``recall@k = |approx_topk ∩ exact_topk| / k`` averaged over rows — the
    measured-recall figure the scaling benchmarks record against the exact
    decode.
    """
    approx_indices = np.asarray(approx_indices)
    exact_indices = np.asarray(exact_indices)
    if approx_indices.ndim != 2 or exact_indices.ndim != 2:
        raise ValueError("expected (rows, k) index arrays")
    if len(approx_indices) != len(exact_indices):
        raise ValueError("row counts differ")
    k = min(k, exact_indices.shape[1])
    if k <= 0:
        raise ValueError("k must be positive")
    exact_top = exact_indices[:, :k]
    approx_top = approx_indices[:, :min(k, approx_indices.shape[1])]
    hits = (exact_top[:, :, None] == approx_top[:, None, :]).any(axis=2)
    return float(hits.sum(axis=1).mean() / k)
