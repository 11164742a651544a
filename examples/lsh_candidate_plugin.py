"""Plug a new candidate generator into the decode stack: random-hyperplane LSH.

``candidates=`` in a :class:`~repro.pipeline.DecodeSpec` names a generator
in the candidate registry.  The package ships ``"exhaustive"`` and
``"ivf"``; this file adds ``"lsh"`` with one decorator,
:func:`repro.register_candidate_generator`.  Importing the file registers
it, so any spec, artifact or CLI run in the same process can then say
``candidates="lsh"``.

A generator receives the round-concatenated, normalised source and target
embeddings plus the resolved :class:`~repro.core.ann.AnnConfig`, and
returns per-source-row candidate target sets
(:class:`~repro.core.ann.RowCandidates`).  The decode scores only those
cells, so it meters far fewer dot products than the exhaustive scan.

LSH has no bound that proves a row's top-1, so the pipeline refuses it
where that proof is needed: iterative pseudo-seeding and incremental
ingest accept only ``"exhaustive"`` or ``"ivf"``.

Running the script fits a small spec with ``candidates="lsh"``, compares
its top-10 with the exhaustive decode, and reloads the saved artifact.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace

import numpy as np

from repro import (
    Aligner,
    AlignmentPipeline,
    DataSpec,
    DecodeSpec,
    PipelineSpec,
    TrainingConfig,
    register_candidate_generator,
)
from repro.core.ann import AnnConfig, RowCandidates, count_dot_products, recall_at_k
from repro.kg.sampling import flat_row_positions

FAST = os.environ.get("REPRO_EXAMPLES_FAST") == "1"

NUM_ENTITIES = 60 if FAST else 200
EPOCHS = 5 if FAST else 40

#: Independent hash tables, and sign bits per table.
TABLES = 8
HYPERPLANES = 12


class RandomHyperplaneLSH:
    """Sign-random-projection hashing over a vector set.

    ``tables`` independent hash tables of ``hyperplanes`` sign bits each; a
    query's candidates are the union of the buckets whose full code matches
    in at least one table.  Collision probability per bit is
    ``1 − θ/π`` for angle ``θ``, so near neighbours collide in some table
    with high probability while the expected bucket size stays
    ``n / 2^hyperplanes``.
    """

    def __init__(self, vectors: np.ndarray, tables: int = 8,
                 hyperplanes: int = 12, seed: int = 0):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or len(vectors) == 0:
            raise ValueError("vectors must be a non-empty 2-D array")
        if hyperplanes > 62:
            raise ValueError("hyperplanes must be <= 62 (codes are int64)")
        self.num_vectors = len(vectors)
        rng = np.random.default_rng(seed)
        self.planes = rng.normal(size=(tables, vectors.shape[1], hyperplanes))
        self.tables = tables
        self.hyperplanes = hyperplanes
        codes = self._codes(vectors)                    # (n, tables)
        self._sorted_codes: list[np.ndarray] = []
        self._sorted_ids: list[np.ndarray] = []
        for table in range(tables):
            order = np.argsort(codes[:, table], kind="stable")
            self._sorted_ids.append(order.astype(np.int64))
            self._sorted_codes.append(codes[order, table])

    def _codes(self, vectors: np.ndarray) -> np.ndarray:
        """Per-table integer hash codes of ``vectors``."""
        count_dot_products(len(vectors) * self.tables * self.hyperplanes)
        weights = (1 << np.arange(self.hyperplanes)).astype(np.int64)
        codes = np.empty((len(vectors), self.tables), dtype=np.int64)
        for table in range(self.tables):
            bits = (np.asarray(vectors, dtype=np.float64)
                    @ self.planes[table]) >= 0.0
            codes[:, table] = bits.astype(np.int64) @ weights
        return codes

    def candidates(self, queries: np.ndarray) -> RowCandidates:
        """Union over tables of each query's colliding bucket."""
        queries = np.asarray(queries, dtype=np.float64)
        codes = self._codes(queries)
        rows_parts: list[np.ndarray] = []
        cols_parts: list[np.ndarray] = []
        for table in range(self.tables):
            sorted_codes = self._sorted_codes[table]
            starts = np.searchsorted(sorted_codes, codes[:, table], side="left")
            stops = np.searchsorted(sorted_codes, codes[:, table], side="right")
            counts = stops - starts
            positions = flat_row_positions(starts, counts)
            cols_parts.append(self._sorted_ids[table][positions])
            rows_parts.append(np.repeat(np.arange(len(queries)), counts))
        return RowCandidates.from_pairs(
            np.concatenate(rows_parts), np.concatenate(cols_parts),
            len(queries), self.num_vectors)


@register_candidate_generator("lsh")
def lsh_candidates(source_concat: np.ndarray, target_concat: np.ndarray,
                   config: AnnConfig) -> RowCandidates:
    """Multi-table random-hyperplane candidate sets (no exactness bound)."""
    if config.exact_escalation:
        raise ValueError(
            "exact_escalation is only available for candidates='ivf': "
            "random-hyperplane LSH has no bound proving a top-1 exact")
    index = RandomHyperplaneLSH(target_concat, tables=TABLES,
                                hyperplanes=HYPERPLANES,
                                seed=config.resolved_seed())
    return index.candidates(source_concat)


def main() -> None:
    spec = PipelineSpec(
        data=DataSpec(dataset="FBDB15K", num_entities=NUM_ENTITIES,
                      seed_ratio=0.3),
        training=TrainingConfig(epochs=EPOCHS, eval_every=0, seed=0),
        decode=DecodeSpec(candidates="lsh", k=10),
    )
    aligner = AlignmentPipeline.from_spec(spec).fit()
    print(f"DESAlign decoded through LSH candidates: {aligner.metrics}")

    candidates = aligner.row_candidates()
    exhaustive = aligner.with_decode(replace(spec.decode, candidates="exhaustive"))
    approx, exact = aligner.align(10), exhaustive.align(10)
    print(f"candidate cells: {candidates.density:.1%} of the n_s x n_t grid")
    print(f"recall@1 {recall_at_k(approx.target_ids, exact.target_ids, k=1):.3f}, "
          f"recall@10 {recall_at_k(approx.target_ids, exact.target_ids, k=10):.3f} "
          "against the exhaustive decode")

    with tempfile.TemporaryDirectory() as workdir:
        reloaded = Aligner.load(aligner.save(os.path.join(workdir, "lsh")))
        same = np.array_equal(reloaded.align(10).target_ids, approx.target_ids)
        print(f"reloaded artifact decodes the same top-10: {same}")
        assert same

    try:
        TrainingConfig(iterative=True, candidates="lsh")
    except ValueError as error:
        print(f"iterative training refuses the plugin: {error}")


if __name__ == "__main__":
    main()
