"""Preparation of an alignment task for model consumption.

Turns a :class:`~repro.kg.pair.KGPair` into the numpy artefacts shared by
DESAlign and every baseline: per-side modal feature matrices with matching
dimensionalities, normalised adjacency matrices, Laplacians and the
seed/test index arrays.

Every graph matrix is CSR, built straight from the relation triples, so
memory stays ``O(|E|)`` and graphs with many thousands of entities fit
comfortably; no ``n x n`` array is ever materialised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..data.features import ModalFeatureSet, build_feature_set
from ..kg.graph import MultiModalKG
from ..kg.pair import KGPair
from ..kg.sparse import graph_laplacian_sparse, normalized_adjacency_sparse

__all__ = ["PreparedSide", "PreparedTask", "prepare_task", "prepare_side"]


@dataclass
class PreparedSide:
    """Graph artefacts for one side (source or target) of the task."""

    features: ModalFeatureSet
    adjacency: sp.csr_matrix
    normalized_adjacency: sp.csr_matrix
    laplacian: sp.csr_matrix

    @property
    def num_entities(self) -> int:
        return self.adjacency.shape[0]


@dataclass
class PreparedTask:
    """A fully materialised alignment problem ready for training."""

    pair: KGPair
    source: PreparedSide
    target: PreparedSide
    train_pairs: np.ndarray      # (num_seed, 2) [source_id, target_id]
    test_pairs: np.ndarray       # (num_test, 2)
    feature_dims: dict[str, int]

    @property
    def name(self) -> str:
        return self.pair.name

    def seed_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Source and target index arrays of the seed alignments."""
        return self.train_pairs[:, 0], self.train_pairs[:, 1]

    def test_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Source and target index arrays of the held-out test alignments."""
        return self.test_pairs[:, 0], self.test_pairs[:, 1]


def prepare_side(graph: MultiModalKG, features: ModalFeatureSet) -> PreparedSide:
    """One side's CSR matrices (row ``i`` is entity ``i``) around its features."""
    adjacency = graph.adjacency_matrix()
    return PreparedSide(features=features, adjacency=adjacency,
                        normalized_adjacency=normalized_adjacency_sparse(adjacency),
                        laplacian=graph_laplacian_sparse(adjacency))


def prepare_task(pair: KGPair,
                 relation_dim: int = 48,
                 attribute_dim: int = 48,
                 vision_dim: int | None = None,
                 structure_dim: int = 32,
                 imputation: str = "random_from_distribution",
                 seed: int = 0) -> PreparedTask:
    """Prepare a :class:`KGPair` for training.

    Feature dimensionalities are shared between the two graphs (relations
    and attributes are feature-hashed into fixed-length Bag-of-Words
    vectors, Sec. V-A(4)) so a single encoder can process both sides; each
    side's matrices come from :func:`prepare_side`.
    """
    rng = np.random.default_rng(seed)
    if vision_dim is None:
        dims = []
        for graph in (pair.source, pair.target):
            if graph.image_features:
                dims.append(len(next(iter(graph.image_features.values()))))
        vision_dim = max(dims) if dims else 16

    sides = {}
    for key, graph in (("source", pair.source), ("target", pair.target)):
        features = build_feature_set(
            graph,
            rng=rng,
            relation_dim=relation_dim,
            attribute_dim=attribute_dim,
            vision_dim=vision_dim,
            structure_dim=structure_dim,
            imputation=imputation,
        )
        sides[key] = prepare_side(graph, features)

    train, test = pair.split(np.random.default_rng(seed + 1))
    train_pairs = np.asarray([[p.source, p.target] for p in train], dtype=np.int64)
    test_pairs = np.asarray([[p.source, p.target] for p in test], dtype=np.int64)
    return PreparedTask(
        pair=pair,
        source=sides["source"],
        target=sides["target"],
        train_pairs=train_pairs,
        test_pairs=test_pairs,
        feature_dims={
            "graph": structure_dim,
            "relation": relation_dim,
            "attribute": attribute_dim,
            "vision": vision_dim,
        },
    )
