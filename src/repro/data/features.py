"""Modal feature construction for MMKG entities.

Following Sec. V-A(4) of the paper, relations and textual attributes are
encoded as Bag-of-Words vectors of fixed length and the visual modality
uses pre-extracted image features (ResNet-152 in the paper, synthetic
vectors in this reproduction).  Entities lacking a modality receive randomly
generated initial features drawn from the distribution of the existing
features of that modality — exactly the interpolation-by-predefined-
distribution baseline behaviour that Semantic Propagation later improves on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kg.graph import MultiModalKG

__all__ = [
    "bag_of_relations",
    "bag_of_attributes",
    "visual_feature_matrix",
    "ModalFeatureSet",
    "build_feature_set",
    "random_from_distribution",
]


def _hashed_index(index: int, dim: int) -> int:
    """Stable feature-hashing of a vocabulary index into ``dim`` buckets."""
    return (index * 2654435761) % dim


def bag_of_relations(graph: MultiModalKG, dim: int | None = None) -> np.ndarray:
    """Bag-of-Words relation features: counts of incident relation types.

    When ``dim`` is smaller than the relation vocabulary, feature hashing is
    used (the paper fixes the BoW length to 1000 regardless of vocabulary).
    """
    dim = dim or max(1, graph.num_relations)
    features = np.zeros((graph.num_entities, dim))
    for triple in graph.relation_triples:
        bucket = _hashed_index(triple.relation, dim)
        features[triple.head, bucket] += 1.0
        features[triple.tail, bucket] += 1.0
    return features


def bag_of_attributes(graph: MultiModalKG, dim: int | None = None) -> np.ndarray:
    """Bag-of-Words attribute features: counts of attribute predicates per entity."""
    dim = dim or max(1, graph.num_attributes)
    features = np.zeros((graph.num_entities, dim))
    for triple in graph.attribute_triples:
        bucket = _hashed_index(triple.attribute, dim)
        features[triple.entity, bucket] += 1.0
    return features


def visual_feature_matrix(graph: MultiModalKG, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stack visual features into an ``(N, dim)`` matrix plus a presence mask.

    Rows for entities without images are left at zero; the mask records
    which rows carry native features.
    """
    if graph.image_features:
        native_dim = len(next(iter(graph.image_features.values())))
    else:
        native_dim = dim or 1
    dim = dim or native_dim
    features = np.zeros((graph.num_entities, dim))
    mask = np.zeros(graph.num_entities, dtype=bool)
    for entity, vector in graph.image_features.items():
        vector = np.asarray(vector, dtype=np.float64)
        if len(vector) < dim:
            vector = np.pad(vector, (0, dim - len(vector)))
        features[entity] = vector[:dim]
        mask[entity] = True
    return features, mask


@dataclass
class ModalFeatureSet:
    """Per-modality raw input features and presence masks for one MMKG.

    Attributes
    ----------
    features:
        ``modality -> (N, d_m)`` raw feature matrices (after missing-entity
        imputation with the chosen strategy).
    masks:
        ``modality -> (N,)`` boolean arrays; True where the entity has
        *native* (non-imputed) features.  These masks drive both the MMSL
        confidence weighting and Semantic Propagation's boundary conditions.
    """

    features: dict[str, np.ndarray]
    masks: dict[str, np.ndarray]
    graph: MultiModalKG | None = field(default=None, repr=False)

    @property
    def num_entities(self) -> int:
        return next(iter(self.features.values())).shape[0]

    @property
    def modalities(self) -> list[str]:
        return list(self.features)

    def dims(self) -> dict[str, int]:
        return {m: mat.shape[1] for m, mat in self.features.items()}

    def missing_ratio(self, modality: str) -> float:
        """Fraction of entities whose features for ``modality`` were imputed."""
        mask = self.masks[modality]
        return float(1.0 - mask.mean())

    def consistency_partition(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Split entities into the ``E_c`` / ``E_{o1}`` / ``E_{o2}`` sets of Eq. 2.

        ``E_c``: native features in every modality; ``E_{o2}``: at least one
        modality entirely missing (imputed); ``E_{o1}``: all modalities
        present but with below-median attribute/relation counts, modelling
        the attribute-count disparity form of inconsistency.
        """
        masks = np.stack([self.masks[m] for m in self.modalities], axis=1)
        has_all = masks.all(axis=1)
        missing = np.where(~has_all)[0]
        present = np.where(has_all)[0]
        if self.graph is not None and len(present) > 2:
            counts = np.zeros(self.num_entities)
            for triple in self.graph.attribute_triples:
                counts[triple.entity] += 1.0
            for triple in self.graph.relation_triples:
                counts[triple.head] += 1.0
                counts[triple.tail] += 1.0
            median = np.median(counts[present])
            sparse = present[counts[present] < 0.5 * median]
            consistent = np.setdiff1d(present, sparse)
            if len(consistent) == 0:
                consistent, sparse = present, np.array([], dtype=np.int64)
            return consistent, sparse, missing
        return present, np.array([], dtype=np.int64), missing


def random_from_distribution(native: np.ndarray, count: int,
                             rng: np.random.Generator) -> np.ndarray:
    """``count`` rows from the per-column normal of ``native`` (standard if empty)."""
    if len(native):
        mean, std = native.mean(axis=0), native.std(axis=0) + 1e-8
    else:
        mean, std = np.zeros(native.shape[1]), np.ones(native.shape[1])
    return rng.normal(mean, std, size=(count, native.shape[1]))


def _impute_missing(features: np.ndarray, mask: np.ndarray,
                    rng: np.random.Generator, strategy: str) -> np.ndarray:
    """Fill rows where ``mask`` is False according to ``strategy``."""
    if mask.all():
        return features
    filled = features.copy()
    missing = ~mask
    if strategy == "zero":
        filled[missing] = 0.0
    elif strategy == "random_from_distribution":
        filled[missing] = random_from_distribution(features[mask],
                                                   int(missing.sum()), rng)
    elif strategy == "mean":
        mean = features[mask].mean(axis=0) if mask.any() else np.zeros(features.shape[1])
        filled[missing] = mean
    else:
        raise ValueError(f"unknown imputation strategy {strategy!r}")
    return filled


def build_feature_set(graph: MultiModalKG,
                      rng: np.random.Generator,
                      relation_dim: int | None = None,
                      attribute_dim: int | None = None,
                      vision_dim: int | None = None,
                      structure_dim: int = 64,
                      imputation: str = "random_from_distribution") -> ModalFeatureSet:
    """Build the full modal feature set ``{x^g, x^r, x^t, x^v}`` for a graph.

    The structural modality ``x^g`` is randomly initialised (Sec. IV-A(1));
    the other modalities come from Bag-of-Words / visual features with
    missing entities imputed via ``imputation``.
    """
    relation_features = bag_of_relations(graph, relation_dim)
    attribute_features = bag_of_attributes(graph, attribute_dim)
    vision_features, vision_mask = visual_feature_matrix(graph, vision_dim)

    masks = graph.modality_mask()
    features = {
        "graph": rng.normal(0.0, 0.3, size=(graph.num_entities, structure_dim)),
        "relation": _impute_missing(relation_features, masks["relation"], rng, imputation),
        "attribute": _impute_missing(attribute_features, masks["attribute"], rng, imputation),
        "vision": _impute_missing(vision_features, vision_mask, rng, imputation),
    }
    return ModalFeatureSet(
        features=features,
        masks={
            "graph": masks["graph"],
            "relation": masks["relation"],
            "attribute": masks["attribute"],
            "vision": vision_mask,
        },
        graph=graph,
    )
