"""Multi-modal knowledge graph data structure.

A :class:`MultiModalKG` holds the four ingredient sets of the paper's
preliminaries (Sec. II): entities ``E``, relations ``R``, textual attributes
``A`` and images ``V``, together with the relation triples that induce the
graph structure.  Modal features may be missing for any entity — exactly
the *semantic inconsistency* the paper studies — and the structure exposes
coverage statistics, adjacency construction and modality-masking utilities
used to build the 60-split benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = ["RelationTriple", "AttributeTriple", "MultiModalKG", "MODALITIES"]

#: Canonical modality keys: graph structure, relation, text attribute, vision.
MODALITIES = ("graph", "relation", "attribute", "vision")


@dataclass(frozen=True)
class RelationTriple:
    """A relational fact ``(head, relation, tail)`` between two entities."""

    head: int
    relation: int
    tail: int


@dataclass(frozen=True)
class AttributeTriple:
    """A textual attribute fact ``(entity, attribute, value)``."""

    entity: int
    attribute: int
    value: str


@dataclass
class MultiModalKG:
    """A single multi-modal knowledge graph ``G = (E, R, A, V)``.

    Parameters
    ----------
    entity_names:
        Human-readable identifier per entity; entity ids are positional.
    num_relations, num_attributes:
        Vocabulary sizes for relations and textual attribute predicates.
    relation_triples:
        Relational facts defining the graph structure.
    attribute_triples:
        Textual attribute facts; an entity with no attribute triples has a
        missing text modality.
    image_features:
        Mapping from entity id to its visual feature vector.  Entities not
        present have a missing visual modality.
    name:
        Dataset-style name (e.g. ``"FB15K"``), used in reports.
    """

    entity_names: list[str]
    num_relations: int
    num_attributes: int
    relation_triples: list[RelationTriple] = field(default_factory=list)
    attribute_triples: list[AttributeTriple] = field(default_factory=list)
    image_features: dict[int, np.ndarray] = field(default_factory=dict)
    name: str = "MMKG"
    _degree_cache: tuple[int, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        num = self.num_entities
        for triple in self.relation_triples:
            if not (0 <= triple.head < num and 0 <= triple.tail < num):
                raise ValueError(f"relation triple {triple} references an unknown entity")
            if not 0 <= triple.relation < self.num_relations:
                raise ValueError(f"relation triple {triple} references an unknown relation")
        for triple in self.attribute_triples:
            if not 0 <= triple.entity < num:
                raise ValueError(f"attribute triple {triple} references an unknown entity")
            if not 0 <= triple.attribute < self.num_attributes:
                raise ValueError(f"attribute triple {triple} references an unknown attribute")
        for entity in self.image_features:
            if not 0 <= entity < num:
                raise ValueError(f"image feature references an unknown entity {entity}")

    # ------------------------------------------------------------------
    # Basic statistics
    # ------------------------------------------------------------------
    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relation_triples(self) -> int:
        return len(self.relation_triples)

    @property
    def num_attribute_triples(self) -> int:
        return len(self.attribute_triples)

    @property
    def num_images(self) -> int:
        return len(self.image_features)

    def entities_with_attributes(self) -> set[int]:
        """Ids of entities that have at least one textual attribute."""
        return {triple.entity for triple in self.attribute_triples}

    def entities_with_images(self) -> set[int]:
        """Ids of entities that have a visual feature."""
        return set(self.image_features)

    def image_coverage(self) -> float:
        """Fraction of entities with an associated image (cf. Sec. I statistics)."""
        return self.num_images / max(1, self.num_entities)

    def attribute_coverage(self) -> float:
        """Fraction of entities with at least one textual attribute."""
        return len(self.entities_with_attributes()) / max(1, self.num_entities)

    def statistics(self) -> dict[str, float]:
        """Summary row matching the columns of the paper's Table I."""
        return {
            "entities": self.num_entities,
            "relations": self.num_relations,
            "attributes": self.num_attributes,
            "relation_triples": self.num_relation_triples,
            "attribute_triples": self.num_attribute_triples,
            "images": self.num_images,
            "image_coverage": self.image_coverage(),
            "attribute_coverage": self.attribute_coverage(),
        }

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def adjacency_matrix(self, weighted: bool = False) -> sp.csr_matrix:
        """CSR symmetric adjacency matrix induced by the relation triples.

        When ``weighted`` the entry counts parallel edges, otherwise it is
        binary.  The graph is treated as undirected, as assumed throughout
        the paper's Dirichlet-energy analysis; no ``n x n`` dense array is
        ever materialised.
        """
        from .sparse import adjacency_from_triples

        return adjacency_from_triples(self.num_entities, self.relation_triples,
                                      weighted=weighted)

    def neighbours(self, entity: int) -> set[int]:
        """Entities sharing a relation triple with ``entity``."""
        result: set[int] = set()
        for triple in self.relation_triples:
            if triple.head == entity:
                result.add(triple.tail)
            elif triple.tail == entity:
                result.add(triple.head)
        result.discard(entity)
        return result

    def degree(self) -> np.ndarray:
        """Node degrees under the binary undirected adjacency.

        Computed directly from the relation triples in ``O(|E| log |E|)``
        (no adjacency matrix of any kind) and cached; the triple list is
        treated as immutable after construction.  As a safety net the cache
        is invalidated when the triple count changes (catching appends to
        the public list), though in-place edits of existing triples are not
        detectable.
        """
        from .sparse import degrees_from_triples

        if self._degree_cache is None or self._degree_cache[0] != len(self.relation_triples):
            self._degree_cache = (len(self.relation_triples),
                                  degrees_from_triples(self.num_entities,
                                                       self.relation_triples))
        return self._degree_cache[1].copy()

    #: Plural alias of :meth:`degree`.
    degrees = degree

    # ------------------------------------------------------------------
    # Semantic-inconsistency manipulation
    # ------------------------------------------------------------------
    def with_image_ratio(self, ratio: float, rng: np.random.Generator) -> "MultiModalKG":
        """Return a copy keeping images for only a ``ratio`` fraction of entities.

        This is how the ``R_img`` splits of Table III are constructed: a
        uniformly random subset of entities keeps its visual feature and all
        other entities lose it, simulating missing-modality inconsistency.
        """
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("ratio must lie in [0, 1]")
        keep_count = int(round(ratio * self.num_entities))
        candidates = sorted(self.image_features)
        rng.shuffle(candidates)
        kept = set(candidates[:keep_count])
        images = {e: feat.copy() for e, feat in self.image_features.items() if e in kept}
        return MultiModalKG(
            entity_names=list(self.entity_names),
            num_relations=self.num_relations,
            num_attributes=self.num_attributes,
            relation_triples=list(self.relation_triples),
            attribute_triples=list(self.attribute_triples),
            image_features=images,
            name=self.name,
        )

    def with_attribute_ratio(self, ratio: float, rng: np.random.Generator) -> "MultiModalKG":
        """Return a copy keeping text attributes for only a ``ratio`` fraction of entities.

        Mirrors the ``R_tex`` splits of Table II: entities outside the kept
        subset lose *all* their attribute triples (missing modality), which
        also induces attribute-count disparities for aligned pairs.
        """
        if not 0.0 <= ratio <= 1.0:
            raise ValueError("ratio must lie in [0, 1]")
        with_attrs = sorted(self.entities_with_attributes())
        keep_count = int(round(ratio * self.num_entities))
        rng.shuffle(with_attrs)
        kept = set(with_attrs[:keep_count])
        attributes = [t for t in self.attribute_triples if t.entity in kept]
        return MultiModalKG(
            entity_names=list(self.entity_names),
            num_relations=self.num_relations,
            num_attributes=self.num_attributes,
            relation_triples=list(self.relation_triples),
            attribute_triples=attributes,
            image_features={e: feat.copy() for e, feat in self.image_features.items()},
            name=self.name,
        )

    def modality_mask(self) -> dict[str, np.ndarray]:
        """Boolean presence mask per non-structural modality.

        ``mask[m][i]`` is True when entity ``i`` has native features for
        modality ``m``; the structural modality is always present.
        """
        has_attribute = np.zeros(self.num_entities, dtype=bool)
        for triple in self.attribute_triples:
            has_attribute[triple.entity] = True
        has_relation = np.zeros(self.num_entities, dtype=bool)
        for triple in self.relation_triples:
            has_relation[triple.head] = True
            has_relation[triple.tail] = True
        has_image = np.zeros(self.num_entities, dtype=bool)
        for entity in self.image_features:
            has_image[entity] = True
        return {
            "graph": np.ones(self.num_entities, dtype=bool),
            "relation": has_relation,
            "attribute": has_attribute,
            "vision": has_image,
        }

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def from_triples(num_entities: int,
                     relation_triples: Iterable[tuple[int, int, int]],
                     attribute_triples: Iterable[tuple[int, int, str]] = (),
                     image_features: Mapping[int, Sequence[float]] | None = None,
                     num_relations: int | None = None,
                     num_attributes: int | None = None,
                     name: str = "MMKG") -> "MultiModalKG":
        """Build a graph from raw tuples, inferring vocabulary sizes when omitted."""
        relation_triples = [RelationTriple(*t) for t in relation_triples]
        attribute_triples = [AttributeTriple(*t) for t in attribute_triples]
        if num_relations is None:
            num_relations = 1 + max((t.relation for t in relation_triples), default=-1)
        if num_attributes is None:
            num_attributes = 1 + max((t.attribute for t in attribute_triples), default=-1)
        images = {int(k): np.asarray(v, dtype=np.float64)
                  for k, v in (image_features or {}).items()}
        return MultiModalKG(
            entity_names=[f"{name}/e{i}" for i in range(num_entities)],
            num_relations=num_relations,
            num_attributes=num_attributes,
            relation_triples=relation_triples,
            attribute_triples=attribute_triples,
            image_features=images,
            name=name,
        )
