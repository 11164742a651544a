"""Delta ingestion: place-preserving extension of a prepared alignment task.

A :class:`DeltaBatch` describes a batch of *arriving* data — new entities,
new relation / attribute triples, new image features and newly revealed
seed pairs, per side.  :func:`apply_delta` folds one batch into an existing
:class:`~repro.core.task.PreparedTask` **place-preservingly**:

* every existing entity keeps its id, every CSR keeps its row order, and
  new entities are appended at the end of the id range;
* modal features are extended in place semantics: Bag-of-Words rows are
  recounted only where new triples touch them (counts are additive and
  deterministic, so untouched native rows stay bit-for-bit identical),
  rows that stay imputed keep their imputed values bit-for-bit, and new
  rows are built natively or imputed from the extended native
  distribution under the delta's own seeded generator;
* the train/test split is stable: the old split is carried over verbatim
  (new seed pairs extend the train side only — test pairs are never
  touched by ingestion).

The returned :class:`DeltaApplication` also reports the *directly touched*
existing rows per side — rows whose adjacency, features or modality masks
changed — which is the seed set the incremental aligner expands into the
warm-encode receptive field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.task import PreparedTask, prepare_side
from ..data.features import (ModalFeatureSet, bag_of_attributes,
                             bag_of_relations, random_from_distribution,
                             visual_feature_matrix)
from ..kg.graph import AttributeTriple, MultiModalKG, RelationTriple
from ..kg.pair import AlignmentPair, KGPair

__all__ = ["SideDelta", "DeltaBatch", "DeltaApplication", "apply_delta"]


@dataclass
class SideDelta:
    """Arriving data for one side of the alignment task.

    ``entity_names`` are appended to the graph (ids continue the existing
    range); triples may reference both old and new entities.  Relation /
    attribute ids beyond the current vocabulary grow it.  ``image_features``
    maps entity ids (old entities gaining a visual modality, or new ones)
    to their feature vectors.
    """

    entity_names: tuple = ()
    relation_triples: tuple = ()     # (head, relation, tail)
    attribute_triples: tuple = ()    # (entity, attribute, value)
    image_features: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.entity_names = tuple(str(name) for name in self.entity_names)
        self.relation_triples = tuple(
            (int(h), int(r), int(t)) for h, r, t in self.relation_triples)
        self.attribute_triples = tuple(
            (int(e), int(a), str(v)) for e, a, v in self.attribute_triples)
        self.image_features = {
            int(entity): np.asarray(vector, dtype=np.float64)
            for entity, vector in dict(self.image_features).items()}

    def is_empty(self) -> bool:
        return not (self.entity_names or self.relation_triples
                    or self.attribute_triples or self.image_features)

    def to_dict(self) -> dict:
        return {
            "entity_names": list(self.entity_names),
            "relation_triples": [list(t) for t in self.relation_triples],
            "attribute_triples": [list(t) for t in self.attribute_triples],
            "image_features": {str(entity): np.asarray(vector).tolist()
                               for entity, vector in self.image_features.items()},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SideDelta":
        known = {"entity_names", "relation_triples", "attribute_triples",
                 "image_features"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown key(s) {unknown} in a side delta; "
                             f"valid keys: {sorted(known)}")
        return cls(
            entity_names=payload.get("entity_names", ()),
            relation_triples=payload.get("relation_triples", ()),
            attribute_triples=payload.get("attribute_triples", ()),
            image_features={int(k): v for k, v in
                            payload.get("image_features", {}).items()},
        )


@dataclass
class DeltaBatch:
    """One batch of arriving entities/triples/features/seed pairs.

    ``seed_pairs`` are newly revealed gold correspondences (source id,
    target id); they extend the *train* split only.
    """

    source: SideDelta = field(default_factory=SideDelta)
    target: SideDelta = field(default_factory=SideDelta)
    seed_pairs: tuple = ()

    def __post_init__(self) -> None:
        if not isinstance(self.source, SideDelta):
            self.source = SideDelta.from_dict(dict(self.source))
        if not isinstance(self.target, SideDelta):
            self.target = SideDelta.from_dict(dict(self.target))
        self.seed_pairs = tuple((int(s), int(t)) for s, t in self.seed_pairs)

    def is_empty(self) -> bool:
        return (self.source.is_empty() and self.target.is_empty()
                and not self.seed_pairs)

    def to_dict(self) -> dict:
        return {
            "source": self.source.to_dict(),
            "target": self.target.to_dict(),
            "seed_pairs": [list(p) for p in self.seed_pairs],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DeltaBatch":
        known = {"source", "target", "seed_pairs"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown key(s) {unknown} in a delta batch; "
                             f"valid keys: {sorted(known)}")
        return cls(
            source=SideDelta.from_dict(payload.get("source", {})),
            target=SideDelta.from_dict(payload.get("target", {})),
            seed_pairs=payload.get("seed_pairs", ()),
        )

    def save(self, path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n")
        return path

    @classmethod
    def load(cls, path) -> "DeltaBatch":
        path = Path(path)
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ValueError(f"delta file {path} is not valid JSON: "
                             f"{error}") from error
        return cls.from_dict(payload)


@dataclass
class DeltaApplication:
    """The extended task plus the bookkeeping incremental encoding needs."""

    task: PreparedTask
    num_source_before: int
    num_target_before: int
    new_source_ids: np.ndarray
    new_target_ids: np.ndarray
    #: Existing rows whose adjacency, features or masks changed directly.
    touched_source: np.ndarray
    touched_target: np.ndarray

    def seed_rows(self, side: str) -> np.ndarray:
        """New rows plus directly-touched existing rows of one side."""
        if side == "source":
            return np.union1d(self.new_source_ids, self.touched_source)
        return np.union1d(self.new_target_ids, self.touched_target)


# ---------------------------------------------------------------------------
# Graph / feature extension
# ---------------------------------------------------------------------------
def _extend_graph(graph: MultiModalKG, delta: SideDelta) -> MultiModalKG:
    """Append the delta to one graph; existing ids are untouched."""
    num_new = graph.num_entities + len(delta.entity_names)
    for head, _, tail in delta.relation_triples:
        if not (0 <= head < num_new and 0 <= tail < num_new):
            raise ValueError(
                f"delta relation triple ({head}, _, {tail}) references an "
                f"entity outside the extended range [0, {num_new})")
    for entity, _, _ in delta.attribute_triples:
        if not 0 <= entity < num_new:
            raise ValueError(
                f"delta attribute triple references entity {entity} outside "
                f"the extended range [0, {num_new})")
    for entity in delta.image_features:
        if not 0 <= entity < num_new:
            raise ValueError(
                f"delta image feature references entity {entity} outside "
                f"the extended range [0, {num_new})")
    num_relations = max([graph.num_relations]
                        + [r + 1 for _, r, _ in delta.relation_triples])
    num_attributes = max([graph.num_attributes]
                         + [a + 1 for _, a, _ in delta.attribute_triples])
    images = dict(graph.image_features)
    images.update(delta.image_features)
    return MultiModalKG(
        entity_names=list(graph.entity_names) + list(delta.entity_names),
        num_relations=num_relations,
        num_attributes=num_attributes,
        relation_triples=(list(graph.relation_triples)
                          + [RelationTriple(h, r, t)
                             for h, r, t in delta.relation_triples]),
        attribute_triples=(list(graph.attribute_triples)
                           + [AttributeTriple(e, a, v)
                              for e, a, v in delta.attribute_triples]),
        image_features=images,
        name=graph.name,
    )


def _extend_features(old: ModalFeatureSet, new_graph: MultiModalKG,
                     dims: dict, rng: np.random.Generator
                     ) -> tuple[ModalFeatureSet, np.ndarray]:
    """Extend one side's modal features place-preservingly.

    Returns the extended feature set and a boolean mask over the *old*
    rows marking those whose features or masks changed.  Bag-of-Words
    counts are deterministic and additive, so recounting over the extended
    graph reproduces untouched native rows bit-for-bit; rows that stay
    imputed keep their stored imputed values bit-for-bit (re-imputing them
    would re-draw the random fill and invalidate the whole side).
    """
    num_old = old.num_entities
    num_new = new_graph.num_entities
    masks_new = new_graph.modality_mask()
    vision_raw, vision_mask = visual_feature_matrix(new_graph, dims["vision"])
    fresh = {
        "relation": (bag_of_relations(new_graph, dims["relation"]),
                     masks_new["relation"]),
        "attribute": (bag_of_attributes(new_graph, dims["attribute"]),
                      masks_new["attribute"]),
        "vision": (vision_raw, vision_mask),
    }

    changed = np.zeros(num_old, dtype=bool)
    features: dict[str, np.ndarray] = {}
    masks: dict[str, np.ndarray] = {}

    # Structural features: existing rows carry over verbatim, new rows get
    # the same N(0, 0.3) initialisation build_feature_set uses — drawn from
    # the delta's own generator so the old rows' stream is never replayed.
    structure = np.empty((num_new, dims["graph"]))
    structure[:num_old] = old.features["graph"]
    structure[num_old:] = rng.normal(0.0, 0.3,
                                     size=(num_new - num_old, dims["graph"]))
    features["graph"] = structure
    masks["graph"] = masks_new["graph"]

    for modality, (raw, mask) in fresh.items():
        old_mask = old.masks[modality]
        filled = np.asarray(raw, dtype=np.float64).copy()
        still_imputed = ~old_mask & ~mask[:num_old]
        filled[:num_old][still_imputed] = old.features[modality][still_imputed]
        to_impute = ~mask
        to_impute[:num_old] &= ~still_imputed
        if to_impute.any():
            # build_feature_set's draw, against the extended native rows.
            filled[to_impute] = random_from_distribution(
                filled[mask], int(to_impute.sum()), rng)
        features[modality] = filled
        masks[modality] = mask
        changed |= np.any(filled[:num_old] != old.features[modality], axis=1)
        changed |= mask[:num_old] != old_mask

    return (ModalFeatureSet(features=features, masks=masks, graph=new_graph),
            changed)


def apply_delta(task: PreparedTask, delta: DeltaBatch,
                seed: int = 0) -> DeltaApplication:
    """Fold one delta batch into a prepared task, place-preservingly.

    The input task is never mutated; the returned application holds a new
    :class:`~repro.core.task.PreparedTask` over extended copies of both
    graphs.  ``seed`` drives the delta's own feature generator (new-row
    structure init and imputation draws) — existing rows never consume
    from it, so an empty delta reproduces the input bit-for-bit.
    """
    pair = task.pair
    rng = np.random.default_rng(seed)
    num_source_before = pair.source.num_entities
    num_target_before = pair.target.num_entities

    source_graph = _extend_graph(pair.source, delta.source)
    target_graph = _extend_graph(pair.target, delta.target)

    source_features, source_feature_changed = _extend_features(
        task.source.features, source_graph, task.feature_dims, rng)
    target_features, target_feature_changed = _extend_features(
        task.target.features, target_graph, task.feature_dims, rng)

    # Existing rows whose adjacency changed: endpoints of new relation
    # triples (the adjacency is symmetric, so both ends gain a column).
    def _adjacency_touched(side_delta: SideDelta, num_before: int) -> np.ndarray:
        endpoints = [e for h, _, t in side_delta.relation_triples
                     for e in (h, t) if e < num_before]
        return np.unique(np.asarray(endpoints, dtype=np.int64))

    touched_source = np.union1d(
        _adjacency_touched(delta.source, num_source_before),
        np.flatnonzero(source_feature_changed))
    touched_target = np.union1d(
        _adjacency_touched(delta.target, num_target_before),
        np.flatnonzero(target_feature_changed))

    # Split stability: carry the old split over verbatim; new seed pairs
    # extend the train side only.  KGPair.split() returns the cached lists
    # whenever they are non-empty, so the extended pair never re-shuffles.
    train, test = pair.split()
    new_seed_pairs = [AlignmentPair(s, t) for s, t in delta.seed_pairs]
    new_pair = KGPair(
        source=source_graph,
        target=target_graph,
        alignments=list(pair.alignments) + new_seed_pairs,
        seed_ratio=pair.seed_ratio,
        name=pair.name,
        _train=list(train) + new_seed_pairs,
        _test=list(test),
    )

    train_pairs = (np.concatenate([
        task.train_pairs.reshape(-1, 2),
        np.asarray([[p.source, p.target] for p in new_seed_pairs],
                   dtype=np.int64).reshape(-1, 2)])
        if new_seed_pairs else task.train_pairs)

    new_task = PreparedTask(
        pair=new_pair,
        source=prepare_side(source_graph, source_features),
        target=prepare_side(target_graph, target_features),
        train_pairs=np.asarray(train_pairs, dtype=np.int64),
        test_pairs=task.test_pairs,
        feature_dims=dict(task.feature_dims),
    )
    return DeltaApplication(
        task=new_task,
        num_source_before=num_source_before,
        num_target_before=num_target_before,
        new_source_ids=np.arange(num_source_before,
                                 source_graph.num_entities, dtype=np.int64),
        new_target_ids=np.arange(num_target_before,
                                 target_graph.num_entities, dtype=np.int64),
        touched_source=touched_source.astype(np.int64),
        touched_target=touched_target.astype(np.int64),
    )
