"""TransE baseline (Bordes et al., NeurIPS 2013) adapted to entity alignment.

Entities and relations of both graphs are embedded in a shared space with
the translation objective ``h + r ≈ t`` (margin ranking against corrupted
triples); seed alignments are additionally pulled together so that the two
graphs share the space, following the common TransE-for-EA recipe that the
paper uses as its weakest "basic model" row.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, no_grad
from ..core.task import PreparedTask
from ..nn import Module, Parameter, init

__all__ = ["TransE"]


class TransE(Module):
    """Translation-based embedding aligner over both graphs' relation triples."""

    name = "TransE"

    def __init__(self, task: PreparedTask, hidden_dim: int = 32, margin: float = 1.0,
                 num_negatives: int = 2, alignment_weight: float = 1.0, seed: int = 0):
        super().__init__()
        self.task = task
        self.margin = margin
        self.num_negatives = num_negatives
        self.alignment_weight = alignment_weight
        rng = np.random.default_rng(seed)
        self._rng = rng
        scale = 1.0 / np.sqrt(hidden_dim)
        self.source_entities = Parameter(
            rng.uniform(-scale, scale, size=(task.source.num_entities, hidden_dim)))
        self.target_entities = Parameter(
            rng.uniform(-scale, scale, size=(task.target.num_entities, hidden_dim)))
        self.source_relations = Parameter(
            rng.uniform(-scale, scale,
                        size=(max(1, task.pair.source.num_relations), hidden_dim)))
        self.target_relations = Parameter(
            rng.uniform(-scale, scale,
                        size=(max(1, task.pair.target.num_relations), hidden_dim)))
        self._source_triples = np.asarray(
            [[t.head, t.relation, t.tail] for t in task.pair.source.relation_triples]
            or np.empty((0, 3)), dtype=np.int64).reshape(-1, 3)
        self._target_triples = np.asarray(
            [[t.head, t.relation, t.tail] for t in task.pair.target.relation_triples]
            or np.empty((0, 3)), dtype=np.int64).reshape(-1, 3)

    # ------------------------------------------------------------------
    def _triple_loss(self, entities: Parameter, relations: Parameter,
                     triples: np.ndarray, max_triples: int = 256) -> Tensor:
        """Margin ranking loss on a sample of triples with corrupted tails."""
        if len(triples) == 0:
            return Tensor(0.0)
        if len(triples) > max_triples:
            sampled = triples[self._rng.choice(len(triples), size=max_triples, replace=False)]
        else:
            sampled = triples
        heads = entities.index_select(sampled[:, 0])
        rels = relations.index_select(sampled[:, 1])
        tails = entities.index_select(sampled[:, 2])
        corrupt_ids = self._rng.integers(0, entities.shape[0], size=len(sampled))
        corrupt = entities.index_select(corrupt_ids)
        positive = (heads + rels - tails).norm(axis=1)
        negative = (heads + rels - corrupt).norm(axis=1)
        return (positive - negative + self.margin).relu().mean()

    def loss(self, source_index: np.ndarray, target_index: np.ndarray) -> Tensor:
        structure = (self._triple_loss(self.source_entities, self.source_relations,
                                       self._source_triples)
                     + self._triple_loss(self.target_entities, self.target_relations,
                                         self._target_triples))
        aligned_source = self.source_entities.index_select(np.asarray(source_index))
        aligned_target = self.target_entities.index_select(np.asarray(target_index))
        alignment = (aligned_source - aligned_target).norm(axis=1).mean()
        return structure + alignment * self.alignment_weight

    def decode_states(self, use_propagation: bool = False, encode: str = "full",
                      encode_batch_size: int | None = None
                      ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Evaluation states feeding the decode (single round, entity tables).

        ``use_propagation`` is ignored (TransE has no propagation decoder).
        """
        del use_propagation
        if encode != "full":
            raise ValueError("TransE only supports encode='full'")
        with no_grad():
            return ([self.source_entities.numpy()], [self.target_entities.numpy()])
