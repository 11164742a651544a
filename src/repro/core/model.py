"""The DESAlign model: encoder + MMSL objective + Semantic Propagation decoder.

This is the public entry point of the core library.  A :class:`DESAlign`
instance owns the shared multi-modal encoder, computes the training loss on
seed alignments and decodes test-time similarities with Semantic
Propagation, as laid out in Algorithm 1 of the paper.
"""

from __future__ import annotations

import numpy as np

from ..autograd import no_grad
from ..kg.sampling import NeighbourSampler, SubgraphView, attention_pattern
from ..nn import Module
from . import rules
from .config import DEFAULT_ENCODE_BATCH, DESAlignConfig
from .encoder import EncoderOutput, MultiModalEncoder
from .losses import LossBreakdown, MultiModalSemanticLoss
from .propagation import SemanticPropagation
from .task import PreparedTask

__all__ = ["DESAlign", "encode_sampled"]


def encode_sampled(model, side: str, sampler: NeighbourSampler,
                   rows: np.ndarray, batch_size: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Evaluation embeddings of ``rows`` via batched subgraph forwards.

    Each seed batch's view is embedded by ``model.embed_subgraph`` and
    scattered into ``out`` (a fresh ``(sampler.num_nodes, d)`` array when
    ``None``); no single forward touches the whole graph.
    """
    with no_grad():
        for start in range(0, len(rows), batch_size):
            view = sampler.sample(rows[start:start + batch_size])
            values = model.embed_subgraph(side, view)
            if out is None:
                out = np.empty((sampler.num_nodes, values.shape[1]))
            view.scatter_rows(values, out)
    return out


class DESAlign(Module):
    """Dirichlet Energy driven Semantic-consistent multi-modal entity Alignment.

    Parameters
    ----------
    task:
        The prepared alignment task (feature matrices, adjacencies, splits).
    config:
        Model hyper-parameters; defaults follow the paper with reduced
        dimensionality for CPU execution.
    """

    def __init__(self, task: PreparedTask, config: DESAlignConfig | None = None):
        super().__init__()
        self.config = config or DESAlignConfig()
        self.task = task
        rng = np.random.default_rng(self.config.seed)
        self.encoder = MultiModalEncoder(
            config=self.config,
            feature_dims=task.feature_dims,
            num_entities={
                "source": task.source.num_entities,
                "target": task.target.num_entities,
            },
            rng=rng,
        )
        self.objective = MultiModalSemanticLoss(self.config)
        # Full-neighbourhood samplers for batched inference, built lazily
        # once per side: the graph is immutable, so the O(|E|) pattern
        # construction must not repeat on every evaluation.
        self._eval_samplers: dict[str, NeighbourSampler] = {}
        self.propagation = SemanticPropagation(
            iterations=self.config.propagation_iters,
            reset_known=self.config.propagation_reset_known,
            average_similarities=self.config.propagation_average,
        )

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode(self, side: str) -> EncoderOutput:
        """Encode one side (``"source"`` or ``"target"``) of the task."""
        prepared = self.task.source if side == "source" else self.task.target
        return self.encoder(side, prepared.features.features, prepared.adjacency)

    def encode_both(self) -> tuple[EncoderOutput, EncoderOutput]:
        """Encode the source and the target graphs with the shared encoder."""
        return self.encode("source"), self.encode("target")

    # ------------------------------------------------------------------
    # Neighbour-sampled encoding
    # ------------------------------------------------------------------
    def neighbour_sampler(self, side: str, fanouts=None, seed: int = 0) -> NeighbourSampler:
        """Layer-wise neighbour sampler over one side's attention pattern.

        The pattern (self-looped binary adjacency) matches the edge set the
        structural GAT attends over, so a full-neighbourhood sample
        (``fanouts=None`` or all-``None`` entries) reproduces the full-graph
        forward exactly on the sampled seed rows.
        """
        prepared = self.task.source if side == "source" else self.task.target
        if fanouts is None:
            fanouts = (None,) * self.config.gat_layers
        if len(fanouts) != self.config.gat_layers:
            raise ValueError(f"need one fanout per GAT layer "
                             f"({self.config.gat_layers}), got {len(fanouts)}")
        # GAT attention ignores edge weights, so estimator rescaling is moot.
        return NeighbourSampler(attention_pattern(prepared.adjacency), fanouts,
                                seed=seed, rescale=False)

    def encode_subgraph(self, side: str, view: SubgraphView) -> EncoderOutput:
        """Encode only the sampled subgraph of one side (seed rows out)."""
        prepared = self.task.source if side == "source" else self.task.target
        return self.encoder(side, prepared.features.features, prepared.adjacency,
                            subgraph=view)

    def embed_subgraph(self, side: str, view: SubgraphView) -> np.ndarray:
        """Evaluation joint embeddings of the view's seed rows."""
        output = self.encode_subgraph(side, view)
        return output.joint(self.config.evaluation_embedding).numpy()

    def encode_entities_sampled(self, side: str,
                                batch_size: int = DEFAULT_ENCODE_BATCH) -> np.ndarray:
        """Joint embeddings of *all* entities via batched subgraph forwards,
        so inference runs in the memory envelope of sampled training."""
        if side not in self._eval_samplers:
            self._eval_samplers[side] = self.neighbour_sampler(side)
        sampler = self._eval_samplers[side]
        return encode_sampled(self, side, sampler,
                              np.arange(sampler.num_nodes), batch_size)

    # ------------------------------------------------------------------
    # Training loss
    # ------------------------------------------------------------------
    def loss(self, source_index: np.ndarray | None = None,
             target_index: np.ndarray | None = None) -> LossBreakdown:
        """MMSL loss over the given seed pairs (all seeds by default)."""
        if source_index is None or target_index is None:
            source_index, target_index = self.task.seed_arrays()
        source_output, target_output = self.encode_both()
        return self.objective(
            source_output, target_output, source_index, target_index,
            source_laplacian=self.task.source.laplacian,
        )

    def subgraph_loss(self, source_view: SubgraphView, target_view: SubgraphView,
                      source_index: np.ndarray, target_index: np.ndarray,
                      source_local: np.ndarray | None = None,
                      target_local: np.ndarray | None = None) -> LossBreakdown:
        """MMSL loss over seed pairs, encoded through sampled subgraphs.

        ``source_index`` / ``target_index`` are *global* entity ids; they
        must be part of the views' seed sets.  Callers that already hold
        the local positions (e.g. a :class:`~repro.data.loader.SeedPairBatch`)
        can pass them via ``source_local`` / ``target_local`` to skip the
        lookup.  The Dirichlet-energy penalty needs the full Laplacian, so
        it cannot be computed on a subgraph — configs with
        ``energy_weight > 0`` are rejected rather than silently training a
        different objective; with the default ``energy_weight=0`` this is
        numerically identical to :meth:`loss` on full-neighbourhood views.
        """
        if self.config.energy_weight > 0:
            raise ValueError(
                "the Dirichlet-energy penalty (energy_weight > 0) requires "
                "full-graph training; use sampling='full' or set energy_weight=0")
        source_output = self.encode_subgraph("source", source_view)
        target_output = self.encode_subgraph("target", target_view)
        if source_local is None:
            source_local = source_view.global_to_local(source_index)
        if target_local is None:
            target_local = target_view.global_to_local(target_index)
        return self.objective(source_output, target_output,
                              source_local, target_local, source_laplacian=None)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _evaluation_embeddings(self, encode: str = "full",
                               encode_batch_size: int | None = None
                               ) -> tuple[np.ndarray, np.ndarray]:
        rules.check_encode_method(encode)
        if encode == "sampled":
            batch = encode_batch_size or DEFAULT_ENCODE_BATCH
            return (self.encode_entities_sampled("source", batch_size=batch),
                    self.encode_entities_sampled("target", batch_size=batch))
        kind = self.config.evaluation_embedding
        with no_grad():
            source_output, target_output = self.encode_both()
        return source_output.joint(kind).numpy(), target_output.joint(kind).numpy()

    def propagation_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Semantically consistent entities (``E_c``) of each graph.

        They act as the boundary condition of the propagation: their
        features are reset to the encoder output after every Euler step.
        """
        consistent_source, _, _ = self.task.source.features.consistency_partition()
        consistent_target, _, _ = self.task.target.features.consistency_partition()
        source_mask = np.zeros(self.task.source.num_entities, dtype=bool)
        target_mask = np.zeros(self.task.target.num_entities, dtype=bool)
        source_mask[consistent_source] = True
        target_mask[consistent_target] = True
        return source_mask, target_mask

    def decode_states(self, use_propagation: bool = True, encode: str = "full",
                      encode_batch_size: int | None = None
                      ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-round evaluation states: the decode input (Algorithm 1, line 15).

        One entry per Semantic Propagation round (a single entry without
        propagation, or when the config decodes from the last round only);
        the cosine similarities of the per-round states, averaged, are the
        decoding similarity ``Ω``, which
        :func:`~repro.core.similarity.blockwise_topk` streams.  This is the
        cacheable artefact the :class:`~repro.pipeline.Aligner` persists —
        decoding any ``k`` from the same states is bit-reproducible.
        ``encode="sampled"`` computes the evaluation embeddings through
        batched subgraph forwards, so no stage touches the full graph at
        once.
        """
        return self.states_from_embeddings(
            *self._evaluation_embeddings(encode, encode_batch_size),
            use_propagation=use_propagation)

    def states_from_embeddings(self, source: np.ndarray, target: np.ndarray,
                               use_propagation: bool = True
                               ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-round decode states of evaluation embeddings: Semantic
        Propagation over each side's graph (Algorithm 1, lines 11–14)."""
        if not (use_propagation and self.config.propagation_iters > 0):
            return [source], [target]
        source_known, target_known = self.propagation_masks()
        source_states = self.propagation.propagate_features(
            source, self.task.source.adjacency, source_known)
        target_states = self.propagation.propagate_features(
            target, self.task.target.adjacency, target_known)
        if not self.config.propagation_average:
            return [source_states[-1]], [target_states[-1]]
        return source_states, target_states
