"""DESAlign core: configuration, encoder, losses, propagation, model and trainer."""

from . import rules
from .registries import (
    CANDIDATE_REGISTRY,
    MODEL_REGISTRY,
    TRAINING_LOOP_REGISTRY,
    build_model,
    build_model_from_spec,
    candidate_methods,
    model_names,
    model_supports_sampling,
    register_candidate_generator,
    register_model,
    register_training_loop,
    training_loop_names,
)
from .config import DESAlignConfig, TrainingConfig
from .task import PreparedSide, PreparedTask, prepare_task
from .encoder import EncoderOutput, MultiModalEncoder
from .losses import (
    bidirectional_contrastive_loss,
    dirichlet_energy_tensor,
    energy_bound_penalty,
    LossBreakdown,
    MultiModalSemanticLoss,
)
from .propagation import SemanticPropagation, PropagationResult, closed_form_interpolation
from .ann import (
    AnnConfig,
    IVFIndex,
    RowCandidates,
    flops_counter,
    generate_candidates,
    recall_at_k,
    resolve_ann,
)
from .store import EmbeddingStore, MissingStoreError, StoreError
from .sharded import shard_boundaries
from .similarity import TopKSimilarity, blockwise_topk
from .alignment import cosine_similarity, csls_similarity, mutual_nearest_pairs, greedy_one_to_one
from .energy import EnergyMonitor, EnergySnapshot, verify_layer_bounds
from .model import DESAlign
from .trainer import (
    Trainer,
    TrainingResult,
    TrainingHistory,
    TrainingLoop,
    FullGraphLoop,
    NeighbourSampledLoop,
    build_training_loop,
)

__all__ = [
    "rules",
    "CANDIDATE_REGISTRY",
    "MODEL_REGISTRY",
    "TRAINING_LOOP_REGISTRY",
    "build_model",
    "build_model_from_spec",
    "candidate_methods",
    "model_names",
    "model_supports_sampling",
    "register_candidate_generator",
    "register_model",
    "register_training_loop",
    "training_loop_names",
    "DESAlignConfig",
    "TrainingConfig",
    "PreparedSide",
    "PreparedTask",
    "prepare_task",
    "EncoderOutput",
    "MultiModalEncoder",
    "bidirectional_contrastive_loss",
    "dirichlet_energy_tensor",
    "energy_bound_penalty",
    "LossBreakdown",
    "MultiModalSemanticLoss",
    "SemanticPropagation",
    "PropagationResult",
    "closed_form_interpolation",
    "AnnConfig",
    "IVFIndex",
    "RowCandidates",
    "flops_counter",
    "generate_candidates",
    "recall_at_k",
    "resolve_ann",
    "EmbeddingStore",
    "MissingStoreError",
    "StoreError",
    "shard_boundaries",
    "TopKSimilarity",
    "blockwise_topk",
    "cosine_similarity",
    "csls_similarity",
    "mutual_nearest_pairs",
    "greedy_one_to_one",
    "EnergyMonitor",
    "EnergySnapshot",
    "verify_layer_bounds",
    "DESAlign",
    "Trainer",
    "TrainingResult",
    "TrainingHistory",
    "TrainingLoop",
    "FullGraphLoop",
    "NeighbourSampledLoop",
    "build_training_loop",
]
