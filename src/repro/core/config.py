"""Configuration objects for DESAlign and its training loop."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import rules
from .ann import AnnConfig

__all__ = ["DESAlignConfig", "TrainingConfig", "DEFAULT_ENCODE_BATCH"]

#: Order in which modalities are stacked inside the cross-modal attention.
MODALITY_ORDER = ("graph", "relation", "attribute", "vision")

#: Default seed-batch size of the sampled (batched) inference path, shared
#: by ``DESAlign.encode_entities_sampled`` and ``TrainingConfig``.
DEFAULT_ENCODE_BATCH = 2048


@dataclass(frozen=True)
class DESAlignConfig:
    """Hyper-parameters of the DESAlign model (Sec. IV / Sec. V-A(4)).

    Attributes
    ----------
    hidden_dim:
        Unified hidden dimensionality ``d`` of every modality embedding
        (300 in the paper; scaled down by default for CPU runs).
    gat_layers, gat_heads:
        Depth and head count of the structural GAT encoder.
    attention_heads:
        Heads ``N_h`` of the cross-modal attention block (1 in the paper).
    feed_forward_dim:
        Inner dimensionality of the CAW feed-forward network.
    temperature:
        Contrastive temperature ``τ`` (0.1 in the paper).
    modalities:
        Which modalities participate; dropping entries implements the
        modality ablations of Fig. 3 (left).
    use_min_confidence:
        Whether intra-modal losses are weighted by the minimum modality
        confidence ``φ_m = min(w_m_i, w_m_j)`` (Sec. IV-B).
    energy_floor (c_min), energy_ceiling (c_max):
        Hyper-parameters of the Dirichlet-energy constraint of Prop. 3;
        used by the energy regulariser and the training monitor.
    use_initial_task_loss, use_previous_modal_loss:
        Toggles for the ``L_task(0)`` and ``L_m(k-1)`` objective terms of
        Eq. 15 (ablation knobs).
    propagation_iters:
        Number of Semantic Propagation rounds ``n_p`` (Fig. 4).
    propagation_average:
        Average pairwise similarities over all propagation rounds (the
        paper's final decoding rule) instead of using the last round only.
    evaluation_embedding:
        ``"original"`` uses the early-fusion embedding ``h_Ori`` (the
        paper's choice); ``"fused"`` uses the late-fusion ``h_Fus``.
    """

    hidden_dim: int = 32
    gat_layers: int = 2
    gat_heads: int = 2
    attention_heads: int = 1
    feed_forward_dim: int = 64
    dropout: float = 0.0
    temperature: float = 0.1
    modalities: tuple[str, ...] = MODALITY_ORDER
    use_min_confidence: bool = True
    energy_floor: float = 0.1
    energy_ceiling: float = 2.0
    energy_weight: float = 0.0
    use_initial_task_loss: bool = True
    use_final_task_loss: bool = True
    use_previous_modal_loss: bool = True
    use_final_modal_loss: bool = True
    propagation_iters: int = 2
    propagation_average: bool = True
    propagation_reset_known: bool = True
    evaluation_embedding: str = "original"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.hidden_dim <= 0:
            raise ValueError("hidden_dim must be positive")
        if self.hidden_dim % max(1, self.gat_heads) != 0:
            raise ValueError("hidden_dim must be divisible by gat_heads")
        if self.hidden_dim % max(1, self.attention_heads) != 0:
            raise ValueError("hidden_dim must be divisible by attention_heads")
        unknown = set(self.modalities) - set(MODALITY_ORDER)
        if unknown:
            raise ValueError(f"unknown modalities: {sorted(unknown)}")
        if not self.modalities:
            raise ValueError("at least one modality is required")
        if self.evaluation_embedding not in {"original", "fused"}:
            raise ValueError("evaluation_embedding must be 'original' or 'fused'")
        if not 0.0 < self.temperature:
            raise ValueError("temperature must be positive")
        if self.propagation_iters < 0:
            raise ValueError("propagation_iters must be non-negative")

    def with_overrides(self, **kwargs) -> "DESAlignConfig":
        """Return a copy with selected hyper-parameters replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class TrainingConfig:
    """Optimisation hyper-parameters shared by DESAlign and the baselines.

    Attributes
    ----------
    sampling:
        Training strategy: ``"full"`` encodes both whole graphs on every
        optimiser step (the original formulation); ``"neighbour"`` runs
        GraphSAGE-style layer-wise neighbour-sampled mini-batches through
        the subgraph-aware encoder path, so a step's cost scales with the
        batch's receptive field instead of the graph size.  The model must
        expose ``subgraph_loss`` / ``neighbour_sampler`` (DESAlign does).
    fanouts:
        Per-encoder-layer neighbour fanouts for ``sampling="neighbour"``;
        ``None`` (or any ``None`` / ``-1`` entry) keeps the full
        neighbourhood of that layer, which reproduces full-graph training
        numerically.
    eval_batch_size:
        Seed-batch size of the sampled inference path used by the
        neighbour strategy's evaluations.
    early_stopping_patience / eval_every:
        Early stopping consumes the periodic evaluations, so enabling it
        requires an evaluation cadence (``eval_every > 0``).
    candidates / ann:
        Candidate generation of the decode stack (``"exhaustive"`` — every
        cell, the default — ``"ivf"`` or a registered plug-in generator,
        see :mod:`repro.core.ann`).  Periodic evaluations use the setting
        as-is; the iterative strategy's mutual-NN pseudo-seed decode
        escalates IVF probing until its top-1 is provably exact, and
        ``iterative=True`` with any other generator is rejected because it
        offers no such guarantee (pseudo-seeding would be silently lossy).
        The ``ann`` seed defaults to this config's ``seed``, so one seed
        drives the sampler, the loader and the quantiser alike.
    log_energy:
        Must stay ``False`` (saved specs write it); energy is logged by
        ``Trainer(..., energy_monitor=EnergyMonitor())``.
    """

    epochs: int = 120
    learning_rate: float = 5e-3
    weight_decay: float = 1e-2
    warmup_fraction: float = 0.15
    grad_clip: float = 5.0
    batch_size: int = 512
    early_stopping_patience: int = 0
    eval_every: int = 20
    iterative: bool = False
    iterative_rounds: int = 2
    iterative_epochs: int = 40
    iterative_threshold: float = 0.0
    sampling: str = "full"
    fanouts: tuple[int | None, ...] | None = None
    eval_batch_size: int = DEFAULT_ENCODE_BATCH
    candidates: str = "exhaustive"
    ann: AnnConfig | None = None
    log_energy: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        # Every rule delegates to repro.core.rules so this config, the
        # evaluator and PipelineSpec.validate() reject a combination with
        # one shared message.
        rules.check_sampling_method(self.sampling)
        rules.check_candidates_method(self.candidates)
        rules.check_iterative_candidates(self.iterative, self.candidates)
        rules.check_patience_cadence(self.early_stopping_patience, self.eval_every)
        rules.check_fanouts(self.fanouts)
        if self.eval_batch_size <= 0:
            raise ValueError("eval_batch_size must be positive")
        if self.log_energy:
            raise ValueError("log_energy=True is not supported; log the energy "
                             "with Trainer(..., energy_monitor=EnergyMonitor())")

    def with_overrides(self, **kwargs) -> "TrainingConfig":
        """Return a copy with selected fields replaced."""
        return replace(self, **kwargs)
