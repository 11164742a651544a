"""Training objectives: contrastive alignment losses and the MMSL objective.

Implements Sec. IV-B of the paper:

* the bi-directional in-batch contrastive alignment probability (Eq. 16)
  and per-modality loss with minimum-confidence weighting (Eq. 17);
* the Multi-Modal Semantic Learning objective of Proposition 3 / Eq. 15,
  which sums the task loss on the initial (``h_Ori``) and final (``h_Fus``)
  joint embeddings with the intra-modal losses at layers ``k-1`` (pre-CAW)
  and ``k`` (post-CAW);
* an optional differentiable Dirichlet-energy regulariser enforcing the
  ``c_min`` / ``c_max`` bounds explicitly (used by the energy-analysis
  experiment and the ablations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autograd import Tensor, l2_normalize, spmm
from .config import DESAlignConfig
from .encoder import EncoderOutput

__all__ = [
    "bidirectional_contrastive_loss",
    "dirichlet_energy_tensor",
    "energy_bound_penalty",
    "LossBreakdown",
    "MultiModalSemanticLoss",
]

_MIN_CONFIDENCE = 1e-4


def bidirectional_contrastive_loss(source_embeddings: Tensor,
                                   target_embeddings: Tensor,
                                   source_index: np.ndarray,
                                   target_index: np.ndarray,
                                   temperature: float,
                                   pair_weights: Tensor | np.ndarray | None = None) -> Tensor:
    """Bi-directional in-batch contrastive loss over seed pairs (Eq. 16-17).

    For every seed pair ``(e^1_i, e^2_i)`` the alignment probability uses all
    other in-batch entities of *both* graphs as negatives, in both alignment
    directions; the per-pair weight ``φ`` implements the minimum-confidence
    weighting (or 1 for the joint task loss).
    """
    source_index = np.asarray(source_index, dtype=np.int64)
    target_index = np.asarray(target_index, dtype=np.int64)
    if len(source_index) != len(target_index):
        raise ValueError("source and target index arrays must have equal length")
    batch = len(source_index)
    if batch == 0:
        raise ValueError("contrastive loss requires at least one pair")

    anchors_1 = l2_normalize(source_embeddings.index_select(source_index))
    anchors_2 = l2_normalize(target_embeddings.index_select(target_index))
    scale = 1.0 / temperature
    cross = (anchors_1 @ anchors_2.T) * scale          # s(e^1_i, e^2_j)
    within_1 = (anchors_1 @ anchors_1.T) * scale       # s(e^1_i, e^1_j)
    within_2 = (anchors_2 @ anchors_2.T) * scale       # s(e^2_i, e^2_j)

    off_diagonal = Tensor(1.0 - np.eye(batch))
    exp_cross = cross.exp()
    exp_within_1 = within_1.exp() * off_diagonal
    exp_within_2 = within_2.exp() * off_diagonal

    diag_index = (np.arange(batch), np.arange(batch))
    positives = exp_cross[diag_index]
    denominator_12 = exp_cross.sum(axis=1) + exp_within_1.sum(axis=1)
    denominator_21 = exp_cross.sum(axis=0) + exp_within_2.sum(axis=1)
    p_12 = positives / denominator_12
    p_21 = positives / denominator_21

    if pair_weights is None:
        weights = Tensor(np.ones(batch))
    else:
        weights = Tensor.ensure(pair_weights).clip(_MIN_CONFIDENCE, 1.0)
    per_pair = -((weights * (p_12 + p_21)).clip(1e-12, np.inf).log()) * 0.5
    return per_pair.mean()


def dirichlet_energy_tensor(embeddings: Tensor, laplacian) -> Tensor:
    """Differentiable Dirichlet energy ``tr(Xᵀ Δ X)`` of a batch of embeddings.

    Routed through the :func:`spmm` primitive over the CSR Laplacian, in
    ``O(|E| d)``.
    """
    return (embeddings * spmm(laplacian, embeddings)).sum()


def energy_bound_penalty(current: Tensor, previous: Tensor, initial: Tensor,
                         laplacian, floor: float, ceiling: float) -> Tensor:
    """Hinge penalty enforcing ``c_min E(X^{k-1}) <= E(X^k) <= c_max E(X^0)``.

    This is the explicit-regulariser form of the Prop. 3 constraint; the
    main training objective keeps energies in range implicitly, while this
    term is used for the energy ablation and analysis experiments.
    """
    energy_current = dirichlet_energy_tensor(current, laplacian)
    energy_previous = dirichlet_energy_tensor(previous, laplacian).detach()
    energy_initial = dirichlet_energy_tensor(initial, laplacian).detach()
    lower_violation = (energy_previous * floor - energy_current).relu()
    upper_violation = (energy_current - energy_initial * ceiling).relu()
    scale = 1.0 / max(energy_initial.item(), 1e-8)
    return (lower_violation + upper_violation) * scale


@dataclass
class LossBreakdown:
    """Individual terms of the MMSL objective (for logging and ablations)."""

    total: Tensor
    task_initial: float = 0.0
    task_final: float = 0.0
    modal_previous: dict[str, float] = field(default_factory=dict)
    modal_final: dict[str, float] = field(default_factory=dict)
    energy_penalty: float = 0.0

    def as_dict(self) -> dict[str, float]:
        summary = {
            "total": self.total.item(),
            "task_initial": self.task_initial,
            "task_final": self.task_final,
            "energy_penalty": self.energy_penalty,
        }
        for modality, value in self.modal_previous.items():
            summary[f"modal_prev/{modality}"] = value
        for modality, value in self.modal_final.items():
            summary[f"modal_final/{modality}"] = value
        return summary


class MultiModalSemanticLoss:
    """The full MMSL training objective of Eq. 15.

    ``loss = L_task(0) + L_task(k) + Σ_m (L_m(k-1) + L_m(k))`` with optional
    Dirichlet-energy bound penalty.  Individual terms can be switched off
    through the :class:`DESAlignConfig` flags to reproduce the ablation of
    Fig. 3 (left).
    """

    def __init__(self, config: DESAlignConfig):
        self.config = config

    def _pair_confidences(self, source_output: EncoderOutput, target_output: EncoderOutput,
                          modality: str, source_index: np.ndarray,
                          target_index: np.ndarray) -> Tensor | None:
        if not self.config.use_min_confidence:
            return None
        source_conf = source_output.confidence_for(modality).detach().numpy()[source_index]
        target_conf = target_output.confidence_for(modality).detach().numpy()[target_index]
        return Tensor(np.minimum(source_conf, target_conf))

    def __call__(self, source_output: EncoderOutput, target_output: EncoderOutput,
                 source_index: np.ndarray, target_index: np.ndarray,
                 source_laplacian=None) -> LossBreakdown:
        config = self.config
        temperature = config.temperature
        terms: list[Tensor] = []
        breakdown = LossBreakdown(total=Tensor(0.0))

        if config.use_initial_task_loss:
            task_initial = bidirectional_contrastive_loss(
                source_output.original, target_output.original,
                source_index, target_index, temperature)
            terms.append(task_initial)
            breakdown.task_initial = task_initial.item()
        if config.use_final_task_loss:
            task_final = bidirectional_contrastive_loss(
                source_output.fused, target_output.fused,
                source_index, target_index, temperature)
            terms.append(task_final)
            breakdown.task_final = task_final.item()

        for modality in source_output.modalities:
            weights = self._pair_confidences(source_output, target_output, modality,
                                             source_index, target_index)
            if config.use_previous_modal_loss:
                loss_previous = bidirectional_contrastive_loss(
                    source_output.modal[modality], target_output.modal[modality],
                    source_index, target_index, temperature, pair_weights=weights)
                terms.append(loss_previous)
                breakdown.modal_previous[modality] = loss_previous.item()
            if config.use_final_modal_loss:
                loss_final = bidirectional_contrastive_loss(
                    source_output.attended[modality], target_output.attended[modality],
                    source_index, target_index, temperature, pair_weights=weights)
                terms.append(loss_final)
                breakdown.modal_final[modality] = loss_final.item()

        if config.energy_weight > 0 and source_laplacian is not None:
            penalty = energy_bound_penalty(
                current=source_output.fused,
                previous=source_output.original,
                initial=source_output.original,
                laplacian=source_laplacian,
                floor=config.energy_floor,
                ceiling=config.energy_ceiling,
            ) * config.energy_weight
            terms.append(penalty)
            breakdown.energy_penalty = penalty.item()

        if not terms:
            raise ValueError("the MMSL objective has no active terms")
        total = terms[0]
        for term in terms[1:]:
            total = total + term
        breakdown.total = total
        return breakdown
