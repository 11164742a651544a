"""PoE baseline (Liu et al., ESWC 2019 "MMKG"): product-of-experts style fusion.

PoE represents each entity by concatenating the (projected) features of all
its modalities into a single vector — no graph neural network, no learned
modality weighting — and aligns with a seed-supervised contrastive loss.
This is the simplest multi-modal row of Table IV.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, l2_normalize
from ..core.task import PreparedTask
from .base import BaselineConfig, ModalBaselineModel

__all__ = ["PoE"]


class PoE(ModalBaselineModel):
    """Concatenation-of-modalities aligner without structural message passing."""

    name = "PoE"

    def __init__(self, task: PreparedTask, config: BaselineConfig | None = None):
        config = config or BaselineConfig(gnn="none")
        if config.gnn != "none":
            config = BaselineConfig(hidden_dim=config.hidden_dim,
                                    temperature=config.temperature, gnn="none",
                                    modalities=config.modalities, seed=config.seed)
        super().__init__(task, config)

    def joint_embedding(self, side: str) -> Tensor:
        modal = self.modal_embeddings(side)
        return Tensor.concat([l2_normalize(modal[m]) for m in self.config.modalities], axis=-1)

    def loss(self, source_index: np.ndarray, target_index: np.ndarray) -> Tensor:
        source = self.joint_embedding("source")
        target = self.joint_embedding("target")
        return self.contrastive(source, target, source_index, target_index)
