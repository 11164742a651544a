"""GCN-Align baseline (Wang et al., EMNLP 2018): structure-only alignment.

GCN-Align embeds entities with a graph convolutional network over each KG
and aligns them with a seed-supervised objective; it uses no textual or
visual modality, making it the canonical structure-only reference row of
Table IV.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..core.task import PreparedTask
from .base import BaselineConfig, ModalBaselineModel

__all__ = ["GCNAlign"]


class GCNAlign(ModalBaselineModel):
    """Structure-only GCN aligner with a contrastive seed objective."""

    name = "GCN-align"

    def __init__(self, task: PreparedTask, config: BaselineConfig | None = None):
        config = config or BaselineConfig(gnn="gcn", modalities=("graph",))
        if config.modalities != ("graph",):
            config = BaselineConfig(hidden_dim=config.hidden_dim,
                                    temperature=config.temperature,
                                    gnn="gcn", gnn_layers=config.gnn_layers,
                                    modalities=("graph",), seed=config.seed)
        super().__init__(task, config)

    def joint_from_modal(self, modal: dict[str, Tensor]) -> Tensor:
        # Structure-only: the GCN output is the joint embedding, making
        # the fusion trivially row-independent (neighbour-sampling safe).
        return modal["graph"]

    def loss(self, source_index: np.ndarray, target_index: np.ndarray) -> Tensor:
        source = self.joint_embedding("source")
        target = self.joint_embedding("target")
        return self.contrastive(source, target, source_index, target_index)
